"""change_basis summed over the bracket support against the all-pairs loop.

reference_change_basis is the earlier implementation, kept verbatim: it
brackets every pair of columns in Fractions and reduces each bracket
through the tagged Subspace.  change_basis sums the images from the int
table and scales p by the lcm of its denominators, so it is run on tables
with den > 1 and on p with fractional entries too.  It looks an image that
is a multiple of one column up by its primitive form and reduces the others
through the tagged Subspace, so both sides are run: nice bases with one
column replaced by its sum with a neighbour, where some images hit and some
miss, and nice bases with columns scaled by negative and fractional factors,
where every image hits.  It must return the same table, with the same key
order, the same values and every value a Fraction, and refuse the same
matrices with the same message, whether an image missed or not.  A monomial
p (one nonzero per column, in distinct rows) skips both, so random signed,
rationally scaled permutations are run too, and monomial-shaped matrices
with two columns on one row or a zero column must still be refused.  The
door checks p; its core _rebased, which _witness_basis calls on a basis that
its span proves invertible, must give the door's table, den and pairs on
every invertible p here, monomial ones included, and the door must refuse
the bad p before the core is reached.  The lookup keys a column by its
support, and by the ratio of two of its entries when columns share a
support, so dense bases whose columns all share one support are run too,
two of their columns sharing that ratio as well.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from nicebasis import (
    GraphSpec,
    catalog,
    construct_nice_basis,
    fixtures,
    free_nilpotent,
    graph_algebra,
    indecomposable_family,
    load_lie,
)
from nicebasis.almost_abelian import _witness_basis, analyze, build
from nicebasis.lie import LieAlgebra, abelian, direct_sum
from nicebasis.linalg import Matrix, Subspace
from nicebasis.nice import check_nice
from nicebasis.scalars import Q, ONE
from test_integer_table import assert_rebuilds

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
LIE_FILES = sorted(FIXTURES.glob("*.lie"))


def reference_change_basis(self, p: Matrix):
    """Structure constants in the basis of p's columns.  Column j is tagged with
    coordinate n + j in one Subspace: w = sum x_j p_j reduces to -sum x_j e_(n+j)."""
    n = self.dim
    cols = p.columns
    # the shape first: the tagged Subspace refuses an index past 2n - 1
    if (p.rows, p.cols) != (n, n) or (tagged := Subspace(2 * n, (
            {**c, n + j: ONE} for j, c in enumerate(cols)))).pivots != list(range(n)):
        raise ValueError("change of basis needs an invertible n x n matrix")
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            w, d = tagged.residue(self.bracket_sparse(cols[i], cols[j]))
            if w:
                table[(i, j)] = {t - n: Q(-w[t], d) for t in sorted(w)}
    return LieAlgebra(n, table, check=False)


def assert_same_table(g, p):
    got = g.change_basis(p)
    want = reference_change_basis(g, p)
    core = g._rebased(p)
    assert (core.table, core.den, core.pairs) == (got.table, got.den, got.pairs)
    assert list(got.brackets.items()) == list(want.brackets.items())
    for comps in got.brackets.values():
        assert list(comps) == sorted(comps)
        assert all(type(x) is Fraction for x in comps.values())
    assert_rebuilds(got)
    return got


def signed_permutation(n):
    # column j is (-1)^j e_((n - j) mod n): a reversal and a shift
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[(n - j) % n][j] = (-1) ** j
    return Matrix(rows)


ENTRY = st.one_of(st.integers(-3, 3), st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]))


@pytest.mark.parametrize("path", LIE_FILES, ids=[p.stem for p in LIE_FILES])
class TestFixtures:
    def test_identity(self, path):
        g = load_lie(path)
        h = assert_same_table(g, Matrix.identity(g.dim))
        assert h.brackets == g.brackets

    def test_signed_permutation(self, path):
        g = load_lie(path)
        assert_same_table(g, signed_permutation(g.dim))

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_rational_matrices(self, path, data):
        g = load_lie(path)
        n = g.dim
        rows = data.draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        # invertible: make it diagonally dominant
        for i in range(n):
            rows[i][i] = sum(abs(x) for x in rows[i]) + 1
        assert_same_table(g, Matrix(rows))


GRAPHS = [
    GraphSpec.of(3, [(0, 1), (1, 2)], 3),
    GraphSpec.of(3, [(0, 1), (1, 2), (0, 2)], 2),
    GraphSpec.of(4, [(0, 1), (1, 2), (2, 3)], 3),
    GraphSpec.of(4, [(0, 1), (0, 2), (0, 3)], 3),
    GraphSpec.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)], 3),
    GraphSpec.of(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 3),
    GraphSpec.of(5, [(0, 1), (2, 3)], 4),
]


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"v{g.vertex_count}e{len(g.edges)}c{g.c}")
def test_graph_algebras_in_their_nice_bases(g):
    alg = graph_algebra(g)[0]
    assert_same_table(alg, construct_nice_basis(g))
    assert_same_table(alg, signed_permutation(alg.dim))


def sign_conjugate(a, signs):
    n = a.rows
    return Matrix([[signs[i] * a.data[i][j] * signs[j] for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("flip", [False, True], ids=["plain", "signed"])
def test_almost_abelian_witnesses(n, flip):
    a = indecomposable_family(n).a
    if flip:
        a = sign_conjugate(a, [1 if i % 3 else -1 for i in range(a.rows)])
    compiled = build(a).compiled
    facts = analyze(a).factorizations
    assert len(facts) == n
    for fact in facts:
        assert_same_table(compiled, _witness_basis(a, fact))


def test_catalog_bases():
    compared = 0
    for entry in catalog():
        for b in entry.nice_bases:
            assert_same_table(entry.algebra, b)
            compared += 1
    assert compared > 0



def scaled(g, factor):
    return LieAlgebra(g.dim, {key: {k: c * factor for k, c in comps.items()}
                              for key, comps in g.brackets.items()})


# the rational tables of test_integer_table: den = 6, 3 and 2
RATIONAL = {
    "sl2/2,3": lambda: LieAlgebra(3, {(0, 1): {1: Q(1, 2)}, (0, 2): {2: Q(-1, 2)},
                                      (1, 2): {0: Q(1, 3)}}),
    "L7/3": lambda: scaled(fixtures.standard_filiform(7), Q(1, 3)),
    "so3+L5/2": lambda: direct_sum(fixtures.so3(), scaled(fixtures.standard_filiform(5), Q(1, 2))),
}


@pytest.mark.parametrize("name", sorted(RATIONAL))
class TestRationalTables:
    def test_identity_and_signed_permutation(self, name):
        g = RATIONAL[name]()
        assert g.den > 1
        assert assert_same_table(g, Matrix.identity(g.dim)).brackets == g.brackets
        assert_same_table(g, signed_permutation(g.dim))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_invertible_rational_matrices(self, name, data):
        g = RATIONAL[name]()
        n = g.dim
        p = Matrix(data.draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                                      min_size=n, max_size=n)))
        assume(p.det() != 0)
        assert_same_table(g, p)


h3 = fixtures.heisenberg3  # [e1, e2] = e3

REFUSED = {
    # monomial-shaped: one entry per column, but two columns on row 0 (row 1 empty)
    "monomial-two-on-one-row": (h3, Matrix.from_columns([{0: 1}, {0: -2}, {2: 1}], 3)),
    "monomial-two-on-one-row-rational": (RATIONAL["sl2/2,3"], Matrix.from_columns(
        [{2: Q(1, 2)}, {1: 3}, {2: Q(-2, 7)}], 3)),
    "3x2": (h3, Matrix([[1, 0], [0, 1], [0, 0]])),
    "2x3": (h3, Matrix([[1, 0, 0], [0, 1, 0]])),
    "4x4": (h3, Matrix.identity(4)),
    # singular p below: no image leaves the columns' span, so only the pivot check
    # refuses them
    "singular": (h3, Matrix([[1, 1, 0], [0, 0, 0], [0, 1, 1]])),
    "singular-abelian": (lambda: abelian(3), Matrix([[1, 2, 0], [1, 2, 0], [0, 0, 1]])),
    "zero-column": (h3, Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])),
    "zero-column-rational": (RATIONAL["sl2/2,3"], Matrix([[Q(1, 2), 0, 0], [0, 0, 0], [0, 0, 1]])),
    # [e1, e2] = e3 is a column of neither: the image misses, the tagged space refuses
    "singular-image-misses": (h3, Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])),
    # columns e1, e2, e3, 2 e3 of h3 + R: the one image e3 hits two columns, and the
    # untagged check refuses
    "singular-images-hit": (lambda: direct_sum(h3(), abelian(1)),
                            Matrix.from_columns([{0: 1}, {1: 1}, {2: 1}, {2: 2}], 4)),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_matrices(name):
    make, p = REFUSED[name]
    g = make()
    for change in (g.change_basis, lambda p: reference_change_basis(g, p)):
        with pytest.raises(ValueError, match="invertible n x n"):
            change(p)


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_the_door_refuses_before_the_core(monkeypatch, name):
    make, p = REFUSED[name]
    g = make()

    def core(self, p):
        raise AssertionError("_rebased reached")

    monkeypatch.setattr(LieAlgebra, "_rebased", core)
    with pytest.raises(ValueError, match="invertible n x n"):
        g.change_basis(p)


# --- both sides of the one-column lookup ---


def images_missed(monkeypatch, g, p):
    """The table of g.change_basis(p) against the reference, and the number of
    images that the tagged Subspace reduced: residues in Q^2n of vectors that
    are no tagged column, counted at the int core that change_basis calls."""
    n, calls = g.dim, []
    residue = Subspace._reduce

    def recording(self, vector):
        if self.ambient == 2 * n and max(vector) < n:
            calls.append(vector)
        return residue(self, vector)

    monkeypatch.setattr(Subspace, "_reduce", recording)
    got = g.change_basis(p)
    monkeypatch.undo()
    assert list(got.brackets.items()) == list(reference_change_basis(g, p).brackets.items())
    core = g._rebased(p)
    assert (core.table, core.den, core.pairs) == (got.table, got.den, got.pairs)
    assert all(type(x) is Fraction for comps in got.brackets.values() for x in comps.values())
    return got, len(calls)


def neighbour_sums(p):
    """p with column j replaced by column j plus column j + 1 (mod n), each j."""
    n, cols = p.cols, p.columns
    for j in range(n):
        k = (j + 1) % n
        both = {i: cols[j].get(i, 0) + cols[k].get(i, 0) for i in cols[j].keys() | cols[k].keys()}
        yield Matrix.from_columns([both if c == j else cols[c] for c in range(n)], p.rows)


def scaled_columns(p, factors=(-1, Q(1, 2), Q(-2, 3), 3)):
    """p with column j times factors[j mod 4]."""
    cols = p.columns
    return Matrix.from_columns([{i: x * factors[j % len(factors)] for i, x in c.items()}
                                for j, c in enumerate(cols)], p.rows)


def nice_bases():
    """(label, algebra, nice basis) with at least two nonzero brackets."""
    out = []
    for n in (3, 4):
        a = indecomposable_family(n).a
        a = sign_conjugate(a, [1 if i % 3 else -1 for i in range(a.rows)])
        out.append((f"family-{n}", build(a).compiled, analyze(a).exists().witness))
    for g in GRAPHS:
        alg = graph_algebra(g)[0]
        out.append((f"graph-v{g.vertex_count}e{len(g.edges)}c{g.c}", alg, construct_nice_basis(g)))
    for entry in catalog():
        for k, b in enumerate(entry.nice_bases):
            out.append((f"{entry.name}-{k}", entry.algebra, b))
    for name in sorted(RATIONAL):
        g = RATIONAL[name]()
        out.append((name, g, Matrix.identity(g.dim)))
    out = [(label, g, p) for label, g, p in out if len(g.change_basis(p).pairs) >= 2]
    assert all(check_nice(g.change_basis(p)) for _, g, p in out)
    return out


NICE = nice_bases()


@pytest.mark.parametrize("label, g, p", NICE, ids=[label for label, _, _ in NICE])
def test_neighbour_sums_hit_and_miss(monkeypatch, label, g, p):
    both = 0
    for q in neighbour_sums(p):
        got, missed = images_missed(monkeypatch, g, q)
        hits = len(got.pairs) - missed
        both += bool(hits and missed)
    assert both  # some basis where one image hits and another misses


def test_negative_and_fractional_multiples_hit(monkeypatch):
    values = set()
    for _, g, p in NICE:
        got, missed = images_missed(monkeypatch, g, scaled_columns(p))
        assert missed == 0
        assert check_nice(got)
        values |= {x for comps in got.brackets.values() for x in comps.values()}
    # the images were negative and fractional multiples of their columns
    assert any(x < 0 and x.denominator > 1 for x in values)
    assert any(x > 0 and x.denominator > 1 for x in values)


# --- columns that share a support ------------------------------------------------


def dense_basis(n, rng):
    """A random invertible n x n int matrix, n >= 3, with no zero entry, so that all its
    columns share one support; columns 0 and 1 also share the ratio 1 : 2 of their first
    and last entries, so that the lookup must tell them apart by the other entries."""
    while True:
        rows = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
        rows[0][:2], rows[-1][:2] = [1, 2], [2, 4]
        if (q := Matrix(rows)).det():
            return q


# the dense tables of the larger graph algebras make the all-pairs reference slow
SMALL = [(label, g, p) for label, g, p in NICE if g.dim <= 10]


@pytest.mark.parametrize("label, g, p", SMALL, ids=[label for label, _, _ in SMALL])
def test_dense_bases_hit_by_support_and_ratio(monkeypatch, label, g, p):
    # h is g's nice tensor t written in the basis q^-1, so in q's columns h is t again:
    # every image is a multiple of one column, and every column has the same support
    t, rng = g.change_basis(p), random.Random(label)
    hit_and_missed = 0
    for _ in range(2):
        q = dense_basis(g.dim, rng)
        h = t.change_basis(q.inverse())
        got, missed = images_missed(monkeypatch, h, q)
        assert missed == 0
        assert got.brackets == t.brackets
        for r in neighbour_sums(q):
            got, missed = images_missed(monkeypatch, h, r)
            hit_and_missed += bool(missed and len(got.pairs) - missed)
    assert hit_and_missed


def test_columns_with_one_support_and_ratio_are_told_apart(monkeypatch):
    # R + h3, [f1, f2] = f3, in a basis whose last two columns share their support
    # {0, 1, 2} and the ratio 1 : 1 of their entries at 0 and 2: the image of
    # [q1, q2] is q3, the second column under that key
    t = direct_sum(abelian(1), h3())
    q = Matrix.from_columns([{3: 1}, {0: 1}, {0: 1, 1: 2, 2: 1}, {0: 2, 1: 1, 2: 2}], 4)
    h = t.change_basis(q.inverse())
    got, missed = images_missed(monkeypatch, h, q)
    assert missed == 0
    assert got.brackets == t.brackets



# --- the monomial branch -------------------------------------------------------

NUMERATORS, DENOMINATORS = (1, 2, 3, 5), (1, 2, 3, 7)


def random_monomial(n, rng):
    """A random permutation of the rows, column j scaled by +-a/b, a in 1, 2, 3, 5 and
    b in 1, 2, 3, 7."""
    rows = rng.sample(range(n), n)
    return Matrix.from_columns([{rows[j]: Q(rng.choice((-1, 1)) * rng.choice(NUMERATORS),
                                            rng.choice(DENOMINATORS))} for j in range(n)], n)


MONOMIAL_ALGEBRAS = {
    **{path.stem: lambda path=path: load_lie(path) for path in LIE_FILES},
    **{f"graph-v{g.vertex_count}e{len(g.edges)}c{g.c}": lambda g=g: graph_algebra(g)[0]
       for g in (GRAPHS[0], GRAPHS[4], GRAPHS[6])},
    "free-3-3": lambda: free_nilpotent(3, 3)[0],
    **RATIONAL,
}


@pytest.mark.parametrize("name", sorted(MONOMIAL_ALGEBRAS))
def test_random_signed_scaled_permutations(monkeypatch, name):
    g = MONOMIAL_ALGEBRAS[name]()
    rng = random.Random(name)
    for _ in range(10):
        p = random_monomial(g.dim, rng)
        got, missed = images_missed(monkeypatch, g, p)
        assert missed == 0
        assert all(list(comps) == sorted(comps) for comps in got.brackets.values())
        assert got.den == reference_change_basis(g, p).den
        assert_rebuilds(got)


def test_monomial_shaped_refusals_are_monomial_shaped():
    for name in ("monomial-two-on-one-row", "monomial-two-on-one-row-rational",
                 "zero-column", "zero-column-rational"):
        _, p = REFUSED[name]
        assert all(len(col) <= 1 for col in p.num)
        assert len({i for col in p.num for i in col}) < p.cols
