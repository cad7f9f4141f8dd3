"""change_basis summed over the bracket support against the all-pairs loop.

reference_change_basis is the earlier implementation, kept verbatim: it
brackets every pair of columns in Fractions and reduces each bracket
through the tagged Subspace.  change_basis sums the images from the int
table and scales p by the lcm of its denominators, so it is run on tables
with den > 1 and on p with fractional entries too.  It must return the same
table, with the same key order, the same values and every value a Fraction,
and refuse the same matrices.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from nicebasis import (
    GraphSpec,
    catalog,
    construct_nice_basis,
    fixtures,
    graph_algebra,
    indecomposable_family,
    load_lie,
)
from nicebasis.almost_abelian import _witness_basis, analyze, build
from nicebasis.lie import LieAlgebra, abelian, direct_sum
from nicebasis.linalg import Matrix, Subspace
from nicebasis.scalars import Q, ONE
from test_integer_table import assert_rebuilds

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
LIE_FILES = sorted(FIXTURES.glob("*.lie"))


def reference_change_basis(self, p: Matrix):
    """Structure constants in the basis of p's columns.  Column j is tagged with
    coordinate n + j in one Subspace: w = sum x_j p_j reduces to -sum x_j e_(n+j)."""
    n = self.dim
    cols = p.columns
    tagged = Subspace(2 * n, ({**c, n + j: ONE} for j, c in enumerate(cols)))
    if (p.rows, p.cols) != (n, n) or tagged.pivots != list(range(n)):
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
    "3x2": (h3, Matrix([[1, 0], [0, 1], [0, 0]])),
    "2x3": (h3, Matrix([[1, 0, 0], [0, 1, 0]])),
    "4x4": (h3, Matrix.identity(4)),
    # singular p below: no image leaves the columns' span, so only the pivot check
    # refuses them
    "singular": (h3, Matrix([[1, 1, 0], [0, 0, 0], [0, 1, 1]])),
    "singular-abelian": (lambda: abelian(3), Matrix([[1, 2, 0], [1, 2, 0], [0, 0, 1]])),
    "zero-column": (h3, Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])),
    "zero-column-rational": (RATIONAL["sl2/2,3"], Matrix([[Q(1, 2), 0, 0], [0, 0, 0], [0, 0, 1]])),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_matrices(name):
    make, p = REFUSED[name]
    g = make()
    for change in (g.change_basis, lambda p: reference_change_basis(g, p)):
        with pytest.raises(ValueError, match="invertible n x n"):
            change(p)
