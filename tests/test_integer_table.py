"""LieAlgebra.table, the one int bracket table, against the Fraction code
that it replaced.

Every LieAlgebra is built from its brackets times den, the lcm of their
denominators, as ints in both index orders, and brackets vectors through it
with bracket_int; brackets is a Fraction view of that table, built when read.
graph_algebra's block elimination, jacobi_failures, quotient, is_derivation
and derivation_space read it directly; bracket_sparse and killing_form
divide by den and den^2.  The quotients iterate the nonzero brackets
instead of every pair of kept indices, jacobi_failures checks only the
triples that some support pair reaches, and free_nilpotent brackets Lyndon
words with int coefficients.  The reference_* functions below are the
Fraction versions they replaced; every output is compared with them, down to
value types and key order, with one exception.  The components of a quotient
bracket come in Subspace.residue's order, not the reference's sorted one, so
test_same_ideal_closure compares them as dicts.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nicebasis import derivations, fixtures, graphs
from nicebasis.derivations import derivation_space, is_derivation, pre_einstein_nice
from nicebasis.graphs import GraphSpec, construct_nice_basis, free_nilpotent, graph_algebra
from nicebasis.lie import LieAlgebra, abelian, direct_sum
from nicebasis.linalg import Matrix, Subspace, _preimage, kernel_of
from nicebasis.catalog3 import catalog, classify3
from nicebasis.nice import check_nice, monomial_equivalent
from nicebasis.scalars import Q, ZERO, ONE


# --- stand-ins for the Fraction views that src/ no longer has --------------------

def bracket_basis(g, i, j):
    """[e_i, e_j] over Q in either index order, as LieAlgebra.bracket_basis gave it."""
    return {k: Q(x, g.den) for k, x in g.table[i].get(j, {}).items()}


def q_rows(s):
    """The Subspace rows over Q, each over its pivot entry, as Subspace.rows gave them."""
    return {p: {c: Q(x, row[p]) for c, x in row.items()} for p, row in s.rows.items()}


def sparse(vector):
    """Nonzero entries of a dense vector as a {index: value} dict, as linalg.sparse gave them."""
    return {i: x for i, x in enumerate(vector) if x}


def sparse_kernel(s):
    """int_kernel over Q, each vector over its free entry, as Subspace.sparse_kernel gave it."""
    return [{c: Q(x, v[f]) for c, x in v.items()} for v in s.int_kernel() for f in [max(v)]]


# --- the Fraction references ------------------------------------------------

def reference_ad_table(g):
    """The Fraction table the int one replaced: [e_i, e_j] in both orders."""
    t = [{} for _ in range(g.dim)]
    for (i, j), comps in g.brackets.items():
        t[i][j] = comps
        t[j][i] = {k: -c for k, c in comps.items()}
    return t


def reference_bracket_sparse(g, x, y):
    """bracket_sparse as it read the Fraction table."""
    out = {}
    for i, a in x.items():
        row = reference_ad_table(g)[i]
        for j in row.keys() & y.keys():
            f = a * y[j]
            for k, c in row[j].items():
                out[k] = out.get(k, ZERO) + f * c
    return {k: c for k, c in out.items() if c}


def reference_killing_form(g):
    """Tr(ad_{e_i} ad_{e_j}) from dense ad matrices, ad_i[k][m] = [e_i, e_m]_k."""
    t, n = reference_ad_table(g), g.dim
    ad = [[[t[i].get(m, {}).get(k, ZERO) for m in range(n)] for k in range(n)]
          for i in range(n)]
    return Matrix([[sum((ad[i][k][m] * ad[j][m][k] for k in range(n) for m in range(n)), ZERO)
                    for j in range(n)] for i in range(n)])


def reference_is_derivation(g, d):
    """D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] on every pair, in Fractions."""
    n = g.dim
    cols = [{r: x for r in range(n) if (x := d.get((r, c), ZERO))} for c in range(n)]

    def apply(vec):
        out = {}
        for c, x in vec.items():
            for r, y in cols[c].items():
                out[r] = out.get(r, ZERO) + x * y
        return out

    for i, j in itertools.combinations(range(n), 2):
        lhs = apply(reference_bracket_sparse(g, {i: ONE}, {j: ONE}))
        for vec in (reference_bracket_sparse(g, cols[i], {j: ONE}),
                    reference_bracket_sparse(g, {i: ONE}, cols[j])):
            for k, x in vec.items():
                lhs[k] = lhs.get(k, ZERO) - x
        if any(lhs.values()):
            return False
    return True


def reference_free_nilpotent(d, c):
    """free_nilpotent's table by Fraction word expansion and greedy decomposition."""

    def word_mul(p1, p2):
        out = {}
        for w1, c1 in p1.items():
            for w2, c2 in p2.items():
                if len(w1) + len(w2) > c:
                    continue
                w = w1 + w2
                out[w] = out.get(w, ZERO) + c1 * c2
                if out[w] == 0:
                    del out[w]
        return out

    def poly_sub(p1, p2):
        out = dict(p1)
        for w, x in p2.items():
            out[w] = out.get(w, ZERO) - x
            if out[w] == 0:
                del out[w]
        return out

    words = graphs.lyndon_words(d, c)
    index = {w: i for i, w in enumerate(words)}
    expansion = {}
    for w in words:
        if len(w) == 1:
            expansion[w] = {w: ONE}
        else:
            u, v = graphs.standard_factorization(w)
            expansion[w] = poly_sub(word_mul(expansion[u], expansion[v]),
                                    word_mul(expansion[v], expansion[u]))

    def decompose(poly):
        coords = {}
        poly = dict(poly)
        while poly:
            w = min(poly, key=lambda t: (len(t), t))
            coeff = poly[w]
            coords[index[w]] = coeff
            poly = poly_sub(poly, {u: coeff * x for u, x in expansion[w].items()})
        return coords

    table = {}
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            if len(words[i]) + len(words[j]) > c:
                continue
            coords = decompose(poly_sub(word_mul(expansion[words[i]], expansion[words[j]]),
                                        word_mul(expansion[words[j]], expansion[words[i]])))
            if coords:
                table[(i, j)] = coords
    names = [graphs._word_name(w) for w in words]
    return LieAlgebra(len(words), table, names=names, check=False), words


def reference_graph_algebra(g):
    """graph_algebra with a Fraction closure and a loop over all kept pairs."""
    d, c = g.vertex_count, g.c
    if not g.edges or c == 1:
        names = [f"v{v + 1}" for v in range(d)]  # the generators' names in free_nilpotent
        words = tuple((v,) for v in range(d))
        return LieAlgebra(d, {}, names=names), words
    free, basis = free_nilpotent(d, c)
    ideal = Subspace(free.dim)
    queue = []
    for a, b in itertools.combinations(range(d), 2):
        if not g.has_edge(a, b):
            gen = bracket_basis(free, a, b)
            if gen and ideal.add(gen):
                queue.append(gen)
    while queue:
        v = queue.pop()
        for x in range(d):
            w = free.bracket_sparse({x: ONE}, v)
            if w and ideal.add(w):
                queue.append(w)
    keep = sorted(set(range(free.dim)).difference(ideal.pivots))
    pos = {orig: t for t, orig in enumerate(keep)}
    table = {}
    for a in range(len(keep)):
        for b in range(a + 1, len(keep)):
            res = residue_q(ideal, free.brackets.get((keep[a], keep[b]), {}))
            if res:
                table[(a, b)] = {pos[k]: x for k, x in res.items()}
    words = tuple(basis.words[i] for i in keep)
    names = [graphs._word_name(w) for w in words]
    return LieAlgebra(len(keep), table, names=names, check=False), words


def residue_q(s, vector):
    """The residue of vector modulo the Subspace s over Q, in Subspace.residue's key order."""
    w, d = s.residue(vector)
    return {c: Q(x, d) for c, x in w.items()}


def reference_jacobi_failures(g, limit=None):
    """jacobi_failures on Fraction copies of the basis brackets."""

    def double(i, j, m):
        out = {}
        for k, c in bracket_basis(g, i, j).items():
            for t, d in bracket_basis(g, k, m).items():
                out[t] = out.get(t, ZERO) + c * d
        return out

    seen = set()
    bad = []
    for (i, j) in g.brackets:
        for m in range(g.dim):
            trip = tuple(sorted((i, j, m)))
            if len(set(trip)) < 3 or trip in seen:
                continue
            seen.add(trip)
            a, b, c = trip
            total = double(a, b, c)
            for t, d in double(b, c, a).items():
                total[t] = total.get(t, ZERO) + d
            for t, d in double(c, a, b).items():
                total[t] = total.get(t, ZERO) + d
            if any(x != 0 for x in total.values()):
                bad.append(trip)
                if limit and len(bad) >= limit:
                    return bad
    return bad


def reference_ideal_closure(g, vectors):
    # den [e_i, v] on the int rows spans what [e_i, v] does
    s = Subspace(g.dim, vectors)
    queue = [dict(row) for row in s.rows.values()]
    while queue:
        v = queue.pop()
        for i in range(g.dim):
            w = g.bracket_int(i, v)
            if w and s.add(w):
                queue.append(w)
    return s


def reference_quotient(g, ideal):
    keep = [i for i in range(g.dim) if i not in ideal.rows]
    pos = {orig: t for t, orig in enumerate(keep)}

    def project(vector):
        res = residue_q(ideal, vector)
        return tuple(res.get(i, ZERO) for i in keep)

    table = {}
    for a, i in enumerate(keep):
        for b in range(a + 1, len(keep)):
            res = residue_q(ideal, bracket_basis(g, i, keep[b]))
            if res:
                table[(a, b)] = {pos[k]: res[k] for k in sorted(res)}
    names = [g.names[i] for i in keep]
    return LieAlgebra(len(keep), table, names=names), project


# --- comparisons -------------------------------------------------------------

def assert_same_algebra(got, want):
    """Same dim, names, bracket keys and components in the same order, all Fraction."""
    assert (got.dim, got.names) == (want.dim, want.names)
    assert list(got.brackets) == list(want.brackets)
    for key, comps in want.brackets.items():
        assert list(got.brackets[key].items()) == list(comps.items()), key
        assert all(type(x) is Fraction for x in got.brackets[key].values())


def rows_in_order(g):
    """g's int table with the order of every row and component."""
    return [[(j, list(comps.items())) for j, comps in row.items()] for row in g.table]


def assert_rebuilds(alg):
    """alg, built from ints, is what the validating constructor builds from its
    Fraction view: same brackets, table and den, in the same key and component order."""
    ref = LieAlgebra(alg.dim, alg.brackets, names=alg.names)
    assert alg.pairs == ref.pairs == tuple(alg.brackets)
    assert_same_algebra(alg, ref)
    assert alg.den == ref.den
    assert rows_in_order(alg) == rows_in_order(ref)


def assert_same_projection(got, want, dim, rng):
    vectors = [tuple(ONE if k == i else ZERO for k in range(dim)) for i in range(dim)]
    vectors.append(tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)))
    for vec in vectors:
        a, b = got(vec), want(vec)
        assert a == b
        assert [type(x) for x in a] == [type(x) for x in b]


def every_graph(v):
    pairs = list(itertools.combinations(range(v), 2))
    for bits in range(1 << len(pairs)):
        yield [p for k, p in enumerate(pairs) if bits >> k & 1]


def seeded_graphs(v, classes, count, seed):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(v), 2))
    return [(v, sorted(rng.sample(pairs, rng.randint(1, len(pairs)))), rng.choice(classes))
            for _ in range(count)]


SMALL_GRAPHS = [(v, edges, c) for v in range(1, 5) for edges in every_graph(v) for c in (2, 3, 4)]
SEEDED_GRAPHS = seeded_graphs(5, (2, 3, 4), 6, 5) + seeded_graphs(6, (2, 3), 4, 6)
# disconnected graphs: a triangle beside an edge, the 3-edge matching, K_1,3
# beside an isolated vertex
DISCONNECTED_GRAPHS = [(5, [(0, 1), (0, 2), (1, 2), (3, 4)], 4),
                       (6, [(0, 1), (2, 3), (4, 5)], 3),
                       (5, [(0, 1), (0, 2), (0, 3)], 4)]


def free_sizes(most):
    """Every (d, c) with d, c <= most whose free algebra has dimension <= most."""
    for d in range(1, most + 1):
        total = 0
        for c in range(1, most + 1):
            total += graphs.witt_dimension(d, c)
            if total > most:
                break
            yield d, c


class TestFreeNilpotentMatchesFractionReference:
    def test_every_size_up_to_dimension_100(self):
        for d, c in free_sizes(100):
            alg, basis = free_nilpotent(d, c)
            ref, words = reference_free_nilpotent(d, c)
            assert basis.words == tuple(words), (d, c)
            assert_same_algebra(alg, ref)
            assert_rebuilds(alg)

    def test_sizes_cover_every_free_algebra_up_to_dimension_100(self):
        sizes = set(free_sizes(100))
        assert {(2, 8), (3, 5), (4, 4), (6, 3), (13, 2), (100, 1), (1, 100)} <= sizes
        assert not {(2, 9), (3, 6), (4, 5), (7, 3), (14, 2)} & sizes
        # d = 1: c <= 100; d = 2..6: c <= 8, 5, 4, 3, 3; d = 7..13: c <= 2; then c = 1
        assert len(sizes) == 100 + (8 + 5 + 4 + 3 + 3) + 7 * 2 + 87


class TestGraphAlgebraMatchesFractionReference:
    @pytest.mark.parametrize("v", [1, 2, 3, 4])
    def test_every_small_graph(self, v):
        for n, edges, c in SMALL_GRAPHS:
            if n == v:
                self.check(GraphSpec.of(n, edges, c))

    @pytest.mark.parametrize("n,edges,c", SEEDED_GRAPHS)
    def test_seeded_larger_graphs(self, n, edges, c):
        self.check(GraphSpec.of(n, edges, c))

    @pytest.mark.parametrize("n,edges,c", DISCONNECTED_GRAPHS)
    def test_disconnected_graphs(self, n, edges, c):
        self.check(GraphSpec.of(n, edges, c))

    @staticmethod
    def check(g):
        alg, words = graph_algebra(g)
        ref, ref_words = reference_graph_algebra(g)
        assert words == ref_words
        assert_same_algebra(alg, ref)
        assert_rebuilds(alg)


class TestIdentityBranch:
    @pytest.mark.parametrize("n,edges,c", [
        (4, [(0, 1), (1, 2), (2, 3)], 2), (5, [(0, 1), (2, 3)], 4), (4, [], 5), (3, [(0, 2)], 1),
        (4, [(0, 1), (1, 2), (2, 3)], 3), (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)], 3)])
    def test_defining_basis_is_its_own_identity_change(self, n, edges, c):
        # construct_nice_basis checks alg itself, class-3 graphs with edges
        # included, and returns I; alg.change_basis(I) has the same table
        g = GraphSpec.of(n, edges, c)
        alg = graph_algebra(g)[0]
        assert construct_nice_basis(g) == Matrix.identity(alg.dim)
        same = alg.change_basis(Matrix.identity(alg.dim))
        assert same.brackets == alg.brackets
        assert bool(check_nice(same)) and bool(check_nice(alg))


# --- Jacobi --------------------------------------------------------------------

def scaled(g, factor):
    """g with every structure constant times factor: a Lie algebra again."""
    return LieAlgebra(g.dim, {key: {k: c * factor for k, c in comps.items()}
                              for key, comps in g.brackets.items()})


def sl2_with_halves():
    # [h, e] = e/2, [h, f] = -f/2, [e, f] = h/3: sl2 in a rescaled basis
    return LieAlgebra(3, {(0, 1): {1: Q(1, 2)}, (0, 2): {2: Q(-1, 2)}, (1, 2): {0: Q(1, 3)}})


LIE_ALGEBRAS = {
    "sl2/2,3": sl2_with_halves,
    "L7/3": lambda: scaled(fixtures.standard_filiform(7), Q(1, 3)),
    "n6": fixtures.n6,
    "so3+L5/2": lambda: direct_sum(fixtures.so3(), scaled(fixtures.standard_filiform(5), Q(1, 2))),
    "free-3-3": lambda: free_nilpotent(3, 3)[0],
    "free-2-5": lambda: free_nilpotent(2, 5)[0],
    "L8": lambda: fixtures.standard_filiform(8),
}


class TestJacobiMatchesFractionReference:
    @pytest.mark.parametrize("name", sorted(LIE_ALGEBRAS))
    def test_lie_algebras_pass(self, name):
        g = LIE_ALGEBRAS[name]()
        assert g.jacobi_failures() == reference_jacobi_failures(g) == []

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_failing_triples_in_the_same_order(self, data):
        n = data.draw(st.integers(3, 5))
        pairs = list(itertools.combinations(range(n), 2))
        value = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-1, 3), Q(2, 3)])
        table = {}
        for key in data.draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True)):
            targets = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2,
                                         unique=True))
            table[key] = {k: data.draw(value) for k in targets}
        g = LieAlgebra(n, table, check=False)
        want = reference_jacobi_failures(g)
        assert g.jacobi_failures() == want
        assert g.jacobi_failures(limit=1) == want[:1]
        if want:
            i, j, k = want[0]
            with pytest.raises(ValueError) as err:
                LieAlgebra(n, table)
            assert str(err.value) == f"Jacobi identity fails on basis triple ({i+1}, {j+1}, {k+1})"
        else:
            LieAlgebra(n, table)

    # (algebra, i, j, k): the constant of e_k in [e_i, e_j] goes up by 1.  Where
    # lexicographic is False, some failing triple's least pair is outside the
    # support, so the scan meets it after lexicographically greater triples
    @pytest.mark.parametrize("name,i,j,k,lexicographic", [
        ("free-3-3", 0, 1, 3, True), ("free-3-3", 2, 3, 2, True), ("free-3-3", 9, 10, 2, False),
        ("free-2-5", 1, 6, 1, True), ("free-2-5", 11, 12, 1, False), ("free-2-5", 10, 12, 1, False),
        ("L8", 0, 6, 0, True), ("L8", 0, 1, 0, True), ("L8", 1, 2, 4, True),
    ])
    def test_perturbed_larger_tables(self, name, i, j, k, lexicographic):
        g = LIE_ALGEBRAS[name]()
        table = {key: dict(comps) for key, comps in g.brackets.items()}
        comps = table.setdefault((i, j), {})
        comps[k] = comps.get(k, ZERO) + 1
        bad = LieAlgebra(g.dim, table, check=False)
        want = reference_jacobi_failures(bad)
        assert want and (want == sorted(want)) == lexicographic
        assert bad.jacobi_failures() == want
        assert bad.jacobi_failures(limit=1) == want[:1]
        a, b, c = want[0]
        with pytest.raises(ValueError) as err:
            LieAlgebra(g.dim, table)
        assert str(err.value) == f"Jacobi identity fails on basis triple ({a+1}, {b+1}, {c+1})"

    def test_known_violation(self):
        table = {(0, 1): {2: Q(1, 2)}, (0, 2): {0: Q(1, 3)}}
        g = LieAlgebra(3, table, check=False)
        assert g.jacobi_failures() == reference_jacobi_failures(g) == [(0, 1, 2)]
        with pytest.raises(ValueError, match=r"basis triple \(1, 2, 3\)"):
            LieAlgebra(3, table)


# --- the table itself ------------------------------------------------------------

class TestIntegerTable:
    @pytest.mark.parametrize("name", sorted(LIE_ALGEBRAS))
    def test_is_ad_table_times_lcm_of_denominators(self, name):
        g = LIE_ALGEBRAS[name]()
        ref = reference_ad_table(g)
        den = math.lcm(*[c.denominator for row in ref
                         for comps in row.values() for c in comps.values()])
        assert g.den == den
        assert len(g.table) == g.dim
        for row, irow in zip(ref, g.table):
            assert list(irow) == list(row)
            for m, comps in row.items():
                assert list(irow[m]) == list(comps)
                assert all(type(x) is int and x == c * den
                           for x, c in zip(irow[m].values(), comps.values()))

    def test_denominators_2_and_3_give_scale_6(self):
        g = sl2_with_halves()
        assert g.den == 6
        assert all(g.table[i][j][k] == 6 * c for (i, j), comps in g.brackets.items()
                   for k, c in comps.items())

    def test_built_once_and_kept(self):
        g = scaled(fixtures.standard_filiform(6), Q(1, 2))
        table = g.table
        for call in (g.lower_central_series, lambda: center(g), g.killing_form, g.jacobi_failures,
                     lambda: g.quotient(center(g)), lambda: derivation_space(g),
                     lambda: is_derivation(g, Matrix.identity(6))):
            call()
            assert g.table is table
        assert (abelian(3).table, abelian(3).den) == ([{}, {}, {}], 1)

    def test_bracket_int_is_scaled_bracket(self):
        g = sl2_with_halves()
        v = {0: 3, 1: -2, 2: 5}
        for i in range(g.dim):
            want = g.bracket_sparse({i: ONE}, {k: Q(x) for k, x in v.items()})
            got = g.bracket_int(i, v)
            assert all(type(x) is int for x in got.values())
            assert got == {k: 6 * x for k, x in want.items()}
            # Q vectors go through as they come, and come back in Q
            got = g.bracket_int(i, {k: Q(x, 5) for k, x in v.items()})
            assert all(type(x) is Fraction for x in got.values())
            assert got == {k: Q(6, 5) * x for k, x in want.items()}


class Unreadable:
    def __getattr__(self, name):
        raise AssertionError("brackets read by derivation_space")

    def __iter__(self):
        raise AssertionError("brackets read by derivation_space")

    def __getitem__(self, index):
        raise AssertionError("brackets read by derivation_space")


def test_derivation_space_reads_one_table_per_algebra():
    # L7/3: [e1, e_i] = e_(i+1)/3 for i = 2..6, so den = 3 and every entry is 1
    g = LieAlgebra(7, scaled(fixtures.standard_filiform(7), Q(1, 3)).brackets, check=False)
    assert g.den == 3
    assert g.table == [{j: {j + 1: 1} for j in range(1, 6)}] + [
        {0: {j + 1: -1}} for j in range(1, 6)] + [{}]
    first = derivation_space(g)
    table = g.table
    g.brackets = Unreadable()
    derivations._space.cache_clear()  # build it again, not from the last-space cache
    assert derivation_space(g) == first
    assert g.table is table


def l7_thirds():
    """L7/3 built from a literal table, so that building it reads no brackets."""
    return LieAlgebra(7, {(0, i): {i + 1: Q(1, 3)} for i in range(1, 6)})


def same_table(g):
    return g.dim, g.pairs, rows_in_order(g), g.den, g.names


PATH_P3 = GraphSpec.of(3, [(0, 1), (1, 2)], 3)  # class 3 with edges: check_nice alone, no change of basis
# each hot call builds its own inputs, and returns what can be compared by value
HOT_CALLS = {
    "graph_algebra": lambda: (same_table(graph_algebra(PATH_P3)[0]), graph_algebra(PATH_P3)[1]),
    "construct_nice_basis": lambda: construct_nice_basis(PATH_P3),
    "change_basis": lambda: same_table(sl2_with_halves().change_basis(
        Matrix([[1, Q(1, 2), 0], [0, 2, 1], [Q(-1, 3), 0, 1]]))),
    "check_nice": lambda: (check_nice(fixtures.n6()), check_nice(l7_thirds())),
    "jacobi_failures": lambda: (
        LieAlgebra(3, {(0, 1): {2: Q(1, 2)}, (0, 2): {0: Q(1, 3)}}, check=False).jacobi_failures(),
        free_nilpotent(3, 3)[0].jacobi_failures()),
    "is_derivation": lambda: [is_derivation(l7_thirds(), {(i, i): Q(i + 1, 2) for i in range(7)}),
                              is_derivation(l7_thirds(), {(i, i): Q(i, 2) for i in range(7)})],
    "pre_einstein_nice": lambda: pre_einstein_nice(l7_thirds()),
    "monomial_equivalent": lambda: monomial_equivalent(
        l7_thirds(), Matrix.identity(7), Matrix.diagonal([Q(-1, 2), 3, 1, 2, -1, Q(1, 3), 1])),
    "catalog": lambda: [(e.name, e.nu, e.nice_bases) for e in catalog()],
    "classify3": lambda: classify3(sl2_with_halves()).name,
}


@pytest.mark.parametrize("name", sorted(HOT_CALLS))
def test_hot_paths_never_build_the_fraction_view(name, monkeypatch):
    def fresh_caches():
        graphs.free_nilpotent.cache_clear()
        graphs._quotient.cache_clear()

    fresh_caches()
    want = HOT_CALLS[name]()
    fresh_caches()
    # a data descriptor on the class: even an instance that cached its view cannot
    # read it, and pytest.fail is no Exception that the code under test could catch
    monkeypatch.setattr(LieAlgebra, "brackets",
                        property(lambda g: pytest.fail(f"{name} read LieAlgebra.brackets")))
    assert HOT_CALLS[name]() == want


def test_view_keeps_the_key_and_component_order_of_the_input():
    # keys and components neither sorted nor reversed; den = 6
    table = {(1, 2): {0: Q(1, 3), 3: ONE}, (0, 3): {2: Q(-1, 2)}, (0, 1): {3: 2, 1: ZERO, 2: 1}}
    g = LieAlgebra(4, table, check=False)
    assert g.pairs == ((1, 2), (0, 3), (0, 1))
    assert rows_in_order(g)[0] == [(3, [(2, -3)]), (1, [(3, 12), (2, 6)])]
    assert [(key, list(c.items())) for key, c in g.brackets.items()] == [
        ((1, 2), [(0, Q(1, 3)), (3, ONE)]), ((0, 3), [(2, Q(-1, 2))]), ((0, 1), [(3, 2), (2, 1)])]
    assert g.brackets is g.brackets  # built once, on first read


# --- one table: values on rational tables ---------------------------------------

FRACTIONAL = st.sampled_from([Q(1, 2), Q(-1, 2), Q(1, 3), Q(-2, 3), Q(1, 6), Q(-5, 6),
                              Q(3, 2), ONE, Q(-2)])


@st.composite
def rational_tables(draw):
    """A bracket table with denominators from 2, 3 and 6; Jacobi not required."""
    n = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(n), 2))
    table = {key: {k: draw(FRACTIONAL) for k in draw(st.lists(
                st.integers(0, n - 1), min_size=1, max_size=3, unique=True))}
             for key in draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))}
    return LieAlgebra(n, table, check=False)


def sparse_vectors(n):
    entry = st.sampled_from([ZERO, ZERO, ONE, Q(-1), Q(2), Q(1, 2), Q(-2, 3), Q(5, 6)])
    return st.lists(entry, min_size=n, max_size=n).map(sparse)


class TestOneTableMatchesFractionReference:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_table_is_brackets_times_den_in_both_orders(self, data):
        g = data.draw(rational_tables())
        den = math.lcm(*[c.denominator for comps in g.brackets.values() for c in comps.values()])
        assert g.den == den
        ref = reference_ad_table(g)
        for i, j in itertools.product(range(g.dim), repeat=2):
            row = g.table[i].get(j, {})
            assert row == {k: c * den for k, c in ref[i].get(j, {}).items()}
            assert row == {k: -x for k, x in g.table[j].get(i, {}).items()}

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_bracket_sparse(self, data):
        g = data.draw(rational_tables())
        x, y = data.draw(sparse_vectors(g.dim)), data.draw(sparse_vectors(g.dim))
        got = g.bracket_sparse(x, y)
        assert got == reference_bracket_sparse(g, x, y)
        assert all(type(c) is Fraction for c in got.values())

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_killing_form(self, data):
        g = data.draw(rational_tables())
        got = g.killing_form()
        assert got == reference_killing_form(g)
        assert all(type(c) is Fraction for row in got.data for c in row)

    @pytest.mark.parametrize("name", ["L7/3", "sl2/2,3", "so3+L5/2"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_is_derivation(self, name, data):
        g = LIE_ALGEBRAS[name]()
        basis = derivation_space(g).basis
        d = {}
        for vec in data.draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3)):
            f = data.draw(FRACTIONAL)
            for e, x in vec.items():
                d[e] = d.get(e, ZERO) + f * x
        if data.draw(st.booleans()):  # perturb one entry: mostly a non-derivation
            e = (data.draw(st.integers(0, g.dim - 1)), data.draw(st.integers(0, g.dim - 1)))
            d[e] = d.get(e, ZERO) + data.draw(FRACTIONAL)
        want = reference_is_derivation(g, d)
        assert is_derivation(g, d) == want
        assert is_derivation(g, Matrix([[d.get((r, c), ZERO) for c in range(g.dim)]
                                        for r in range(g.dim)])) == want


# --- center and upper_central_series ----------------------------------------------

def center(g):
    """Z(g), the preimage of 0 under the int table rows."""
    return _preimage(g.table, Subspace(g.dim))


def reference_preimage_of_center(g, z):
    """_preimage(g.table, z) over Q: the int table rows reduced with Fractions."""
    return kernel_of([
        {(j, k): c for j, comps in row.items() for k, c in residue_q(z, comps).items()}
        for row in g.table
    ])


def reference_upper_central_series(g):
    series = [Subspace(g.dim)]
    while True:
        nxt = reference_preimage_of_center(g, series[-1])
        if nxt.dim == series[-1].dim:
            return series
        series.append(nxt)
        if nxt.dim == g.dim:
            return series


def bidiagonal(n, f):
    return Matrix([[1 if i == j else f if j == i + 1 else 0 for j in range(n)] for i in range(n)])


CENTRAL = {
    **LIE_ALGEBRAS,
    # rows of pivot entry 16, 8 and 4 in its upper central series: residues carry d > 1
    "L5+h3 in I + 2N": lambda: direct_sum(fixtures.standard_filiform(5), fixtures.heisenberg3())
                              .change_basis(bidiagonal(8, 2)),
    "L5+h3 in I + N/2": lambda: direct_sum(fixtures.standard_filiform(5), fixtures.heisenberg3())
                               .change_basis(bidiagonal(8, Q(1, 2))),
}


def reference_lower_central_series(g):
    """lower_central_series as it bracketed the Fraction rows of each term."""
    series = [Subspace(g.dim, ({i: ONE} for i in range(g.dim)))]
    while True:
        prev = series[-1]
        nxt = Subspace(g.dim)
        for v in q_rows(prev).values():
            for i in range(g.dim):
                nxt.add(g.bracket_int(i, v))
        series.append(nxt)
        if nxt.dim == prev.dim:
            return series[:-1]
        if nxt.dim == 0:
            return series


def reference_is_ideal(g, s):
    return all(s.contains(g.bracket_int(i, v)) for v in q_rows(s).values() for i in range(g.dim))


class TestCentralSeriesMatchesFractionReference:
    @pytest.mark.parametrize("name", sorted(CENTRAL))
    def test_upper_central_series(self, name):
        g = CENTRAL[name]()
        want = reference_upper_central_series(g)
        for z in want:  # step by step first: a wrong step fails here instead of looping
            assert _preimage(g.table, z) == reference_preimage_of_center(g, z)
        got = g.upper_central_series()
        assert got == want
        assert [s.rows for s in got] == [s.rows for s in want]
        assert center(g) == reference_preimage_of_center(g, Subspace(g.dim))

    @pytest.mark.parametrize("name", sorted(CENTRAL))
    def test_lower_central_series_and_ideal_test(self, name):
        g = CENTRAL[name]()
        got, want = g.lower_central_series(), reference_lower_central_series(g)
        assert got == want
        assert [s.rows for s in got] == [s.rows for s in want]
        # every term is an ideal; a line through one basis vector mostly is not
        lines = [Subspace(g.dim, [{i: ONE}]) for i in range(g.dim)]
        for s in got + g.upper_central_series() + lines:
            assert g._is_ideal(s) == reference_is_ideal(g, s)
        assert all(g._is_ideal(s) for s in got)

    def test_lower_central_series_of_a_large_filiform_algebra(self):
        g = scaled(fixtures.standard_filiform(40), Q(2, 3))
        got = g.lower_central_series()
        assert got == reference_lower_central_series(g)
        assert [s.dim for s in got] == [40] + list(range(38, -1, -1))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_center(self, data):
        g = data.draw(rational_tables())
        z = center(g)
        assert z == reference_preimage_of_center(g, Subspace(g.dim))
        assert all(type(x) is int for v in z.int_kernel() for x in v.values())


# --- quotient ----------------------------------------------------------------

QUOTIENTS = {
    "h3/center": lambda: (fixtures.heisenberg3(), lambda g: center(g)),
    "L6/g^2": lambda: (fixtures.standard_filiform(6), lambda g: g.lower_central_series()[2]),
    "n6/center": lambda: (fixtures.n6(), lambda g: center(g)),
    "sl2+a2/a2": lambda: (direct_sum(sl2_with_halves(), abelian(2)),
                          lambda g: Subspace(5, [{3: ONE}, {4: ONE}])),
    "free-3-3/[v1,v3]": lambda: (free_nilpotent(3, 3)[0],
                                 lambda g: reference_ideal_closure(g, [bracket_basis(g, 0, 2)])),
    # brackets stored in reverse key order: the quotient's are still in key order
    "n6-reversed/center": lambda: (LieAlgebra(6, dict(reversed(fixtures.n6().brackets.items()))),
                                   lambda g: center(g)),
}


class TestQuotientMatchesFractionReference:
    @pytest.mark.parametrize("name", sorted(QUOTIENTS))
    def test_same_quotient(self, name):
        g, make_ideal = QUOTIENTS[name]()
        ideal = make_ideal(g)
        q, project = g.quotient(ideal)
        ref, ref_project = reference_quotient(g, ideal)
        assert_same_algebra(q, ref)
        assert_rebuilds(q)
        assert_same_projection(project, ref_project, g.dim, random.Random(0))

    @pytest.mark.parametrize("name", sorted(LIE_ALGEBRAS))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_same_ideal_closure(self, name, data):
        # quotient by the ideal that random vectors generate, dense or sparse
        g = LIE_ALGEBRAS[name]()
        entry = st.sampled_from([ZERO, ZERO, ZERO, ONE, Q(-2), Q(1, 2), Q(2, 3)])
        vectors = data.draw(st.lists(st.lists(entry, min_size=g.dim, max_size=g.dim),
                                     min_size=1, max_size=2))
        dense = [tuple(v) for v in vectors]
        ideal = reference_ideal_closure(g, dense)
        assert reference_ideal_closure(g, [sparse(v) for v in dense]) == ideal
        q, project = g.quotient(ideal)
        ref, ref_project = reference_quotient(g, ideal)
        # components come in Subspace.residue's order, the reference's sorted,
        # and these ideals reach residues where the two differ
        assert (q.dim, q.names, list(q.brackets)) == (ref.dim, ref.names, list(ref.brackets))
        assert q.brackets == ref.brackets
        assert all(type(x) is Fraction for comps in q.brackets.values() for x in comps.values())
        assert_same_projection(project, ref_project, g.dim, random.Random(0))
