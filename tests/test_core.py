"""Differential tests of the sparse core: Subspace, bracket_sparse and the
routines built on them, against sympy and dense formulas written here."""

import itertools

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nicebasis import fixtures
from nicebasis.derivations import derivation_space, is_derivation
from nicebasis.graphs import GraphSpec, free_nilpotent, graph_algebra
from nicebasis.linalg import Matrix, Subspace, dense
from nicebasis.scalars import Q
from test_integer_table import q_rows, reference_ideal_closure, sparse, sparse_kernel

# mostly zeros, so that rank drops and sparse paths are exercised
entries = st.one_of(st.just(Q(0)), st.just(Q(0)),
                    st.builds(Q, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def matrices(draw, rows=st.integers(1, 5), cols=st.integers(1, 6)):
    r, c = draw(rows), draw(cols)
    vals = draw(st.lists(entries, min_size=r * c, max_size=r * c))
    return Matrix([vals[i * c:(i + 1) * c] for i in range(r)])


def vectors(n):
    return st.lists(entries, min_size=n, max_size=n).map(tuple)


@st.composite
def invertible(draw, n):
    """A row permutation of L U, L lower and U upper triangular, nonzero diagonals."""
    nonzero = st.builds(Q, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    low = [[draw(nonzero) if i == j else draw(entries) if i > j else Q(0)
             for j in range(n)] for i in range(n)]
    up = [[draw(nonzero) if i == j else draw(entries) if i < j else Q(0)
            for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    lu = Matrix(low) * Matrix(up)
    return Matrix([lu.data[perm[i]] for i in range(n)])


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(
        int(m[i, j].numerator), int(m[i, j].denominator)))


def from_sympy(v):
    return tuple(Q(int(x.p), int(x.q)) for x in v)


class TestSubspaceVsSympy:
    @given(matrices())
    def test_basis_is_sympy_rref(self, m):
        s = Subspace(m.cols, m.data)
        reduced, pivots = to_sympy(m).rref()
        assert s.pivots == list(pivots)
        assert [dense(q_rows(s)[p], s.ambient) for p in s.pivots] == \
            [from_sympy(reduced.row(i)) for i in range(len(pivots))]

    @given(matrices())
    def test_sparse_input_gives_the_same_rows(self, m):
        assert Subspace(m.cols, map(sparse, m.data)) == Subspace(m.cols, m.data)

    @given(matrices())
    def test_kernel_spans_sympy_nullspace(self, m):
        kernel = sparse_kernel(Subspace(m.cols, m.data))
        want = [from_sympy(v) for v in to_sympy(m).nullspace()]
        assert len(kernel) == len(want)
        assert Subspace(m.cols, kernel) == Subspace(m.cols, want)

    @given(matrices(), st.data())
    def test_reduce_is_zero_exactly_on_the_span(self, m, data):
        s = Subspace(m.cols, m.data)
        v = data.draw(vectors(m.cols))
        inside = to_sympy(Matrix(list(m.data) + [v])).rank() == to_sympy(m).rank()
        assert s.contains(v) == inside
        assert not set(s.residue(v)[0]) & set(s.pivots)


nonzero_q = st.builds(Q, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def sparse_batches(draw):
    """An ambient size and a list of sparse rational vectors in it."""
    n = draw(st.integers(1, 9))
    vec = st.dictionaries(st.integers(0, n - 1), nonzero_q, max_size=4)
    return n, draw(st.lists(vec, min_size=1, max_size=12))


class TestColumnIndex:
    @given(sparse_batches())
    @settings(max_examples=150)
    def test_index_and_rows_after_random_adds(self, batch):
        n, vecs = batch
        s = Subspace(n)
        for v in vecs:
            s.add(v)
        m = to_sympy(Matrix([dense(v, n) for v in vecs]))
        reduced, pivots = m.rref()
        assert s.pivots == list(pivots)
        assert [dense(q_rows(s)[p], s.ambient) for p in s.pivots] == \
            [from_sympy(reduced.row(i)) for i in range(len(pivots))]
        # the canonical kernel basis is sympy's, vector for vector
        want = [from_sympy(v) for v in m.nullspace()]
        assert [sparse(v) for v in want] == sparse_kernel(s)


def dense_bracket(g, x, y):
    """[x, y] by the bilinear formula over the stored pairs i < j."""
    out = [Q(0)] * g.dim
    for (i, j), comps in g.brackets.items():
        coeff = x[i] * y[j] - x[j] * y[i]
        for k, c in comps.items():
            out[k] += coeff * c
    return tuple(out)


def unit(n, i):
    return tuple(Q(int(t == i)) for t in range(n))


ALGEBRAS = {
    "sl2": fixtures.sl2(),
    "h3": fixtures.heisenberg3(),
    "l5": fixtures.standard_filiform(5),
    "n6": fixtures.n6(),
    "free-2-4": free_nilpotent(2, 4)[0],
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@given(data=st.data())
@settings(max_examples=40)
def test_bracket_sparse_matches_dense_formula(name, data):
    g = ALGEBRAS[name]
    x, y = data.draw(vectors(g.dim)), data.draw(vectors(g.dim))
    want = dense_bracket(g, x, y)
    assert g.bracket_sparse(sparse(x), sparse(y)) == sparse(want)
    assert g.bracket(x, y) == want


@pytest.mark.parametrize("name", ["sl2", "h3", "l5", "free-2-4"])
@given(data=st.data())
@settings(max_examples=25)
def test_change_basis_matches_dense_reference(name, data):
    g = ALGEBRAS[name]
    n = g.dim
    p = data.draw(invertible(n))
    pinv = to_sympy(p).inv()
    h = g.change_basis(p)
    for i, j in itertools.combinations(range(n), 2):
        w = dense_bracket(g, p.apply(unit(n, i)), p.apply(unit(n, j)))
        want = from_sympy(pinv * sympy.Matrix([sympy.Rational(str(x)) for x in w]))
        assert h.brackets.get((i, j), {}) == sparse(want)


def dense_is_derivation(g, d):
    n = g.dim
    for i, j in itertools.combinations(range(n), 2):
        ei, ej = unit(n, i), unit(n, j)
        lhs = d.apply(dense_bracket(g, ei, ej))
        rhs = [a + b for a, b in zip(dense_bracket(g, d.apply(ei), ej),
                                     dense_bracket(g, ei, d.apply(ej)))]
        if list(lhs) != rhs:
            return False
    return True


@pytest.mark.parametrize("name", ["sl2", "h3", "l5", "n6"])
@given(data=st.data())
@settings(max_examples=30)
def test_is_derivation_matches_dense_check(name, data):
    g = ALGEBRAS[name]
    n = g.dim
    der = derivation_space(g).basis
    # a random combination of derivations, sometimes perturbed by a random matrix
    coeffs = data.draw(st.lists(entries, min_size=len(der), max_size=len(der)))
    entries_d = [[Q(0)] * n for _ in range(n)]
    for c, b in zip(coeffs, der):
        for (r, k), x in b.items():
            entries_d[r][k] += c * x
    d = Matrix(entries_d)
    if data.draw(st.booleans()):
        d = d + Matrix([data.draw(vectors(n)) for _ in range(n)])
    want = dense_is_derivation(g, d)
    assert is_derivation(g, d) == want
    as_map = {(r, k): d[r, k] for r in range(n) for k in range(n) if d[r, k]}
    assert is_derivation(g, as_map) == want


def _graph_representatives(v):
    """One edge set per isomorphism class of graphs on v labelled vertices."""
    pairs = list(itertools.combinations(range(v), 2))
    seen, reps = set(), []
    for bits in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
        forms = {tuple(sorted(tuple(sorted((s[a], s[b]))) for a, b in edges))
                 for s in itertools.permutations(range(v))}
        if not forms & seen:
            seen |= forms
            reps.append(edges)
    return reps


@pytest.mark.parametrize("v,c", [(4, 3), (4, 4), (5, 3), (5, 4)])
def test_generator_closure_matches_full_ideal_closure(v, c):
    # The generator-only ideal lies inside the full closure, so equal pivot
    # sets mean equal ideals.  Both closures commute with relabelling the
    # vertices, so one graph per isomorphism class covers every graph.
    free, basis = free_nilpotent(v, c)
    index = {w: i for i, w in enumerate(basis.words)}
    for edges in _graph_representatives(v):
        g = GraphSpec.of(v, edges, c)
        non_edges = [(a, b) for a, b in itertools.combinations(range(v), 2)
                     if not g.has_edge(a, b)]
        full = reference_ideal_closure(free, [free.brackets.get((a, b), {})
                                              for a, b in non_edges])
        words = graph_algebra(g)[1]
        kept = {index[w] for w in words}
        assert set(full.pivots) == set(range(free.dim)) - kept, edges
