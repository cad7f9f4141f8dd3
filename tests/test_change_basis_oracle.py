"""change_basis summed over the bracket support against the all-pairs loop.

reference_change_basis is the earlier implementation, kept verbatim: it
brackets every pair of columns and reduces each bracket through the tagged
Subspace.  The support-driven change_basis must return the same table, with
the same key order, the same values and every value a Fraction.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nicebasis import (
    GraphSpec,
    catalog,
    construct_nice_basis,
    graph_algebra,
    indecomposable_family,
    load_lie,
)
from nicebasis.almost_abelian import _witness_basis, analyze, build
from nicebasis.lie import LieAlgebra
from nicebasis.linalg import Matrix, Subspace, sparse_columns
from nicebasis.scalars import ONE

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
LIE_FILES = sorted(FIXTURES.glob("*.lie"))


def reference_change_basis(self, p: Matrix):
    """Structure constants in the basis of p's columns.  Column j is tagged with
    coordinate n + j in one Subspace: w = sum x_j p_j reduces to -sum x_j e_(n+j)."""
    n = self.dim
    cols = sparse_columns(p)
    tagged = Subspace(2 * n, ({**c, n + j: ONE} for j, c in enumerate(cols)))
    if (p.rows, p.cols) != (n, n) or tagged.pivots != list(range(n)):
        raise ValueError("change of basis needs an invertible n x n matrix")
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            r = tagged.reduce(self.bracket_sparse(cols[i], cols[j]))
            if r:
                table[(i, j)] = {t - n: -r[t] for t in sorted(r)}
    return LieAlgebra(n, table, check=False)


def assert_same_table(g, p):
    got = g.change_basis(p)
    want = reference_change_basis(g, p)
    assert list(got.brackets.items()) == list(want.brackets.items())
    for comps in got.brackets.values():
        assert list(comps) == sorted(comps)
        assert all(type(x) is Fraction for x in comps.values())
    return got


def signed_permutation(n):
    # column j is (-1)^j e_((n - j) mod n): a reversal and a shift
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[(n - j) % n][j] = (-1) ** j
    return Matrix(rows)


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
        entry = st.one_of(st.integers(-3, 3), st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]))
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
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
    alg, _, _ = graph_algebra(g)
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

