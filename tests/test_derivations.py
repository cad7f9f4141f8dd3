import random
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from sympy.polys.matrices import DomainMatrix

from nicebasis.derivations import (
    derivation_space,
    diagonal_derivations,
    is_derivation,
    pre_einstein_nice,
    pre_einstein_general_check,
    ln_closed_form,
    spectra_disjoint,
    nu_product_rule,
    simple_spectrum_unique,
    DerivationSpace,
    NotNiceBasis,
    PreEinstein,
)
from nicebasis.almost_abelian import count_nice
from nicebasis.graphs import GraphSpec, graph_algebra, load_graph
from nicebasis.lie import LieAlgebra, direct_sum, abelian, load_lie
from nicebasis.linalg import Matrix, Subspace, dense, is_positive_definite, solve
from nicebasis.nice import check_nice, roots
from nicebasis.scalars import Q, ZERO, rat
from nicebasis import derivations, fixtures, linalg
from test_certification_oracle import refuse_basis
from test_integer_table import LIE_ALGEBRAS, bracket_basis, rational_tables, sparse_kernel


def sympy_derivation_dim(g):
    """Independent count of dim Der(g) via sympy nullspace."""
    n = g.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            bij = bracket_basis(g, i, j)
            for k in range(n):
                row = [0] * (n * n)
                row[k * n + i] = row[k * n + i]
                # D[x_i,x_j]_k = sum_m c_ij^m D_km
                for m, c in bij.items():
                    row[k * n + m] += sympy.Rational(str(c))
                # -[Dx_i, x_j]_k - [x_i, Dx_j]_k
                for m in range(n):
                    cmj = bracket_basis(g, m, j) if m < j else \
                        {t: -c for t, c in bracket_basis(g, j, m).items()}
                    row[m * n + i] -= sympy.Rational(str(cmj.get(k, 0)))
                    cim = bracket_basis(g, i, m) if i < m else \
                        {t: -c for t, c in bracket_basis(g, m, i).items()}
                    row[m * n + j] -= sympy.Rational(str(cim.get(k, 0)))
                rows.append(row)
    # sympy's sparse field elimination; Matrix.rank takes seconds at n = 12
    m = DomainMatrix.from_Matrix(sympy.Matrix(rows)).to_field()
    return n * n - m.rank()


def dense_derivation_space(g):
    """Der(g) by the dense construction that derivation_space replaced.

    Every m runs through the equation loop, the kernel comes back dense and
    each derivation is an n x n Matrix.  Kept here as the oracle that pins
    the sparse construction to the same canonical basis.
    """
    n = g.dim

    def var(r, c):
        return r * n + c

    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = bracket_basis(g, i, j)
            eq = {}
            for k, c in cij.items():
                for r in range(n):
                    eq.setdefault(r, {})[var(r, k)] = (
                        eq.get(r, {}).get(var(r, k), ZERO) + c
                    )
            for m in range(n):
                cmj = bracket_basis(g, m, j)
                for r, c in cmj.items():
                    eq.setdefault(r, {})[var(m, i)] = (
                        eq.get(r, {}).get(var(m, i), ZERO) - c
                    )
                cim = bracket_basis(g, i, m)
                for r, c in cim.items():
                    eq.setdefault(r, {})[var(m, j)] = (
                        eq.get(r, {}).get(var(m, j), ZERO) - c
                    )
            rows.extend(eq.values())
    kernel = sparse_kernel(Subspace(n * n, rows))
    return [Matrix([[v.get(r * n + c, ZERO) for c in range(n)] for r in range(n)])
            for v in kernel]


def signed_filiform(sizes, seed):
    """L_a + L_b + ... with its basis rescaled by seeded signs."""
    rng = random.Random(seed)
    signs = [1] + [rng.choice((1, -1)) for _ in range(sum(sizes) - 1)]
    table, offset = {}, 0
    for n in sizes:
        for i in range(offset + 1, offset + n - 1):
            table[(offset, i)] = {i + 1: signs[offset] * signs[i] * signs[i + 1]}
        offset += n
    return LieAlgebra(offset, table)


ORACLE_ALGEBRAS = {
    **{f"L{n}": (lambda n=n: signed_filiform((n,), n)) for n in range(5, 13)},
    "L4+L5": lambda: signed_filiform((4, 5), 1),
    "L5+L6": lambda: signed_filiform((5, 6), 2),
    "path3-class3": lambda: graph_algebra(GraphSpec.of(3, [(0, 1), (1, 2)], 3))[0],
    "square-class2": lambda: graph_algebra(
        GraphSpec.of(4, [(0, 1), (1, 2), (2, 3), (3, 0)], 2))[0],
    "sl2": fixtures.sl2,
    "so3": fixtures.so3,
    # basis rescaled by 1/3: structure constants 1/3, cleared before elimination
    "L7/3": lambda: signed_filiform((7,), 7).change_basis(
        Matrix.identity(7) * Q(1, 3)),
}


class TestSparseMatchesDenseOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
    def test_same_canonical_basis(self, name):
        g = ORACLE_ALGEBRAS[name]()
        n = g.dim
        space = derivation_space(g)
        assert all(x and 0 <= r < n and 0 <= c < n
                   for d in space.basis for (r, c), x in d.items())
        as_matrices = [
            Matrix([[d.get((r, c), ZERO) for c in range(n)] for r in range(n)])
            for d in space.basis
        ]
        assert as_matrices == dense_derivation_space(g)

    @pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
    def test_dimension_is_sympy_corank(self, name):
        g = ORACLE_ALGEBRAS[name]()
        assert derivation_space(g).dim == sympy_derivation_dim(g)


class TestDerivationSpace:
    @pytest.mark.parametrize("make", [
        fixtures.heisenberg3,
        lambda: fixtures.standard_filiform(4),
        lambda: fixtures.standard_filiform(5),
        fixtures.sl2,
    ])
    def test_dimension_matches_sympy(self, make):
        g = make()
        assert derivation_space(g).dim == sympy_derivation_dim(g)

    def test_members_are_derivations(self):
        g = fixtures.n6()
        space = derivation_space(g)
        for d in space.basis:
            assert is_derivation(g, d)

    def test_the_system_vanishes_exactly_on_the_space(self, monkeypatch):
        g = fixtures.heisenberg3()
        space = derivation_space(g)
        # the system is read without building a basis
        monkeypatch.setattr(DerivationSpace, "basis", property(refuse_basis))
        assert system_vanishes(space, {(0, 0): rat(1), (1, 1): rat(1), (2, 2): rat(2)})
        assert not system_vanishes(space, {(0, 0): rat(1), (1, 1): rat(1), (2, 2): rat(1)})
        assert not system_vanishes(space, {(0, 0): rat(1)})

    def test_the_weighted_system_leaves_out_other_weights(self, monkeypatch):
        g = fixtures.standard_filiform(5)
        space = derivation_space(g, [1, 2, 3, 4, 5])  # Der(g)_0: the diagonal
        monkeypatch.setattr(DerivationSpace, "basis", property(refuse_basis))
        ad_e1 = {(2, 1): 1, (3, 2): 1, (4, 3): 1}  # a derivation of weight 1, outside the blocks
        assert is_derivation(g, ad_e1) and not system_vanishes(space, ad_e1)
        assert system_vanishes(space, {(i, i): i + 1 for i in range(5)})
        assert not system_vanishes(space, {(0, 0): 1})

    @pytest.mark.parametrize("d,message", [
        ({(5, 5): 1}, r"entry \(5, 5\) out of range 0..2"),
        ({(0, 0): 1, (0, 3): 1}, r"entry \(0, 3\) out of range 0..2"),
        ({(-1, 0): 1}, r"entry \(-1, 0\) out of range 0..2"),
        (Matrix.diagonal([rat(1), rat(1), rat(2), rat(3)]), r"entry \(3, 3\) out of range 0..2"),
        ({(5, 5): Q(1)}, r"entry \(5, 5\) out of range 0..2"),
        ({(0, 3): Q(1)}, r"entry \(0, 3\) out of range 0..2"),
        (Matrix.diagonal([1, 1]), "matrix is 2 x 2, need 3 x 3"),
        (Matrix.zeros(3, 4), "matrix is 3 x 4, need 3 x 3"),
    ], ids=["both", "column", "negative", "matrix-4x4", "both-Q", "column-Q", "matrix-2x2",
            "matrix-3x4"])
    def test_entries_outside_the_matrix_are_refused(self, d, message):
        # is_derivation reads d through _entries; before, it raised IndexError on
        # (5, 5) and answered False on (0, 3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            is_derivation(fixtures.heisenberg3(), d)

    @pytest.mark.parametrize("weights", [[0, 0], [0, 0, 0, 0]], ids=["short", "long"])
    def test_weights_of_the_wrong_length_are_refused(self, weights):
        with pytest.raises(ValueError, match="need 3 weights"):
            derivation_space(fixtures.heisenberg3(), weights)

    def test_diagonal_subspace(self):
        g = fixtures.standard_filiform(4)
        diag = diagonal_derivations(g)
        assert len(diag) == 2


class TestPreEinstein:
    def test_heisenberg_values(self):
        pe = pre_einstein_nice(fixtures.heisenberg3())
        assert tuple(pe.matrix[i, i] for i in range(3)) == \
            (Q(2, 3), Q(2, 3), Q(4, 3))

    def test_filiform_closed_form(self):
        for n in range(3, 12):
            pe = pre_einstein_nice(fixtures.standard_filiform(n))
            d1, d2 = ln_closed_form(n)
            expect = (d1, d2) + tuple(k * d1 + d2 for k in range(1, n - 1))
            assert tuple(pe.matrix[i, i] for i in range(n)) == expect

    def test_closed_form_denominator(self):
        d1, d2 = ln_closed_form(5)
        assert d1 == Q(12, 72)
        assert d2 == Q(54, 72)

    def test_requires_nice_basis(self):
        with pytest.raises(NotNiceBasis):
            pre_einstein_nice(fixtures.n6())

    def test_multiplicities_count_the_spectrum_in_increasing_order(self):
        accepted = 0
        for path in sorted(FIXTURES.glob("*.lie")):
            try:
                pe = pre_einstein_nice(load_lie(path))
            except NotNiceBasis:
                continue
            accepted += 1
            mult = pe.multiplicities()
            assert mult == Counter(pe.spectrum)
            assert list(mult) == sorted(mult)
        assert accepted == 12  # all but n6

    def test_general_check_accepts_known_diagonal(self):
        ok, why = pre_einstein_general_check(
            fixtures.n6(), [Q(9, 32) * k for k in (1, 2, 3, 3, 4, 5)])
        assert ok and why is None

    def test_general_check_rejects_wrong_scale(self):
        ok, why = pre_einstein_general_check(
            fixtures.n6(), [rat(k) for k in (1, 2, 3, 3, 4, 5)])
        assert not ok
        assert why[0] == "trace"

    def test_general_check_rejects_non_derivation(self):
        ok, why = pre_einstein_general_check(
            fixtures.heisenberg3(), [rat(1), rat(2), rat(1)])
        assert not ok
        assert why[0] == "not_derivation"

    @pytest.mark.parametrize("diag", [[1, 2], [1, 2, 3, 4]], ids=["short", "long"])
    def test_general_check_refuses_a_diagonal_of_the_wrong_length(self, diag):
        # a short diagonal read as a 2x2 N on h3 came back as "not_derivation"
        with pytest.raises(ValueError, match="need 3 weights"):
            pre_einstein_general_check(fixtures.heisenberg3(), diag)

    def test_direct_sum_is_block_sum(self):
        a, b = fixtures.heisenberg3(), fixtures.standard_filiform(4)
        pe = pre_einstein_nice(direct_sum(a, b))
        pa, pb = pre_einstein_nice(a), pre_einstein_nice(b)
        diag = [pe.matrix[i, i] for i in range(7)]
        assert diag[:3] == [pa.matrix[i, i] for i in range(3)]
        assert diag[3:] == [pb.matrix[i, i] for i in range(4)]

    def test_output_always_passes_general_check(self):
        for g in (fixtures.heisenberg3(), fixtures.standard_filiform(6),
                  direct_sum(fixtures.heisenberg3(), abelian(2))):
            pe = pre_einstein_nice(g)
            ok, _ = pre_einstein_general_check(
                g, [pe.matrix[i, i] for i in range(g.dim)])
            assert ok


class TestCountingRules:
    def pe(self, spectrum):
        n = len(spectrum)
        return PreEinstein(Matrix.diagonal(list(spectrum)), tuple(sorted(spectrum)))

    def test_product_when_disjoint(self):
        parts = [(self.pe([rat(1), rat(2)]), 2),
                 (self.pe([rat(3)]), 3)]
        assert nu_product_rule(parts) == 6

    def test_zero_short_circuits(self):
        parts = [(self.pe([rat(1)]), 0), (self.pe([rat(2)]), None)]
        assert nu_product_rule(parts) == 0

    def test_overlap_is_inapplicable(self):
        h3 = pre_einstein_nice(fixtures.heisenberg3())
        assert nu_product_rule([(h3, 1), (h3, 1)]) is None

    def test_unknown_factor_propagates(self):
        parts = [(self.pe([rat(1)]), None), (self.pe([rat(2)]), 1)]
        assert nu_product_rule(parts) is None

    def test_single_factor(self):
        assert nu_product_rule([(self.pe([rat(1)]), 7)]) == 7

    def test_spectra_disjoint(self):
        a = self.pe([rat(1), rat(2)])
        b = self.pe([rat(3)])
        assert spectra_disjoint(a, b)
        assert not spectra_disjoint(a, a)

    def test_simple_spectrum(self):
        l5 = pre_einstein_nice(fixtures.standard_filiform(5))
        assert simple_spectrum_unique(l5) == 1
        h3 = pre_einstein_nice(fixtures.heisenberg3())
        assert simple_spectrum_unique(h3) is None

    def test_abelian_extension_rewrite(self):
        # an abelian factor R^m turns A into the block-diagonal A + 0_m
        for a, nu in ((fixtures.matrix_cyclic(4), 3), (fixtures.matrix_c(), 1)):
            k = a.rows
            for m in (1, 2, 3):
                padded = Matrix([list(row) + [0] * m for row in a.data]
                                + [[0] * (k + m)] * m)
                assert count_nice(padded) == count_nice(a) == nu


# --- the diagonal system is derivation_space at distinct weights, ker Y -------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def reference_diagonal_system(g):
    """The span of the root matrix Y, built from the table: a row e_i + e_j - e_k per
    nonzero c_ij^k, i < j, the equation x_i + x_j = x_k of Dg(x) a derivation."""
    rows = []
    for i, j in g.pairs:
        for k in g.table[i][j]:
            eq = {i: 1, j: 1}
            eq[k] = eq.get(k, 0) - 1
            rows.append(eq)
    return Subspace(g.dim, rows)


def reference_pre_einstein_diagonal(g):
    """N's diagonal from the Gram system of the reference kernel, over Q."""
    diag = sparse_kernel(reference_diagonal_system(g))
    gram = Matrix([[sum(x * b.get(i, 0) for i, x in a.items()) for b in diag] for a in diag])
    coeffs = solve(gram, [sum(v.values()) for v in diag]) if diag else []
    return tuple(sum((c * v.get(i, 0) for c, v in zip(coeffs, diag)), ZERO)
                 for i in range(g.dim))


DIAGONAL_ALGEBRAS = {
    **{p.name: (lambda p=p: load_lie(p)) for p in sorted(FIXTURES.glob("*.lie"))},
    **{p.name: (lambda p=p: graph_algebra(load_graph(p))[0])
       for p in sorted(FIXTURES.glob("*.graph"))},
    **ORACLE_ALGEBRAS,
    **LIE_ALGEBRAS,
    **{f"L{n}": (lambda n=n: fixtures.standard_filiform(n)) for n in (20, 40, 60)},
    "L10+L12": lambda: direct_sum(fixtures.standard_filiform(10), fixtures.standard_filiform(12)),
    "path4-class3": lambda: graph_algebra(GraphSpec.of(4, [(0, 1), (1, 2), (2, 3)], 3))[0],
}


def root_rows(g):
    """Y as dense int rows, e_i + e_j - e_k per root (i, j, k)."""
    rows = []
    for i, j, k in roots(g):
        row = [0] * g.dim
        row[i] += 1
        row[j] += 1
        row[k] -= 1
        rows.append(row)
    return rows


def y_kills(g, x):
    """Y x = 0, the derivation test of _certify."""
    return not any(x[k] != x[i] + x[j] for i, j, k in roots(g))


def assert_root_lemmas(g):
    y = root_rows(g)
    assert sorted(roots(g)) == sorted((i, j, k) for (i, j), c in g.brackets.items() for k in c)
    assert [sum(row) for row in y] == [1] * len(y)  # Y 1 = [1]
    system = Subspace(g.dim, ({q: x for q, x in enumerate(row) if x} for row in y))
    assert system == derivation_space(g, range(g.dim)).system
    rng = random.Random(g.dim)
    kernel = diagonal_derivations(g)
    maps = [[0] * g.dim, *kernel, *([rng.randint(-3, 3) for _ in range(g.dim)] for _ in range(6))]
    for x in kernel:  # a derivation bent at one entry, mostly not one
        bent = list(x)
        bent[rng.randrange(g.dim)] += Q(1, rng.choice((1, 2, 3)))
        maps.append(bent)
    for x in maps:
        want = is_derivation(g, {(i, i): v for i, v in enumerate(x) if v})
        assert y_kills(g, x) == want
    assert all(y_kills(g, x) for x in kernel)


def assert_diagonal_rule_is_the_reference(g):
    system = derivation_space(g, range(g.dim)).system
    assert system == reference_diagonal_system(g)
    assert diagonal_derivations(g) == [dense(v, g.dim) for v in sparse_kernel(system)]
    assert_root_lemmas(g)


class TestDiagonalSystemMatchesReference:
    @pytest.mark.parametrize("name", sorted(DIAGONAL_ALGEBRAS))
    def test_fixture_and_graph_algebras(self, name):
        g = DIAGONAL_ALGEBRAS[name]()
        assert_diagonal_rule_is_the_reference(g)
        if check_nice(g):
            diag = pre_einstein_nice(g).matrix
            got = tuple(diag[i, i] for i in range(g.dim))
            assert got == reference_pre_einstein_diagonal(g)
            assert all(type(x) is Fraction for x in got)

    @given(rational_tables())
    @settings(max_examples=80, deadline=None)
    def test_random_tables(self, g):
        assert_diagonal_rule_is_the_reference(g)


def counterexample7():
    """[e1, e_i] = e_(i+1), i = 2..6, [e2, e5] = e7, [e3, e4] = -e7: nice with N > 0, yet
    every v with Y Y^T v = [1] is -1/5 on the root of [e1, e6] = e7, so none is > 0."""
    brackets = {(0, i): {i + 1: 1} for i in range(1, 6)}
    return LieAlgebra(7, {**brackets, (1, 4): {6: 1}, (2, 3): {6: -1}})


ROOT_WEIGHT_ALGEBRAS = {
    **{f"L{n}": (lambda n=n: fixtures.standard_filiform(n)) for n in (*range(3, 11), 20)},
    **{name: (lambda name=name: load_lie(FIXTURES / name))
       for name in ("h3.lie", "n7_extension.lie", "sl2.lie", "so3.lie")},
    **{name: (lambda name=name: graph_algebra(load_graph(FIXTURES / name))[0])
       for name in ("p3_c2.graph", "p3_c3.graph")},
    "counterexample7": counterexample7,
}


def root_weights(g):
    """(v, w): v = solve(Y Y^T, [1]), which Y 1 = [1] makes consistent, and w = 1 - Y^T v."""
    y = root_rows(g)
    v = solve(Matrix([[sum(a * b for a, b in zip(r, s)) for s in y] for r in y]), [1] * len(y))
    return v, tuple(1 - sum(c * row[i] for c, row in zip(v, y)) for i in range(g.dim))


class TestRootMatrix:
    """The lemmas of nice.roots.  Y 1 = [1], the test Y x = 0 against is_derivation and
    the span of Y against derivation_space are checked by assert_root_lemmas, which
    TestDiagonalSystemMatchesReference runs on its algebras and random tables."""

    def test_a_root_with_its_target_in_the_pair(self):
        g = fixtures.sl2()  # [e1, e2] = 2 e2, [e1, e3] = -2 e3
        assert roots(g) == ((0, 1, 1), (0, 2, 2), (1, 2, 0))
        assert root_rows(g) == [[1, 0, 0], [1, 0, 0], [-1, 1, 1]]

    def test_pairs_order(self):
        g = LieAlgebra(4, {(1, 2): {3: 1}, (0, 1): {2: 1}, (0, 2): {3: 1}})
        assert g.pairs == ((1, 2), (0, 1), (0, 2))
        assert roots(g) == ((1, 2, 3), (0, 1, 2), (0, 2, 3))

    @pytest.mark.parametrize("name", sorted(ROOT_WEIGHT_ALGEBRAS))
    def test_pre_einstein_weights_are_one_minus_y_transpose_v(self, name):
        g = ROOT_WEIGHT_ALGEBRAS[name]()
        assert check_nice(g)
        v, w = root_weights(g)
        diag = pre_einstein_nice(g).matrix
        assert w == tuple(diag[i, i] for i in range(g.dim))
        if name in ("L10", "counterexample7"):
            assert min(v) == {"L10": Q(4, 61), "counterexample7": Q(-1, 5)}[name]


# --- is_derivation evaluates the equations of derivation_space ------------------

def reference_is_derivation(g, d):
    """is_derivation as it summed its own differences, before it evaluated
    derivation_space's equations (verbatim, with the Matrix reading inlined).

    d is a Matrix or a sparse {(row, col): value} map of ints or Q, scaled
    once to ints by the lcm of its denominators.  The differences are summed
    from the nonzero brackets and columns of D only (O(nnz) if diagonal), off
    g's int table: one common scale, int sums, one zero test.
    """
    t = g.table
    entries = d
    if isinstance(d, Matrix):
        entries = {(r, c): x for c, col in enumerate(d.columns) for r, x in col.items()}
    den = lcm(*[x.denominator for x in entries.values()])
    cols = {}
    for (r, c), x in entries.items():
        cols.setdefault(c, {})[r] = x.numerator * (den // x.denominator)
    diff = {}  # (i, j) with i < j -> D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j]

    def add(i, j, vec, f):
        if i > j:  # the difference of (j, i) is minus that of (i, j)
            i, j, f = j, i, -f
        out = diff.setdefault((i, j), {})
        for k, x in vec.items():
            out[k] = out.get(k, 0) + f * x

    for i, j in g.pairs:
        for k, c in t[i][j].items():
            if k in cols:
                add(i, j, cols[k], c)
    for i, col in cols.items():
        for m, x in col.items():
            for j, comps in t[m].items():  # -D[m][i] [e_m, e_j]
                if j != i:
                    add(i, j, comps, -x)
    return not any(any(out.values()) for out in diff.values())


def derivation_candidates(g):
    """Der(g)'s basis, the diagonal parts, and each of these with one entry bent."""
    n = g.dim
    rng = random.Random(n)
    basis = [dict(d) for d in derivation_space(g).basis]
    maps = basis + [{e: x for e, x in d.items() if e[0] == e[1]} for d in basis]
    for d in list(maps):
        e = (rng.randrange(n), rng.randrange(n))
        maps.append({**d, e: d.get(e, ZERO) + Q(1, rng.choice((1, 2, 3, 5)))})
    return maps


def system_vanishes(space, d):
    """Is d, a sparse {(row, col): value} map, in the space: are its nonzero entries
    unknowns of space, at which every row of space.system vanishes?"""
    x = {space.unknowns.get(e): v for e, v in d.items() if v}
    return None not in x and not any(sum(c * x.get(k, 0) for k, c in row.items())
                                     for row in space.system.rows.values())


def assert_is_derivation_is_the_reference(g):
    # is_derivation evaluates _equations; system_vanishes reads the eliminated system
    n, space = g.dim, derivation_space(g)
    for d in derivation_candidates(g):
        want = reference_is_derivation(g, d)
        m = Matrix([[d.get((r, c), ZERO) for c in range(n)] for r in range(n)])
        assert is_derivation(g, d) == want == reference_is_derivation(g, m)
        assert is_derivation(g, m) == system_vanishes(space, d) == want


class TestIsDerivationMatchesReference:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.lie")))
    def test_fixtures(self, name):
        assert_is_derivation_is_the_reference(load_lie(FIXTURES / name))

    @pytest.mark.parametrize("name", sorted(LIE_ALGEBRAS))
    def test_integer_table_algebras(self, name):
        assert_is_derivation_is_the_reference(LIE_ALGEBRAS[name]())

    @given(rational_tables())
    @settings(max_examples=80, deadline=None)
    def test_random_tables(self, g):
        assert_is_derivation_is_the_reference(g)

    def test_bent_candidates_include_non_derivations(self):
        g = fixtures.standard_filiform(6)
        verdicts = {reference_is_derivation(g, d) for d in derivation_candidates(g)}
        assert verdicts == {True, False}


# --- one system per block labelling --------------------------------------------

class TestBlockKeyedSpace:
    @pytest.mark.parametrize("make,weights,same", [
        (fixtures.heisenberg3, (1, 2, 2), (5, 7, 7)),
        (fixtures.heisenberg3, (1, 2, 2), (Q(1, 2), 0, 0)),
        (fixtures.n6, (1, 2, 3, 3, 4, 5), (-1, -2, -3, -3, -4, -5)),
        (lambda: fixtures.standard_filiform(6), (0, 0, 1, 1, 0, 2), (9, 9, 4, 4, 9, 3)),
    ], ids=["h3", "h3-fractions", "n6", "L6"])
    def test_same_blocks_same_space(self, make, weights, same):
        g = make()
        first = derivation_space(g, weights)
        assert derivation_space(g, same) is first  # the last space, served again
        labels = tuple(weights.index(w) for w in weights)  # each block by its first index
        assert first == derivations._space.__wrapped__(g, labels)
        assert derivations._space.cache_info().misses == 1

    def test_other_blocks_or_algebra_build_anew(self):
        g = fixtures.heisenberg3()
        assert derivation_space(g, (1, 2, 2)) != derivation_space(g, (1, 2, 3))
        assert derivation_space(fixtures.heisenberg3(), (1, 2, 3)) == derivation_space(g, (1, 2, 3))
        assert derivations._space.cache_info().misses == 4


# --- the system goes in from the highest key down ------------------------------

def filiform_sum(a, b):
    return direct_sum(fixtures.standard_filiform(a), fixtures.standard_filiform(b))


def assert_system_is_the_ascending_one(g, weights):
    """derivation_space(g, w) numbers its unknowns in row-major order over the pairs
    of equal weight, and its system equals _equations's put in lowest key first."""
    n = g.dim
    w = [0] * n if weights is None else list(weights)
    space = derivation_space(g, weights)
    assert space.unknowns == {e: v for v, e in enumerate(
        (m, i) for m in range(n) for i in range(n) if w[m] == w[i])}
    eqs = derivations._equations(g, space.unknowns)
    ascending = Subspace(len(space.unknowns), [eqs[k] for k in sorted(eqs)])
    assert space.system.rows == ascending.rows
    assert space.system.pivots == ascending.pivots
    assert space.system.int_kernel() == ascending.int_kernel()


class TestDescendingElimination:
    @pytest.mark.parametrize("name", sorted(DIAGONAL_ALGEBRAS))
    def test_diagonal_systems(self, name):
        g = DIAGONAL_ALGEBRAS[name]()
        assert_system_is_the_ascending_one(g, range(g.dim))

    @pytest.mark.parametrize("a,b", [(10, 12), (12, 13)])
    def test_zero_weight_systems_of_filiform_sums(self, a, b):
        g = filiform_sum(a, b)
        n_diag = pre_einstein_nice(g).matrix
        assert_system_is_the_ascending_one(g, [n_diag[i, i] for i in range(g.dim)])

    @pytest.mark.parametrize("make", [
        fixtures.heisenberg3,
        lambda: fixtures.standard_filiform(4),
        lambda: fixtures.standard_filiform(6),
        lambda: direct_sum(fixtures.heisenberg3(), abelian(2)),
    ], ids=["h3", "L4", "L6", "h3+Q2"])
    def test_full_systems(self, make):
        assert_system_is_the_ascending_one(make(), None)

    @pytest.mark.parametrize("n", [10, 20, 28, 40])
    def test_no_row_is_back_substituted_on_filiform_diagonal_systems(self, n, monkeypatch):
        # lowest key first, each new pivot reaches every row made before it:
        # (n - 2)(n - 3)/2 row updates in all
        reached, add = [], Subspace._add

        def counting_add(s, v):
            w, _ = s._reduce(v)
            if w:
                reached.append(sum(min(w) in row for row in s.rows.values()))
            return add(s, v)

        monkeypatch.setattr(Subspace, "_add", counting_add)
        space = derivation_space(fixtures.standard_filiform(n), range(n))
        assert space.system.dim == len(reached) == n - 2
        assert sum(reached) == 0


# --- Gram lemma: the Gram system of pre_einstein_nice is positive definite -------

# the fixtures whose defining basis is nice: p3_c4, p3_c5, triangle_c3 and n6 are not
NICE_FIXTURES = {name: make for name, make in DIAGONAL_ALGEBRAS.items()
                 if name.endswith((".lie", ".graph")) and check_nice(make())}

GRAM_ALGEBRAS = {
    **NICE_FIXTURES,
    **{f"L{n}": (lambda n=n: fixtures.standard_filiform(n)) for n in range(3, 31)},
    "L10+L12": lambda: filiform_sum(10, 12),
    "L12+L13": lambda: filiform_sum(12, 13),
    "path4-class3": lambda: graph_algebra(GraphSpec.of(4, [(0, 1), (1, 2), (2, 3)], 3))[0],
    "square-class2": lambda: graph_algebra(
        GraphSpec.of(4, [(0, 1), (1, 2), (2, 3), (3, 0)], 2))[0],
}


class TestGramLemma:
    @pytest.mark.parametrize("name", sorted(GRAM_ALGEBRAS))
    def test_gram_matrix_of_the_int_kernel_is_positive_definite(self, name, monkeypatch):
        g = GRAM_ALGEBRAS[name]()
        assert check_nice(g)
        diag = derivation_space(g, range(g.dim)).system.int_kernel()
        assert Subspace(g.dim, diag).dim == len(diag)  # the lemma's hypothesis
        gram = [[sum(x * b.get(i, 0) for i, x in a.items()) for b in diag] for a in diag]
        assert is_positive_definite(Matrix(gram))
        assert sympy.Matrix(len(diag), len(diag), sum(gram, [])).is_positive_definite
        # the lemma stands in for a run-time test: pre_einstein_nice forms no char_poly
        calls, char_poly = [], linalg.char_poly
        monkeypatch.setattr(linalg, "char_poly", lambda m: calls.append(m) or char_poly(m))
        pre_einstein_nice(g)
        assert calls == []
