import pytest
import sympy

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
    NotNiceBasis,
    PreEinstein,
)
from nicebasis.almost_abelian import count_nice
from nicebasis.lie import direct_sum, abelian
from nicebasis.linalg import Matrix
from nicebasis.scalars import Q, rat
from nicebasis import fixtures


def sympy_derivation_dim(g):
    """Independent count of dim Der(g) via sympy nullspace."""
    n = g.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            bij = g.bracket_basis(i, j)
            for k in range(n):
                row = [0] * (n * n)
                row[k * n + i] = row[k * n + i]
                # D[x_i,x_j]_k = sum_m c_ij^m D_km
                for m, c in bij.items():
                    row[k * n + m] += sympy.Rational(str(c))
                # -[Dx_i, x_j]_k - [x_i, Dx_j]_k
                for m in range(n):
                    cmj = g.bracket_basis(m, j) if m < j else \
                        {t: -c for t, c in g.bracket_basis(j, m).items()}
                    row[m * n + i] -= sympy.Rational(str(cmj.get(k, 0)))
                    cim = g.bracket_basis(i, m) if i < m else \
                        {t: -c for t, c in g.bracket_basis(m, i).items()}
                    row[m * n + j] -= sympy.Rational(str(cim.get(k, 0)))
                rows.append(row)
    m = sympy.Matrix(rows)
    return n * n - m.rank()


class TestDerivationSpace:
    @pytest.mark.parametrize("make", [
        fixtures.heisenberg3,
        lambda: fixtures.standard_filiform(4),
        lambda: fixtures.standard_filiform(5),
        fixtures.sl2,
    ])
    def test_dimension_matches_sympy(self, make):
        g = make()
        assert len(derivation_space(g)) == sympy_derivation_dim(g)

    def test_members_are_derivations(self):
        g = fixtures.n6()
        space = derivation_space(g)
        for d in space.basis:
            assert is_derivation(g, d)

    def test_contains(self):
        g = fixtures.heisenberg3()
        space = derivation_space(g)
        d = Matrix.diagonal([rat(1), rat(1), rat(2)])
        assert space.contains(d)
        assert not space.contains(Matrix.diagonal([rat(1), rat(1), rat(1)]))

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
        assert simple_spectrum_unique(l5, True) == 1
        h3 = pre_einstein_nice(fixtures.heisenberg3())
        assert simple_spectrum_unique(h3, True) is None
        assert simple_spectrum_unique(l5, False) is None

    def test_abelian_extension_rewrite(self):
        # an abelian factor R^m turns A into the block-diagonal A + 0_m
        for a, nu in ((fixtures.matrix_cyclic(4), 3), (fixtures.matrix_c(), 1)):
            k = a.rows
            for m in (1, 2, 3):
                padded = Matrix([list(row) + [0] * m for row in a.data]
                                + [[0] * (k + m)] * m)
                assert count_nice(padded) == count_nice(a) == nu
