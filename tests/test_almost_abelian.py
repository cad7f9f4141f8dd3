import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nicebasis.almost_abelian import (
    build,
    BinomialFactorization,
    exists_nice,
    count_nice,
    indecomposable_family,
    iso_test_almost_abelian,
    parse_matrix,
    serialize_matrix,
)
from nicebasis.linalg import Matrix, Poly
from nicebasis.nice import check_nice
from nicebasis.scalars import Q, rat
from nicebasis import fixtures
from test_root_oracle import _same_class, factorizations, mul


def product(f: BinomialFactorization) -> Poly:
    return mul(*(Poly.binomial(d, r) for d, r in f.factors))


class TestBuild:
    def test_bracket_layout(self):
        alg = build(fixtures.matrix_c()).compiled
        assert alg.dim == 3
        # [f, X1] = 0, [f, X2] = X1
        assert alg.brackets.get((0, 1), {}) == {}
        assert alg.brackets.get((0, 2), {}) == {1: rat(1)}

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            build(Matrix([[1, 2, 3], [4, 5, 6]]))


class TestFactorizations:
    def test_x4_minus_1(self):
        p = Poly.binomial(4, rat(1))
        facts = factorizations(p)
        products = {tuple(sorted(f.factors)) for f in facts}
        assert ((4, rat(1)),) in products
        assert ((1, rat(-1)), (1, rat(1)), (2, rat(-1))) in products
        assert ((2, rat(-1)), (2, rat(1))) in products
        assert len(facts) == 3

    def test_every_factorization_multiplies_back(self):
        p = mul(Poly.binomial(2, rat(1)), Poly.binomial(2, rat(4)))
        for f in factorizations(p):
            assert product(f) == p

    def test_irreducible_over_rationals(self):
        # x^2 + 1 only factors trivially: it is itself the binomial x^2 - (-1)
        facts = factorizations(Poly.binomial(2, rat(-1)))
        assert [f.factors for f in facts] == [((2, rat(-1)),)]


class TestEquivalence:
    """The lemma in Analysis.count's docstring: a real rescaling relates two
    factorizations of one polynomial only when they are equal.  _same_class is
    the rescaling search that the count replaced."""

    def all_factorizations(self, k):
        p = Poly.binomial(k, rat(1))
        return p, factorizations(p)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_equivalence_relation_on_xk_minus_1(self, k):
        p, facts = self.all_factorizations(k)
        for f in facts:
            assert product(f) == p
            assert _same_class(f, f)
        for f, g in itertools.combinations(facts, 2):
            assert f != g
            assert not _same_class(f, g)
            assert not _same_class(g, f)

    def test_distinct_factorizations_of_one_target_are_inequivalent(self):
        # x^2 - 4 = (x - 2)(x + 2): rescaling by -1 swaps the linear roots,
        # yet no rescaling relates the two factorizations
        linear = BinomialFactorization.of(((1, rat(2)), (1, rat(-2))))
        quadratic = BinomialFactorization.of(((2, rat(4)),))
        assert product(linear) == product(quadratic)
        assert not _same_class(linear, quadratic)
        assert not _same_class(quadratic, linear)
        for p in [Poly.binomial(k, rat(1)) for k in range(1, 13)] + [
                Poly.binomial(4, rat(16)), mul(Poly.binomial(2, rat(4)), Poly.binomial(2, rat(1)))]:
            for f, g in itertools.combinations(factorizations(p), 2):
                assert not _same_class(f, g)

    def test_equal_multisets_are_equivalent(self):
        f1 = BinomialFactorization.of(((1, rat(2)), (1, rat(-2)), (2, rat(3))))
        f2 = BinomialFactorization.of(((2, rat(3)), (1, rat(-2)), (1, rat(2))))
        assert f1 == f2
        assert hash(f1) == hash(f2)
        assert _same_class(f1, f2)


class TestBinomialFactorization:
    @pytest.mark.parametrize("degree", [0, -1])
    def test_refuses_degree_below_one(self, degree):
        with pytest.raises(ValueError):
            BinomialFactorization.of(((1, rat(2)), (degree, rat(3))))

    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(-4, 4)), max_size=5))
    def test_product_degree_is_degree(self, pairs):
        f = BinomialFactorization.of(pairs)
        assert product(f).degree == f.degree


class TestExistence:
    def test_nilpotent_always_yes(self):
        v = exists_nice(fixtures.matrix_c())
        assert v.status == "yes"
        assert count_nice(fixtures.matrix_c()) == 1

    def test_zero_matrix(self):
        assert exists_nice(fixtures.matrix_b()).status == "yes"
        assert count_nice(fixtures.matrix_b()) == 1

    def test_non_semisimple_no(self):
        v = exists_nice(fixtures.matrix_d())
        assert v.status == "no"
        assert count_nice(fixtures.matrix_d()) == 0

    def test_complex_pair_no(self):
        v = exists_nice(fixtures.matrix_complex_pair())
        assert v.status == "no"
        assert count_nice(fixtures.matrix_complex_pair()) == 0

    def test_root64_witness(self):
        a = fixtures.matrix_root64()
        v = exists_nice(a)
        assert v.status == "yes"
        alg = build(a).compiled
        assert check_nice(alg.change_basis(v.witness)).is_nice

    def test_irrational_is_flagged_not_counted(self):
        # (x^2-2)^2 target: a rational factorization exists but real
        # irrational splittings escape the rational enumeration
        a = Matrix([[0, 2, 0, 0], [1, 0, 0, 0],
                    [0, 0, 0, 2], [0, 0, 1, 0]])
        assert count_nice(a) is None

    def test_irrational_companion_block(self):
        # x^2 - x - 1 has golden-ratio roots
        a = Matrix([[0, 1], [1, 1]])
        v = exists_nice(a)
        assert v.status == "unknown-irrational"
        assert v.reason == (
            "characteristic polynomial may split with irrational constants")

    def test_counts(self):
        assert count_nice(fixtures.matrix_cyclic(4)) == 3
        assert count_nice(
            Matrix.diagonal([rat(1), rat(-1), rat(-2), rat(2)])) == 4

    def test_scaling_invariance(self):
        a = fixtures.matrix_cyclic(4)
        scaled = a * Q(3, 2)
        assert count_nice(scaled) == count_nice(a)

    def test_two_factorizations_two_classes(self):
        # x^2 - 1 splits as (x-1)(x+1) or stays whole, one class each
        assert count_nice(Matrix.diagonal([rat(1), rat(-1)])) == 2


class TestFamily:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_count_is_n(self, n):
        fam = indecomposable_family(n)
        assert fam.a.rows == 2 ** (n - 1)
        assert count_nice(fam.a) == n

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            indecomposable_family(1)
        with pytest.raises(ValueError):
            indecomposable_family(9)


class TestIsoTest:
    def test_scalar_multiple_similar(self):
        a = Matrix.diagonal([rat(1), rat(-1)])
        b = Matrix.diagonal([rat(-1), rat(1)])
        res = iso_test_almost_abelian(a, b)
        assert res is not None
        c, how = res
        assert c == 1

    def test_rescaled(self):
        a = Matrix.diagonal([rat(1), rat(2)])
        b = Matrix.diagonal([rat(3), rat(6)])
        res = iso_test_almost_abelian(a, b)
        assert res is not None
        c, why = res
        assert why == "similar"
        assert b * c == a

    def test_distinct_shapes(self):
        a = Matrix.diagonal([rat(1), rat(2)])
        b = fixtures.matrix_d()
        assert iso_test_almost_abelian(a, b) is None


class TestMatrixIO:
    def test_round_trip(self):
        a = fixtures.matrix_root64()
        b = parse_matrix(serialize_matrix(a))
        assert a == b

    def test_fractions(self):
        a = parse_matrix("2\n1/2 0\n0 -3/4\n")
        assert a[0, 0] == Q(1, 2)
        assert a[1, 1] == Q(-3, 4)

    def test_bad_row_count(self):
        with pytest.raises(ValueError):
            parse_matrix("2\n1 0\n")


@given(st.integers(2, 6))
@settings(max_examples=10, deadline=None)
def test_identity_matrix_algebra_has_one_basis(n):
    assert count_nice(Matrix.identity(n)) == 1
