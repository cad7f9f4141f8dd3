"""The 3-dimensional catalog: counts, verified bases, and classification."""

import pytest

from nicebasis import (
    Matrix,
    catalog,
    check_nice,
    classify3,
    cyclic_sign_pattern,
    fixtures,
    monomial_equivalent,
    rat,
    simple_nice_bases,
)

EXPECTED = {
    "R^3": 1,
    "h3": 1,
    "aa(A_-1)": 2,
    "aa(A_lambda=-1/2)": 1,
    "aa(A_lambda=0)": 1,
    "aa(A_lambda=1/2)": 1,
    "aa(A_lambda=1)": 1,
    "aa(D)": 0,
    "aa(E_0)": 1,
    "aa(E_mu=1)": 0,
    "aa(E_mu=2)": 0,
    "sl2": 2,
    "so3": 1,
}


@pytest.fixture(scope="module")
def entries():
    return {e.name: e for e in catalog()}


class TestCatalog:
    def test_names(self, entries):
        assert set(entries) == set(EXPECTED)

    @pytest.mark.parametrize("name,nu", sorted(EXPECTED.items()))
    def test_counts(self, entries, name, nu):
        assert entries[name].nu == nu

    def test_all_verify(self, entries):
        for e in entries.values():
            assert e.verify() is e

    def test_listed_bases_are_nice(self, entries):
        for e in entries.values():
            assert len(e.nice_bases) == e.nu
            for b in e.nice_bases:
                assert check_nice(e.algebra.change_basis(b))

    def test_two_bases_inequivalent(self, entries):
        for e in entries.values():
            if e.nu == 2:
                b1, b2 = e.nice_bases
                assert monomial_equivalent(e.algebra, b1, b2) is None

    def test_dimension_three(self, entries):
        for e in entries.values():
            assert e.algebra.dim == 3


class TestSignPattern:
    def test_so3_uniform(self):
        signs = cyclic_sign_pattern(fixtures.so3())
        assert signs is not None
        assert len(set(signs)) == 1

    def test_sl2_second_basis_mixed(self):
        alg = fixtures.sl2()
        _, second = simple_nice_bases("sl2")
        signs = cyclic_sign_pattern(alg.change_basis(second))
        assert signs is not None
        assert len(set(signs)) == 2

    def test_non_cyclic_returns_none(self):
        assert cyclic_sign_pattern(fixtures.heisenberg3()) is None

    def test_invariant_under_scaling(self):
        alg = fixtures.so3()
        p = Matrix.diagonal([rat(2), rat(3), rat(5)])
        signs = cyclic_sign_pattern(alg.change_basis(p))
        assert signs is not None
        assert len(set(signs)) == 1

    def test_simple_bases_reject_bad_name(self):
        with pytest.raises(ValueError):
            simple_nice_bases("su2")


SHUFFLE = Matrix.from_columns(
    [(rat(1), rat(1), rat(0)), (rat(0), rat(1), rat(2)), (rat(1), rat(0), rat(1))]
)


class TestClassify:
    def test_needs_dim_3(self):
        with pytest.raises(ValueError):
            classify3(fixtures.n6())

    @pytest.mark.parametrize(
        "alg_name",
        ["heisenberg3", "sl2", "so3"],
    )
    def test_round_trip_under_change_of_basis(self, alg_name):
        alg = getattr(fixtures, alg_name)()
        direct = classify3(alg)
        shuffled = classify3(alg.change_basis(SHUFFLE))
        assert direct is not None and shuffled is not None
        assert direct.name == shuffled.name
        assert direct.nu == shuffled.nu

    def test_heisenberg_is_h3(self):
        entry = classify3(fixtures.heisenberg3())
        assert entry.name == "h3"
        assert entry.nu == 1

    def test_abelian(self):
        from nicebasis import abelian

        entry = classify3(abelian(3))
        assert entry.name == "R^3"
        assert entry.nu == 1

    def test_catalog_algebras_classify_to_themselves(self, entries):
        for name, e in entries.items():
            got = classify3(e.algebra)
            assert got is not None, name
            assert got.name == name
            assert got.nu == e.nu

    def test_rescaled_solvable(self, entries):
        e = entries["aa(A_-1)"]
        got = classify3(e.algebra.change_basis(SHUFFLE))
        assert got is not None
        assert got.nu == 2
