import pytest
from hypothesis import given, settings, strategies as st

from nicebasis.lie import LieAlgebra, direct_sum, abelian
from nicebasis.linalg import Matrix
from nicebasis.nice import (
    check_nice,
    check_adapted,
    monomial_equivalent,
    InputBasisNotNice,
)
from nicebasis.scalars import Q, rat
from nicebasis import fixtures


class TestCheckNice:
    def test_nice_fixtures(self):
        for g in (fixtures.heisenberg3(), fixtures.standard_filiform(6),
                  abelian(4), fixtures.sl2(), fixtures.so3()):
            assert check_nice(g).is_nice

    def test_shared_target_violation(self):
        v = check_nice(fixtures.n6())
        assert not v.is_nice
        kinds = {x["kind"] for x in v.violations}
        assert kinds == {"CONDITION_2"}
        (violation,) = [x for x in v.violations
                        if x["kind"] == "CONDITION_2"]
        assert violation["target"] == 5
        assert set(violation["pairs"]) == {(1, 2), (1, 3)}

    def test_multi_target_violation(self):
        # [e1,e2] = e3 + e4 breaks the single-target condition
        g = LieAlgebra(4, {(0, 1): {2: rat(1), 3: rat(1)}})
        v = check_nice(g)
        assert not v.is_nice
        assert any(x["kind"] == "CONDITION_1" for x in v.violations)

    def test_verdict_is_truthy(self):
        assert check_nice(abelian(2))
        assert not check_nice(fixtures.n6())


class TestAdapted:
    def test_nice_implies_adapted(self):
        samples = [fixtures.heisenberg3(), fixtures.standard_filiform(4),
                   fixtures.standard_filiform(7), abelian(3),
                   direct_sum(fixtures.heisenberg3(),
                              fixtures.standard_filiform(4))]
        for g in samples:
            assert check_nice(g).is_nice
            ok, info = check_adapted(g)
            assert ok, info

    @given(st.permutations(list(range(4))),
           st.lists(st.sampled_from([1, 2, -1, 3]), min_size=4, max_size=4))
    @settings(max_examples=30)
    def test_monomial_image_of_nice_is_nice(self, perm, scales):
        g = fixtures.standard_filiform(4)
        cols = [[rat(0)] * 4 for _ in range(4)]
        for i, p in enumerate(perm):
            cols[p][i] = rat(scales[i])
        h = g.change_basis(Matrix(cols))
        assert check_nice(h).is_nice


class TestMonomialEquivalent:
    def test_rescaled_bases_equivalent(self):
        g = fixtures.heisenberg3()
        ident = Matrix.identity(3)
        scaled = Matrix.diagonal([rat(2), rat(1), rat(2)])
        m = monomial_equivalent(g, ident, scaled)
        assert m is not None
        assert m.sigma == (0, 1, 2)
        assert m.is_isomorphism(g.change_basis(ident), g.change_basis(scaled))

    def test_requires_nice_inputs(self):
        g = fixtures.n6()
        with pytest.raises(InputBasisNotNice):
            monomial_equivalent(g, Matrix.identity(6), Matrix.identity(6))

    def test_self_equivalence(self):
        g = fixtures.standard_filiform(5)
        m = monomial_equivalent(g, Matrix.identity(5), Matrix.identity(5))
        assert m is not None

    def test_inequivalent_bases_of_sl2(self):
        from nicebasis.catalog3 import simple_nice_bases
        b1, b2 = simple_nice_bases("sl2")
        g = fixtures.sl2()
        assert monomial_equivalent(g, b1, b2) is None

    def test_witness_really_is_isomorphism(self):
        g = direct_sum(fixtures.heisenberg3(), abelian(1))
        ident = Matrix.identity(4)
        other = Matrix.diagonal([rat(3), rat(1), rat(3), rat(-2)])
        m = monomial_equivalent(g, ident, other)
        assert m is not None
        assert m.is_isomorphism(g.change_basis(ident), g.change_basis(other))
