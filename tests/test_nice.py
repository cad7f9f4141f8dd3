import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nicebasis.lie import LieAlgebra, direct_sum, abelian, load_lie
from nicebasis.linalg import Matrix
from nicebasis.nice import (
    check_nice,
    check_adapted,
    monomial_equivalent,
    InputBasisNotNice,
    _monomial_search,
)
from nicebasis.scalars import Q, rat
from nicebasis import fixtures
from nicebasis.almost_abelian import build

LIE_FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.lie"))


def rational_conjugate(g, seed):
    """g in a seeded basis: the identity with random rational scales on the diagonal
    and a few random rational entries off it, so some series terms stay adapted."""
    rng = random.Random(seed)
    n = g.dim
    cols = [{i: Q(rng.choice((1, -1, 2, 3)), rng.choice((1, 2, 5)))} for i in range(n)]
    for _ in range(rng.randint(0, 3)):
        r, c = rng.sample(range(n), 2)
        cols[c][r] = Q(rng.randint(-3, 3), rng.choice((1, 2, 7)))
    while not Matrix.from_columns(cols, n).det():  # rare: an off-diagonal pair cancels
        cols[rng.randrange(n)] = {rng.randrange(n): Q(1)}
    return g.change_basis(Matrix.from_columns(cols, n))


def reference_adapted(g):
    """check_adapted as it was: e_i inside a term when its residue there is zero."""
    for label, series in (("lower", g.lower_central_series()),
                          ("upper", g.upper_central_series())):
        for idx, s in enumerate(series):
            inside = sum(1 for i in range(g.dim) if s.contains({i: Q(1)}))
            if inside != s.dim:
                return False, {"series": label, "term": idx, "subspace_dim": s.dim,
                               "basis_vectors_inside": inside}
    return True, None


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

    def test_a_basis_off_the_lower_central_series_is_not_adapted(self):
        # h3 in the basis (e1, e2, e1 + e3): [g, g] is spanned by the third
        # basis vector minus the first, and holds no basis vector
        p = Matrix.from_columns([{0: rat(1)}, {1: rat(1)}, {0: rat(1), 2: rat(1)}], 3)
        assert check_adapted(fixtures.heisenberg3().change_basis(p)) == (False, {
            "series": "lower", "term": 1, "subspace_dim": 1, "basis_vectors_inside": 0})

    def test_unit_rows_count_the_basis_vectors_inside_each_term(self):
        # check_adapted's lemma: e_i is in s iff row i of s is the unit row {i: 1}
        seen = set()  # (series, is the term adapted), over every term met
        for path in LIE_FIXTURES:
            for seed in range(6):
                h = rational_conjugate(load_lie(path), f"{path.stem}-{seed}")
                for label, series in (("lower", h.lower_central_series()),
                                      ("upper", h.upper_central_series())):
                    for s in series:
                        inside = {i for i in range(h.dim) if s.contains({i: Q(1)})}
                        assert {p for p, row in s.rows.items() if row == {p: 1}} == inside
                        seen.add((label, len(inside) == s.dim))
                assert check_adapted(h) == reference_adapted(h)
        assert seen == {(label, ok) for label in ("lower", "upper") for ok in (True, False)}

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


def aa(a, b):
    """The almost abelian algebra of [[0, b], [a, 0]]: [f, e1] = a e2, [f, e2] = b e1."""
    return build(Matrix([[0, b], [a, 0]])).compiled


def cyclic(a):
    """[e2, e3] = a e1, [e3, e1] = e2, [e1, e2] = e3."""
    return LieAlgebra(3, {(1, 2): {0: rat(a)}, (0, 2): {1: rat(-1)}, (0, 1): {2: rat(1)}})


class TestScaleSolver:
    """Pairs of nice tensors on which the scale systems decide the answer."""

    @pytest.mark.parametrize("ta, tb", [
        (aa(2, 1), aa(1, 1)),  # t_f^2 = 2: a rational, not an integer, exponent
        (aa(1, 1), aa(1, -1)),  # the sign system is inconsistent
        (cyclic(1), cyclic(2)),
        (cyclic(1), cyclic(-1)),
    ], ids=["aa-ratio-2", "aa-sign", "cyclic-2", "cyclic-minus-1"])
    def test_no_rational_scales(self, ta, tb):
        assert check_nice(ta) and check_nice(tb)
        assert _monomial_search(ta, tb) is None

    @pytest.mark.parametrize("ta, tb", [
        (aa(1, 1), aa(-1, -1)),
        (aa(4, 1), aa(1, 1)),
        (aa(3, 6), aa(1, 2)),
        (cyclic(1), cyclic(4)),
        # f acting by a 3-cycle with sign product +1 against -1: the sign
        # exponents sum to 3 s_f = 1, solvable mod 2 but not over Z
        (build(Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])).compiled,
         build(Matrix([[0, 0, 1], [-1, 0, 0], [0, 1, 0]])).compiled),
    ], ids=["aa-signs", "aa-square", "aa-two-primes", "cyclic-4", "aa-3-cycle-sign"])
    def test_witness_is_isomorphism(self, ta, tb):
        m = _monomial_search(ta, tb)
        assert m is not None
        assert m.is_isomorphism(ta, tb)

