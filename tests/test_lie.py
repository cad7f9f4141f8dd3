import pytest

from nicebasis.lie import (
    LieAlgebra,
    direct_sum,
    abelian,
    parse_lie,
    serialize_lie,
)
from nicebasis.linalg import Matrix, Subspace
from nicebasis.scalars import ONE, Q, rat
from nicebasis import fixtures


class TestConstruction:
    def test_jacobi_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebra(3, {(0, 1): {2: rat(1)}, (0, 2): {0: rat(1)}})

    @pytest.mark.parametrize("names", [[], ["x"], ["x", "y", "z"]], ids=["none", "short", "long"])
    def test_names_must_name_every_basis_vector(self, names):
        # an empty list is a list of names, not a request for e1, e2
        with pytest.raises(ValueError, match="^wrong number of basis names$"):
            LieAlgebra(2, {}, names=names)
        assert LieAlgebra(2, {}).names == ["e1", "e2"]
        assert LieAlgebra(0, {}, names=[]).names == []

    def test_bracket_bilinear(self):
        g = fixtures.heisenberg3()
        x, y = (rat(1), rat(2), rat(0)), (rat(0), rat(1), rat(1))
        two_x = tuple(2 * c for c in x)
        assert g.bracket(two_x, y) == tuple(2 * c for c in g.bracket(x, y))

    def test_ad_matches_bracket(self):
        g = fixtures.standard_filiform(5)
        x = (rat(1), rat(0), rat(2), rat(0), rat(1))
        y = (rat(0), rat(1), rat(0), rat(3), rat(0))
        assert g.ad(x).apply(y) == g.bracket(x, y)


class TestSeries:
    def test_filiform_lower_central(self):
        g = fixtures.standard_filiform(5)
        dims = [s.dim for s in g.lower_central_series()]
        assert dims == [5, 3, 2, 1, 0]
        assert g.is_nilpotent()

    def test_heisenberg_center(self):
        g = fixtures.heisenberg3()
        z = g.center()
        assert z.dim == 1
        assert z.contains((rat(0), rat(0), rat(5)))

    def test_upper_central_series_reaches_whole(self):
        g = fixtures.standard_filiform(4)
        ucs = g.upper_central_series()
        assert ucs[-1].dim == 4

    def test_semisimple_has_no_center(self):
        assert fixtures.sl2().center().dim == 0
        assert not fixtures.sl2().is_nilpotent()


class TestDirectSum:
    def test_dims_and_blocks(self):
        g = direct_sum(fixtures.heisenberg3(), abelian(2))
        assert g.dim == 5
        assert g.bracket_basis(0, 1) == {2: rat(1)}
        assert g.center().dim == 3

    def test_killing_form_additive(self):
        g = direct_sum(fixtures.sl2(), abelian(1))
        k = g.killing_form()
        assert k[3, 3] == 0
        assert k[0, 0] == fixtures.sl2().killing_form()[0, 0]


class TestQuotient:
    def test_by_center(self):
        g = fixtures.heisenberg3()
        q, project = g.quotient(g.center())
        assert q.dim == 2
        assert all(not v for v in q.brackets.values()) or not q.brackets

    def test_refuses_a_subspace_that_is_not_an_ideal(self):
        g = fixtures.heisenberg3()  # [e1, e2] = e3 leaves the span of e1
        with pytest.raises(ValueError, match="not an ideal"):
            g.quotient(Subspace(3, [{0: ONE}]))

    def test_checks_the_jacobi_identity_of_the_result(self):
        # [e1, e2] = e3, [e2, e3] = e1, [e1, e3] = e1 fails Jacobi; the zero
        # subspace is an ideal, so the quotient is the same table
        g = LieAlgebra(3, {(0, 1): {2: ONE}, (1, 2): {0: ONE}, (0, 2): {0: ONE}}, check=False)
        with pytest.raises(ValueError, match="Jacobi"):
            g.quotient(Subspace(3))

    def test_ideal_closure(self):
        g = fixtures.standard_filiform(4)
        ideal = g.ideal_closure([(rat(0), rat(1), rat(0), rat(0))])
        # e2 generates e3 and e4 through brackets with e1
        assert ideal.dim == 3


class TestIO:
    def test_round_trip(self):
        g = fixtures.n6()
        h = parse_lie(serialize_lie(g))
        assert h.dim == g.dim
        assert h.brackets == g.brackets

    def test_parse_rejects_bad_index(self):
        with pytest.raises(ValueError):
            parse_lie("dim 2\nbracket 1 2 5 1\n")

    def test_comments_and_fractions(self):
        g = parse_lie("# comment\ndim 3\nbracket 1 2 3 1/2\n")
        assert g.bracket_basis(0, 1) == {2: Q(1, 2)}

    def test_change_basis_round_trip(self):
        g = fixtures.n6()
        p = Matrix([[1, 1, 0, 0, 0, 0],
                    [0, 1, 0, 0, 0, 0],
                    [0, 0, 2, 0, 0, 0],
                    [0, 0, 0, 1, 0, 3],
                    [0, 0, 0, 0, 1, 0],
                    [0, 0, 0, 0, 0, 1]])
        h = g.change_basis(p).change_basis(p.inverse())
        assert h.brackets == g.brackets

    @pytest.mark.parametrize("p", [
        Matrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]]),  # dependent columns
        Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]]),  # zero row
        Matrix([[1, 0], [0, 1]]),  # wrong size
        Matrix([[1, 0, 0], [0, 1, 0]]),  # not square
        Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]),  # rows past n, on the tags
    ], ids=["dependent", "zero-row", "wrong-size", "not-square", "more-rows"])
    def test_change_basis_rejects_singular(self, p):
        with pytest.raises(ValueError):
            fixtures.sl2().change_basis(p)
