import math

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
from test_integer_table import center


class TestConstruction:
    def test_jacobi_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebra(3, {(0, 1): {2: rat(1)}, (0, 2): {0: rat(1)}})

    @pytest.mark.parametrize("names,message", [
        ([], "wrong number of basis names"),
        (["x"], "wrong number of basis names"),
        (["x", "y", "z"], "wrong number of basis names"),
        ("xy", "basis names must be a sequence of strings"),  # not taken apart into x, y
        (["x", 2], "basis names must be a sequence of strings"),
        ([None, "y"], "basis names must be a sequence of strings"),
        (["x", "x"], "repeated basis name"),
    ], ids=["none", "short", "long", "one-string", "int", "none-name", "repeated"])
    def test_names_must_name_every_basis_vector(self, names, message):
        # an empty list is a list of names, not a request for e1, e2
        with pytest.raises(ValueError, match=f"^{message}$"):
            LieAlgebra(2, {}, names=names)
        assert LieAlgebra(2, {}).names == ["e1", "e2"]
        assert LieAlgebra(2, {}, names=("x", "y")).names == ["x", "y"]
        assert LieAlgebra(0, {}, names=[]).names == []

    @pytest.mark.parametrize("brackets,message", [
        ({(0, 3): {2: 1}}, r"bracket index out of range: \(0, 3\)"),
        ({(-1, 2): {0: 1}}, r"bracket index out of range: \(-1, 2\)"),
        ({(1, 0): {2: 1}}, r"bracket keys must have i < j, got \(1, 0\)"),
        ({(1, 1): {2: 1}}, r"bracket keys must have i < j, got \(1, 1\)"),
        ({(0, 1): {3: 1}}, "bracket target out of range: 3"),
        ({(0, 1): {2: 1, -1: 1}}, "bracket target out of range: -1"),
        # two bad rows: the first in key order decides
        ({(0, 1): {3: 1}, (0, 3): {2: 1}}, "bracket target out of range: 3"),
        ({(1, 0): {2: 1}, (0, 3): {2: 1}}, r"bracket keys must have i < j, got \(1, 0\)"),
        ({(0, 2): {1: 1}, (2, 1): {0: 1}, (0, 1): {5: 1}},
         r"bracket keys must have i < j, got \(2, 1\)"),
        # one row bad twice: its indices, then its order, then its targets
        ({(4, 1): {5: 1}}, r"bracket index out of range: \(4, 1\)"),
        ({(2, 1): {3: 1}}, r"bracket keys must have i < j, got \(2, 1\)"),
        ({(1, 2): {}, (0, 1): {}, (3, 0): {}}, r"bracket index out of range: \(3, 0\)"),
    ], ids=["index-past-dim", "index-negative", "i-after-j", "i-is-j", "target-past-dim",
            "target-negative", "target-then-index", "order-then-index",
            "order-then-target", "index-and-order", "order-and-target", "empty-rows"])
    def test_bracket_keys_and_targets_out_of_range_are_refused(self, brackets, message):
        # parse_lie refuses these first with the file's line, so only a caller
        # building the table in code reaches the constructor's own refusals
        with pytest.raises(ValueError, match=f"^{message}$"):
            LieAlgebra(3, brackets)

    @pytest.mark.parametrize("rows,den,brackets", [
        ({(0, 1): ({1: 1}, -1)}, 1, {(0, 1): {1: -1}}),  # a negative d keeps its sign
        ({(0, 1): ({1: 1}, -1), (0, 2): ({2: 1}, 2)}, 1, {(0, 1): {1: -1}, (0, 2): {2: Q(1, 2)}}),
        ({(0, 1): ({1: 2}, 2), (0, 2): ({2: 4}, 2)}, 1, {(0, 1): {1: 1}, (0, 2): {2: 2}}),
        ({(0, 1): ({1: 3}, 1), (1, 2): ({}, 5)}, 3, {(0, 1): {1: 1}}),
    ], ids=["negative-d", "mixed-d", "every-d-the-lcm", "empty-row"])
    def test_from_table_puts_rows_over_the_lcm(self, rows, den, brackets):
        g = LieAlgebra._from_table(3, rows, den)
        assert g.brackets == brackets and g.pairs == tuple(brackets)
        assert g.table[1][0] == {k: -x for k, x in g.table[0][1].items()}
        assert g.den == math.lcm(*[Q(x).denominator for row in brackets.values()
                                   for x in row.values()])

    def test_bracket_bilinear(self):
        g = fixtures.heisenberg3()
        x, y = (rat(1), rat(2), rat(0)), (rat(0), rat(1), rat(1))
        two_x = tuple(2 * c for c in x)
        assert g.bracket(two_x, y) == tuple(2 * c for c in g.bracket(x, y))



class TestSeries:
    def test_filiform_lower_central(self):
        g = fixtures.standard_filiform(5)
        dims = [s.dim for s in g.lower_central_series()]
        assert dims == [5, 3, 2, 1, 0]
        assert g.is_nilpotent()

    def test_heisenberg_center(self):
        g = fixtures.heisenberg3()
        z = center(g)
        assert z.dim == 1
        assert z.contains((rat(0), rat(0), rat(5)))

    def test_upper_central_series_reaches_whole(self):
        g = fixtures.standard_filiform(4)
        ucs = g.upper_central_series()
        assert ucs[-1].dim == 4

    def test_semisimple_has_no_center(self):
        assert center(fixtures.sl2()).dim == 0
        assert not fixtures.sl2().is_nilpotent()


class TestDirectSum:
    def test_dims_and_blocks(self):
        g = direct_sum(fixtures.heisenberg3(), abelian(2))
        assert g.dim == 5
        assert g.brackets[(0, 1)] == {2: rat(1)}
        assert center(g).dim == 3

    def test_killing_form_additive(self):
        g = direct_sum(fixtures.sl2(), abelian(1))
        k = g.killing_form()
        assert k[3, 3] == 0
        assert k[0, 0] == fixtures.sl2().killing_form()[0, 0]


class TestQuotient:
    def test_by_center(self):
        g = fixtures.heisenberg3()
        q, project = g.quotient(center(g))
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
        # e2 generates e3 and e4 through brackets with e1: quotient accepts
        # their span as an ideal and refuses every smaller span holding e2
        g = fixtures.standard_filiform(4)
        e = [{i: ONE} for i in range(4)]
        for vectors in ([e[1]], [e[1], e[2]], [e[1], e[3]]):
            with pytest.raises(ValueError, match="^subspace is not an ideal$"):
                g.quotient(Subspace(4, vectors))
        q, _ = g.quotient(Subspace(4, [e[1], e[2], e[3]]))
        assert q.dim == 1

    def test_refuses_an_ideal_of_another_dimension(self):
        # e5 of Q^5 meets no bracket of h3, so the ideal test alone would pass it
        g = fixtures.heisenberg3()
        with pytest.raises(ValueError, match=r"^ideal lies in Q\^5, not Q\^3$"):
            g.quotient(Subspace(5, [{4: ONE}]))
        with pytest.raises(ValueError, match=r"^ideal lies in Q\^2, not Q\^3$"):
            g.quotient(Subspace(2))


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
        assert g.brackets[(0, 1)] == {2: Q(1, 2)}

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


class TestVectorsOutsideTheAlgebra:
    # refused as solve refuses a right-hand side of the wrong length; before,
    # the centralizer dropped index 3, bracket read the short x and
    # bracket_sparse answered {}; bracket once answered the float 0.5
    @pytest.mark.parametrize("call,message", [
        (lambda g: g.centralizer([(0, 0, 0, 1)]), "vector has 4 entries, the algebra dimension 3"),
        (lambda g: g.centralizer([{3: 1}]), "vector index 3 out of range 0..2"),
        (lambda g: g.bracket((1, 0), (0, 1, 0)), "vector has 2 entries, the algebra dimension 3"),
        (lambda g: g.bracket_sparse({0: 1}, {7: 1}), "vector index 7 out of range 0..2"),
        (lambda g: g.bracket_sparse({-1: 1}, {0: 1}), "vector index -1 out of range 0..2"),
        (lambda g: g.bracket((0.5, 0, 0), (0, 1, 0)),
         "vector entry 0.5 is not an int or a Fraction"),
        (lambda g: g.centralizer([{0: 0.5}]), "vector entry 0.5 is not an int or a Fraction"),
    ], ids=["centralizer-dense", "centralizer-sparse", "bracket", "bracket_sparse",
            "bracket_sparse-negative", "bracket-float", "centralizer-float"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(fixtures.heisenberg3())

    def test_basis_brackets_in_range_in_either_order(self):
        g = fixtures.heisenberg3()  # the int table holds both orders, den = 1
        assert g.table[0][1] == {2: 1}
        assert g.table[1][0] == {2: -1}
        assert g.table[1].get(1) is g.table[2].get(0) is None

    def test_vectors_of_the_algebra_are_taken_in_both_forms(self):
        g = fixtures.heisenberg3()
        assert g.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
        assert g.bracket_sparse((1, 0, 0), {1: 1}) == {2: 1}
        assert g.centralizer([(1, 0, 0)]) == g.centralizer([{0: 1}])
