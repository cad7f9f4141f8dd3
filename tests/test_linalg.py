import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nicebasis.linalg import (
    _divisors,
    Matrix,
    Poly,
    Subspace,
    nullspace,
    solve,
    char_poly,
    is_nilpotent,
    poly_gcd,
    rational_roots,
    count_real_roots,
    minimal_polynomial,
    smith_normal_form,
    solve_integer_system,
    solve_gf2_system,
    sparse_columns,
)
from nicebasis.scalars import Q, rat


rationals = st.builds(Q, st.integers(-30, 30), st.integers(1, 12))


def horner(p, m):
    """p(m) by Horner's rule on dense matrices."""
    acc = Matrix.zeros(m.rows, m.cols)
    for c in reversed(p.coeffs):
        acc = acc * m + Matrix.identity(m.rows) * c
    return acc


def square(n, entries):
    return Matrix([[entries[i * n + j] for j in range(n)] for i in range(n)])


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols,
                        lambda i, j: sympy.Rational(str(m[i, j])))


class TestMatrix:
    def test_identity_and_arithmetic(self):
        a = Matrix([[1, 2], [3, 4]])
        i = Matrix.identity(2)
        assert a * i == a
        assert a + (-a) == Matrix.zeros(2, 2)
        assert (a - a).is_zero()

    def test_pow(self):
        a = Matrix([[0, 1], [0, 0]])
        assert (a ** 2).is_zero()
        assert a ** 0 == Matrix.identity(2)
        with pytest.raises(ValueError):
            Matrix.identity(2) ** -1

    def test_inverse(self):
        a = Matrix([[2, 1], [1, 1]])
        assert a * a.inverse() == Matrix.identity(2)
        with pytest.raises(ValueError):
            Matrix([[1, 1], [1, 1]]).inverse()

    def test_apply_matches_column_combination(self):
        a = Matrix([[1, 2], [3, 4]])
        assert a.apply((rat(1), rat(0))) == a.column(0)

    @pytest.mark.parametrize("m", [
        Matrix([[1, 0, 2], [0, 0, 3]]), Matrix([[0, 0]]), Matrix.identity(3), Matrix([]),
    ], ids=["2x3", "zero-row", "identity", "empty"])
    def test_sparse_columns_are_the_columns(self, m):
        cols = sparse_columns(m)
        assert len(cols) == m.cols
        assert cols == [{i: x for i, x in enumerate(m.column(j)) if x} for j in range(m.cols)]

    @given(st.lists(rationals, min_size=4, max_size=4))
    def test_det_vs_sympy(self, entries):
        m = square(2, entries)
        assert sympy.Rational(str(m.det())) == to_sympy(m).det()


class TestRref:
    def test_canonical(self):
        s = Subspace(2, [(rat(0), rat(2)), (rat(1), rat(1))])
        assert s.pivots == [0, 1]
        assert s.basis() == [(rat(1), rat(0)), (rat(0), rat(1))]
        assert s.rows == {0: {0: rat(1)}, 1: {1: rat(1)}}

    def test_rank_nullity(self):
        m = Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        null = nullspace(m)
        assert Subspace(m.cols, m.data).dim + len(null) == 3
        for v in null:
            assert all(x == 0 for x in m.apply(v))

    def test_sparse_agrees_with_dense(self):
        rows = [{0: rat(1), 2: rat(-1)}, {1: rat(2), 2: rat(2)}]
        vecs = Subspace(3, rows).kernel()
        assert len(vecs) == 1
        for row in rows:
            assert sum(c * vecs[0][j] for j, c in row.items()) == 0


class TestSolve:
    def test_unique_solution(self):
        m = Matrix([[1, 1], [0, 1]])
        x = solve(m, (rat(3), rat(1)))
        assert m.apply(x) == (rat(3), rat(1))

    def test_inconsistent_returns_none(self):
        m = Matrix([[1, 1], [1, 1]])
        assert solve(m, (rat(0), rat(1))) is None


class TestCharPoly:
    @given(st.lists(rationals, min_size=9, max_size=9))
    @settings(max_examples=60)
    def test_cayley_hamilton_3x3(self, entries):
        m = square(3, entries)
        assert horner(char_poly(m), m).is_zero()

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=40)
    def test_cayley_hamilton_up_to_5x5(self, n, data):
        entries = data.draw(st.lists(st.integers(-5, 5),
                                     min_size=n * n, max_size=n * n))
        m = square(n, [rat(x) for x in entries])
        assert horner(char_poly(m), m).is_zero()

    def test_vs_sympy(self):
        rng = random.Random(7)
        for _ in range(10):
            m = square(4, [Q(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(16)])
            p = char_poly(m)
            x = sympy.symbols("x")
            want = to_sympy(m).charpoly(x).as_expr()
            got = sum(sympy.Rational(str(c)) * x ** k
                      for k, c in enumerate(p.coeffs))
            assert sympy.expand(want - got) == 0

    def test_large_companion_is_fast(self):
        n = 64
        rows = [[rat(0)] * n for _ in range(n)]
        for i in range(1, n):
            rows[i][i - 1] = rat(1)
        rows[0][n - 1] = rat(1)
        p = char_poly(Matrix(rows))
        expect = Poly.binomial(n, 1)
        assert p == expect

    def test_nilpotency_index(self):
        nil = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert is_nilpotent(nil) == (True, 3)
        assert is_nilpotent(Matrix.identity(2))[0] is False


class TestPoly:
    @given(st.lists(rationals, min_size=1, max_size=6),
           st.lists(rationals, min_size=1, max_size=4))
    def test_divmod_round_trip(self, a, b):
        p, q = Poly(a), Poly(b)
        if q.degree < 0:
            return
        quot, rem = p.divmod(q)
        assert quot * q + rem == p
        assert rem.degree < q.degree

    @pytest.mark.parametrize("k", range(1, 6))
    def test_binomial_with_zero_constant_is_x_power(self, k):
        p = Poly.binomial(k, 0)
        assert p == Poly([0] * k + [1])
        assert p.degree == k

    @pytest.mark.parametrize("c", [0, 1, 3, Q(-2, 5)])
    def test_binomial_of_degree_zero_is_a_constant(self, c):
        # x^0 - c = 1 - c, not x - c
        p = Poly.binomial(0, c)
        assert p == Poly([1 - Q(c)])
        assert p.degree == (-1 if c == 1 else 0)

    def test_gcd(self):
        p = Poly.binomial(2, rat(1)) * Poly.binomial(1, rat(3))
        q = Poly.binomial(2, rat(1)) * Poly.binomial(1, rat(5))
        g = poly_gcd(p, q)
        assert g.monic() == Poly.binomial(2, rat(1))

    def test_rational_roots_vs_sympy(self):
        p = Poly.binomial(1, rat(2)) * Poly.binomial(1, Q(-1, 3)) \
            * Poly.binomial(1, rat(2))
        roots = rational_roots(p)
        assert dict(roots) == {rat(2): 2, Q(-1, 3): 1}
        x = sympy.symbols("x")
        expr = sympy.prod([(x - 2) ** 2, (x + sympy.Rational(1, 3))])
        for r, mult in roots:
            assert sympy.roots(expr)[sympy.Rational(str(r))] == mult

    def test_rational_roots_large_constant_term(self):
        # candidates come from the factorization of 6 * 10^18, not from
        # trial division up to its square root
        p = Poly([-6 * 10**18, 0, 1]) * Poly.binomial(1, rat(2))
        assert rational_roots(p) == [(rat(2), 1)]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-3000, 3000))
    def test_divisors_vs_trial_division(self, n):
        want = [d for d in range(1, abs(n) + 1) if n % d == 0] or [1]
        assert _divisors(n) == want

    def test_real_root_count(self):
        # x^2 - 2 has two real roots, x^2 + 1 has none
        assert count_real_roots(Poly.binomial(2, rat(2))) == 2
        assert count_real_roots(Poly.binomial(2, rat(-1))) == 0


class TestMinimalPolynomial:
    def test_divides_char_poly(self):
        m = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        mp = minimal_polynomial(m)
        assert mp == Poly.binomial(2, 0)

    def test_diagonal_repeats_collapse(self):
        m = Matrix.diagonal([rat(2), rat(2), rat(3)])
        mp = minimal_polynomial(m)
        assert mp.degree == 2
        assert horner(mp, m).is_zero()


class TestSmith:
    def test_randomized_properties(self):
        rng = random.Random(11)
        for _ in range(50):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            a = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
            d, u, v = smith_normal_form(a)
            prod = [[sum(u[i][k] * a[k][l] * v[l][j]
                         for k in range(r) for l in range(c))
                     for j in range(c)] for i in range(r)]
            assert prod == d
            diag = [d[i][i] for i in range(min(r, c))]
            for x, y in zip(diag, diag[1:]):
                if y != 0:
                    assert x != 0 and y % x == 0

    def test_integer_system(self):
        a = [[2, 0], [0, 3]]
        assert solve_integer_system(a, [4, 9]) == [2, 3]
        assert solve_integer_system(a, [1, 0]) is None

    def test_gf2_system(self):
        sol = solve_gf2_system([[1, 1, 0], [0, 1, 1]], [1, 0])
        assert sol is not None
        assert (sol[0] ^ sol[1]) == 1 and (sol[1] ^ sol[2]) == 0


@given(st.builds(Q, st.integers(-99, 99), st.integers(1, 99)),
       st.builds(Q, st.integers(-99, 99), st.integers(1, 99)))
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
