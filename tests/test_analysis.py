"""Differential tests of the almost abelian pipeline: char_poly against sympy,
enumerate_factorizations against a memoized reference recursion written
here, and one binomial-divisor pass per analysis."""

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nicebasis import almost_abelian
from nicebasis.almost_abelian import (
    _binomial_divisors,
    count_nice,
    enumerate_factorizations,
    exists_nice,
    indecomposable_family,
)
from nicebasis.linalg import Matrix, Poly, char_poly
from nicebasis.scalars import Q

X = sympy.Symbol("x")

entries = st.one_of(st.just(Q(0)),
                    st.builds(Q, st.integers(-4, 4), st.integers(1, 3)))


def sympy_char_poly(m):
    s = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(
        int(m[i, j].numerator), int(m[i, j].denominator)))
    coeffs = s.charpoly(X).all_coeffs()  # highest degree first
    return Poly([Q(int(c.p), int(c.q)) for c in reversed(coeffs)])


@st.composite
def square(draw, sizes):
    n = draw(sizes)
    vals = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    return [vals[i * n:(i + 1) * n] for i in range(n)]


class TestCharPolyVsSympy:
    @settings(max_examples=15, deadline=None)
    @given(square(st.integers(9, 16)))
    def test_general_matrices(self, rows):
        n = len(rows)
        rows[n - 1][0] = Q(1)  # below the subdiagonal: not Hessenberg
        m = Matrix(rows)
        assert char_poly(m) == sympy_char_poly(m)

    @settings(max_examples=30, deadline=None)
    @given(square(st.integers(3, 9)), st.data())
    def test_zero_subdiagonal_columns(self, rows, data):
        # a column with nothing below the diagonal is skipped; one with a
        # zero subdiagonal entry but a nonzero entry further down needs a swap
        n = len(rows)
        k = data.draw(st.integers(0, n - 3))
        for i in range(k + 1, n):
            rows[i][k] = Q(0)
        if data.draw(st.booleans()):
            rows[n - 1][k] = Q(2)
        m = Matrix(rows)
        assert char_poly(m) == sympy_char_poly(m)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_signed_permutation_conjugates_of_the_family(self, n, data):
        base = indecomposable_family(n).a
        size = base.rows
        perm = data.draw(st.permutations(range(size)))
        signs = data.draw(st.lists(st.sampled_from((1, -1)),
                                   min_size=size, max_size=size))
        m = Matrix([[signs[i] * signs[j] * base[perm[i], perm[j]]
                     for j in range(size)] for i in range(size)])
        assert char_poly(m) == Poly.binomial(size, 1)


def reference_enumerate(p, memo):
    """Factorizations as sorted tuples: divisors recomputed per quotient,
    memoized by polynomial, deduplicated through a set."""
    key = p.coeffs
    if key in memo:
        return memo[key]
    if p.degree == 0:
        memo[key] = {()}
        return memo[key]
    out = set()
    divisors, _ = _binomial_divisors(p)
    for d, r in divisors:
        quotient = p // Poly.binomial(d, r)
        for rest in reference_enumerate(quotient, memo):
            out.add(tuple(sorted(rest + ((d, r),))))
    memo[key] = out
    return out


binomials = st.tuples(
    st.integers(1, 4),
    st.sampled_from([Q(1), Q(-1), Q(2), Q(-2), Q(4), Q(1, 4), Q(-8), Q(9)]))


class TestEnumerateVsReference:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(binomials, min_size=1, max_size=4))
    def test_random_binomial_products(self, factors):
        p = Poly([1])
        for d, r in factors:
            p = p * Poly.binomial(d, r)
        got = [f.factors for f in enumerate_factorizations(p)]
        assert got == sorted(reference_enumerate(p, {}))
        assert tuple(sorted(factors)) in got

    @pytest.mark.parametrize("k", [1, 2, 6, 8, 12, 16])
    def test_x_power_minus_one(self, k):
        p = Poly.binomial(k, 1)
        got = [f.factors for f in enumerate_factorizations(p)]
        assert got == sorted(reference_enumerate(p, {}))


class TestOneDivisorPass:
    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []

        def counted(p):
            counter.append(p)
            return _binomial_divisors(p)

        monkeypatch.setattr(almost_abelian, "_binomial_divisors", counted)
        return counter

    @pytest.mark.parametrize("a", [
        indecomposable_family(4).a,
        Matrix.diagonal([Q(1), Q(-1), Q(-2), Q(2)]),
        Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 3]]),  # nilpotent block plus 3
    ], ids=["family-4", "diagonal", "mixed"])
    def test_once_per_analysis(self, calls, a):
        almost_abelian._analysis(a)
        assert len(calls) == 1
        count_nice(a)
        exists_nice(a)
        assert len(calls) == 3

    def test_none_for_nilpotent(self, calls):
        almost_abelian._analysis(Matrix([[0, 1], [0, 0]]))
        assert calls == []
