"""The integer root routines and almost abelian analysis against the Fraction
code that they replaced.

rational_roots, count_real_roots and _binomial_divisors now run on Python
ints (primitive pseudo-remainders, exact synthetic division, integer Sturm
chains), and _enumerate works on the monic integer transform with a memo of
quotients.  The reference_* functions below are the Fraction versions they
replaced, kept verbatim apart from evaluating p through a helper; every
output is compared with them in order, and the real-root count also with
sympy.
"""

import math
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nicebasis import almost_abelian
from nicebasis.almost_abelian import (
    BinomialFactorization,
    _analysis,
    _binomial_divisors,
    factorizations_equivalent,
    indecomposable_family,
)
from nicebasis.linalg import (
    Matrix,
    Poly,
    _divisors,
    count_real_roots,
    int_gcd,
    int_prem,
    poly_gcd,
    primitive,
    rational_roots,
)
from nicebasis.scalars import Q, ZERO, ONE

X = sympy.Symbol("x")


# --- the Fraction references ------------------------------------------------


def _evaluate(p, x):
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def reference_rational_roots(p: Poly):
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root set")
    roots = []
    k = 0
    while p.coeffs[k] == 0:
        k += 1
    if k:
        roots.append((ZERO, k))
        p = Poly(p.coeffs[k:])
    if p.degree == 0:
        return roots
    denom_lcm = 1
    for c in p.coeffs:
        denom_lcm = math.lcm(denom_lcm, int(c.denominator))
    ints = [int(c * denom_lcm) for c in p.coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])
    for num in _divisors(a0):
        for den in _divisors(an):
            for s in (1, -1):
                cand = Q(s * num, den)
                if _evaluate(p, cand) == 0:
                    mult = 0
                    while _evaluate(p, cand) == 0:
                        p = p // Poly([-cand, ONE])
                        mult += 1
                    roots.append((cand, mult))
                if p.degree == 0:
                    roots.sort(key=lambda t: (t[0].denominator, t[0]))
                    return roots
    roots.sort(key=lambda t: (t[0].denominator, t[0]))
    return roots


def reference_count_real_roots(p: Poly) -> int:
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return 0
    p = (p // poly_gcd(p, p.derivative())).monic()  # squarefree part
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()

    def variations(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    def sign_at_inf(q, positive):
        lead = q.coeffs[-1]
        s = 1 if lead > 0 else -1
        if not positive and q.degree % 2 == 1:
            s = -s
        return s

    at_minus = [sign_at_inf(q, False) for q in chain]
    at_plus = [sign_at_inf(q, True) for q in chain]
    return variations(at_minus) - variations(at_plus)


def reference_binomial_divisors(p: Poly):
    divisors = []
    irrational = False
    for d in range(1, p.degree + 1):
        residues = [[] for _ in range(d)]
        for k, c in enumerate(p.coeffs):
            lst = residues[k % d]
            t = k // d
            while len(lst) <= t:
                lst.append(ZERO)
            lst[t] = lst[t] + c
        g = Poly([])
        for lst in residues:
            g = poly_gcd(g, Poly(lst))
        if g.is_zero() or g.degree == 0:
            continue
        h = g
        for root, mult in reference_rational_roots(g):
            for _ in range(mult):
                h = h // Poly([-root, ONE])
            if root != 0:
                divisors.append((d, root))
        if h.degree > 0 and reference_count_real_roots(h) > 0:
            irrational = True
    return sorted(divisors), irrational


def reference_divide_binomial(p: Poly, d, r):
    c = p.coeffs
    q = [ZERO] * len(c)
    for k in range(len(c) - d - 1, -1, -1):
        q[k] = c[k + d] + r * q[k + d] if q[k + d] else c[k + d]
    if any(c[k] + r * q[k] for k in range(min(d, len(c)))):
        return None
    return Poly(q)


def reference_enumerate(p: Poly, divisors, start=0):
    if p.degree == 0:
        return [()]
    out = []
    for idx in range(start, len(divisors)):
        d, r = divisors[idx]
        if d > p.degree:
            break
        quotient = reference_divide_binomial(p, d, r)
        if quotient is not None:
            out.extend(((d, r),) + rest for rest in reference_enumerate(quotient, divisors, idx))
    return out


def reference_count(analysis):
    """Analysis.count with every pair compared through the public test."""
    if analysis.nilpotent:
        return 1
    if not analysis.semisimple:
        return 0
    if analysis.irrational:
        return None
    classes = []
    for f in analysis.factorizations:
        if not any(factorizations_equivalent(f, rep) for rep in classes):
            classes.append(f)
    return len(classes)


def sympy_real_root_count(p: Poly) -> int:
    coeffs = [sympy.Rational(int(c.numerator), int(c.denominator)) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, X, domain="QQ").count_roots()


# --- inputs -----------------------------------------------------------------

rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
random_polys = st.lists(rationals, min_size=1, max_size=8).map(Poly).filter(
    lambda p: not p.is_zero())

# den·x - num with zero roots and denominators above 1, and irreducible
# quadratics with real (x^2 - 2, x^2 - 3x + 1) and complex (x^2 + 1) roots
linear = st.builds(lambda num, den: Poly([-num, den]), st.integers(-4, 4), st.integers(1, 3))
quadratic = st.sampled_from([Poly([-2, 0, 1]), Poly([1, 0, 1]), Poly([1, -3, 1]),
                             Poly([3, 0, 2])])


@st.composite
def factor_products(draw):
    p = Poly([draw(st.sampled_from([Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-5, 3)]))])
    for f in draw(st.lists(st.one_of(linear, linear, quadratic), min_size=1, max_size=6)):
        p = p * f
        if draw(st.integers(0, 3)) == 0:
            p = p * f  # a repeated factor
    return p


inputs = st.one_of(random_polys, factor_products())


class TestRootsVsFractionReference:
    @settings(max_examples=80, deadline=None)
    @given(inputs)
    def test_rational_roots(self, p):
        assert rational_roots(p) == reference_rational_roots(p)

    @settings(max_examples=80, deadline=None)
    @given(inputs)
    def test_real_root_count(self, p):
        got = count_real_roots(p)
        assert got == reference_count_real_roots(p)
        assert got == sympy_real_root_count(p)

    @settings(max_examples=60, deadline=None)
    @given(inputs)
    def test_binomial_divisors(self, p):
        assert _binomial_divisors(p) == reference_binomial_divisors(p)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(-3, 3).filter(bool)),
                    min_size=1, max_size=4), st.sampled_from([1, 2, 3]))
    def test_binomial_divisors_of_binomial_products(self, factors, scale):
        p = Poly([1])
        for d, r in factors:
            p = p * Poly.binomial(d, Q(r, scale**d))
        assert _binomial_divisors(p) == reference_binomial_divisors(p)

    def test_irrational_flag(self):
        # x^2 - 2 splits only over R; x^2 + 1 not at all
        assert _binomial_divisors(Poly.binomial(2, 2) * Poly.binomial(1, 3)) == (
            [(1, Q(3)), (2, Q(2))], True)
        assert _binomial_divisors(Poly([1, 0, 1]) * Poly.binomial(1, 3)) == (
            [(1, Q(3)), (2, Q(-1))], False)


class TestIntegerHelpers:
    @settings(max_examples=60, deadline=None)
    @given(random_polys)
    def test_primitive(self, p):
        c = primitive(p.coeffs)
        assert math.gcd(*c) == 1
        assert Poly(c).monic() == p.monic()
        assert (c[-1] > 0) == (p.coeffs[-1] > 0)

    @settings(max_examples=60, deadline=None)
    @given(random_polys, random_polys)
    def test_prem_is_a_positive_multiple_of_the_remainder(self, a, b):
        rem = Poly(int_prem(primitive(a.coeffs), primitive(b.coeffs)))
        want = a % b
        assert rem.monic() == want.monic()
        if not want.is_zero():
            assert (rem.coeffs[-1] > 0) == (want.coeffs[-1] > 0)

    @settings(max_examples=60, deadline=None)
    @given(inputs, inputs)
    def test_gcd(self, a, b):
        assert Poly(int_gcd(a.coeffs, b.coeffs)).monic() == poly_gcd(a, b)


def random_matrix(rng):
    n = rng.randint(2, 5)
    if rng.random() < 0.5:
        return Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    return Matrix([[Q(rng.randint(-6, 6), 4) for _ in range(n)] for _ in range(n)])


def corpus():
    out = []
    for seed in (0, 1):
        rng = random.Random(seed)
        out += [random_matrix(rng) for _ in range(30)]
    return out


class TestVerdictCorpus:
    @pytest.mark.parametrize("a", corpus())
    def test_analysis_matches_reference_pipeline(self, monkeypatch, a):
        got = _analysis(a)
        got_exists = got.exists()
        monkeypatch.setattr(almost_abelian, "_binomial_divisors", reference_binomial_divisors)
        monkeypatch.setattr(almost_abelian, "_enumerate", reference_enumerate)
        want = _analysis(a)
        want_exists = want.exists()
        assert got.factorizations == want.factorizations
        assert all(isinstance(r, Q) for f in got.factorizations for _, r in f.factors)
        assert got.irrational == want.irrational
        assert got.semisimple == want.semisimple
        assert (got_exists.status, got_exists.witness) == (want_exists.status, want_exists.witness)
        assert got.count() == reference_count(want)

    def test_corpus_covers_every_verdict(self):
        statuses = {_analysis(a).exists().status for a in corpus()}
        assert statuses == {"yes", "no", "unknown-irrational"}


class TestFamilyPins:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_count_and_existence(self, n):
        analysis = _analysis(indecomposable_family(n).a)
        assert analysis.count() == n
        assert analysis.exists().status == "yes"

    @pytest.mark.parametrize("n", range(2, 7))
    def test_factorizations_match_reference(self, n):
        p = Poly.binomial(2 ** (n - 1), 1)
        divisors, _ = reference_binomial_divisors(p)
        want = [BinomialFactorization(t) for t in reference_enumerate(p, divisors)]
        assert list(_analysis(indecomposable_family(n).a).factorizations) == want
