"""The integer root routines and almost abelian analysis against the Fraction
code that they replaced.

rational_roots, _int_roots's real-root count and _binomial_divisors run on Python
ints (primitive pseudo-remainders, exact synthetic division, bisection on one
integer Sturm chain), and _enumerate works on the monic integer transform, by
pairwise coprime sets for a squarefree polynomial and else with a memo of
quotients.  The reference_* functions below are the Fraction versions they
replaced, kept verbatim apart from evaluating p through a helper, spelling Poly
arithmetic with mul, pdivmod and monic, and enumerating the divisor candidates
by the trial division _divisors here; every output is compared with them
in order, and the real-root count also with sympy.  Analysis.count is the
number of factorizations; reference_count groups them by the real-rescaling
search (_same_class and its helpers) that it replaced, and
TestRescalingLemma checks that the search merges nothing.
"""

import importlib
import itertools
import math
import pkgutil
import random
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import nicebasis
from nicebasis import almost_abelian
from nicebasis.almost_abelian import (
    BinomialFactorization,
    _binomial_divisors,
    _enumerate,
    _squarefree_part,
    analyze,
    count_nice,
    indecomposable_family,
    load_matrix,
)
from nicebasis.linalg import (
    Matrix,
    Poly,
    _convolve,
    _divide,
    _int_roots,
    _radical,
    char_poly,
    int_gcd,
    int_prem,
    primitive,
    rational_roots,
)
from nicebasis.scalars import Q, ZERO, ONE

X = sympy.Symbol("x")
FIX = Path(__file__).resolve().parent.parent / "fixtures"


# --- Poly arithmetic over Q for the references (src/ has none) -------------


def mul(*polys) -> Poly:
    return Poly(reduce(_convolve, (p.coeffs for p in polys), [ONE]))


def derivative(p: Poly) -> Poly:
    return Poly([c * k for k, c in enumerate(p.coeffs) if k])


def monic(p: Poly) -> Poly:
    return Poly([c / p.coeffs[-1] for c in p.coeffs]) if p.coeffs else p


def pdivmod(a: Poly, b: Poly):
    """(quotient, remainder) of a by nonzero b over Q, by long division."""
    rem, d = list(a.coeffs), b.degree
    q = [ZERO] * max(0, len(rem) - d)
    for k in range(len(rem) - 1, d - 1, -1):
        q[k - d] = f = rem[k] / b.coeffs[-1]
        for j, c in enumerate(b.coeffs):
            rem[k - d + j] -= f * c
    return Poly(q), Poly(rem)


def factorizations(p: Poly):
    """The BinomialFactorizations of monic p, sorted, each multiset once."""
    squarefree = _squarefree_part(p)[1]
    return [BinomialFactorization(t) for t in _enumerate(p, _binomial_divisors(p)[0], squarefree)]


# --- the Fraction references ------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over Q."""
    while not b.is_zero():
        a, b = b, pdivmod(a, b)[1]
    return monic(a)


def _evaluate(p, x):
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _divisors(n):
    """Sorted positive divisors of |n| ([1] for 0), by trial division up to its square root."""
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)}) or [1]


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
                        p = pdivmod(p, Poly([-cand, ONE]))[0]
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
    p = monic(pdivmod(p, poly_gcd(p, derivative(p)))[0])  # squarefree part
    chain = [p, derivative(p)]
    while not chain[-1].is_zero():
        chain.append(mul(Poly([-1]), pdivmod(chain[-2], chain[-1])[1]))
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
                h = pdivmod(h, Poly([-root, ONE]))[0]
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


def _bezout(values):
    """Coefficients a_i with sum a_i * values_i = gcd(values)."""
    g, coeffs = values[0], [1] + [0] * (len(values) - 1)
    for idx in range(1, len(values)):
        g, x, y = _ext_gcd(g, values[idx])
        coeffs = [c * x for c in coeffs]
        coeffs[idx] = y
    return g, coeffs


def _ext_gcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def _eta_exists(pairs):
    """Is there a real eta with eta**n_i == q_i for every (n_i, q_i)?

    Exact: with g = gcd(n_i) and m_i = n_i/g, any solution has tau = eta**g
    rational, recoverable by a Bezout combination of the q_i.
    """
    ns = [n for n, _ in pairs]
    qs = [q for _, q in pairs]
    g = reduce(math.gcd, ns)
    ms = [n // g for n in ns]
    _, coeffs = _bezout(ms)
    tau = ONE
    for q, a in zip(qs, coeffs):
        tau *= Q(q) ** a
    if any(tau**m != q for m, q in zip(ms, qs)):
        return False
    return g % 2 == 1 or tau > 0


def _same_class(f1, f2) -> bool:
    """Does a real rescaling eta relate two factorizations of one polynomial?
    A search over the matchings of equal-degree factors."""
    if f1.factors == f2.factors:
        return True
    deg1 = sorted(d for d, _ in f1.factors)
    deg2 = sorted(d for d, _ in f2.factors)
    if deg1 != deg2:
        return False
    by_deg1, by_deg2 = {}, {}
    for d, r in f1.factors:
        by_deg1.setdefault(d, []).append(r)
    for d, r in f2.factors:
        by_deg2.setdefault(d, []).append(r)
    degrees = sorted(by_deg1)
    perms_per_degree = [
        list(itertools.permutations(range(len(by_deg2[d])))) for d in degrees
    ]
    for combo in itertools.product(*perms_per_degree):
        pairs = []
        for d, perm in zip(degrees, combo):
            for i, r1 in enumerate(by_deg1[d]):
                pairs.append((d, r1 / by_deg2[d][perm[i]]))
        if _eta_exists(pairs):
            return True
    return False


def reference_count(analysis):
    """Analysis.count grouping factorizations by the real-rescaling search."""
    if analysis.nilpotent:
        return 1
    if not analysis.semisimple:
        return 0
    if analysis.irrational:
        return None
    classes = []
    for f in analysis.factorizations:
        if not any(_same_class(f, rep) for rep in classes):
            classes.append(f)
    return len(classes)


def sympy_poly(p: Poly) -> sympy.Poly:
    coeffs = [sympy.Rational(int(c.numerator), int(c.denominator)) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, X, domain="QQ")


def sympy_real_root_count(p: Poly) -> int:
    return sympy_poly(p).count_roots()


# --- inputs -----------------------------------------------------------------

rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
random_polys = st.lists(rationals, min_size=1, max_size=8).map(Poly).filter(
    lambda p: not p.is_zero())

# den·x - num with zero roots and denominators above 1, and irreducible
# quadratics with real (x^2 - 2, x^2 - 3x + 1) and complex (x^2 + 1) roots
linear = st.builds(lambda num, den: Poly([-num, den]), st.integers(-4, 4), st.integers(1, 3))
QUADRATICS = [Poly([-2, 0, 1]), Poly([1, 0, 1]), Poly([1, -3, 1]), Poly([3, 0, 2])]
quadratic = st.sampled_from(QUADRATICS)


@st.composite
def factor_products(draw):
    p = Poly([draw(st.sampled_from([Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-5, 3)]))])
    for f in draw(st.lists(st.one_of(linear, linear, quadratic), min_size=1, max_size=6)):
        p = mul(p, f)
        if draw(st.integers(0, 3)) == 0:
            p = mul(p, f)  # a repeated factor
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
        got = _int_roots(p.ints)[1]
        assert got == reference_count_real_roots(p)
        assert got == sympy_real_root_count(p)

    @pytest.mark.parametrize("seed", range(4))
    def test_real_root_count_of_repeated_factors_vs_sympy(self, seed):
        # the Sturm chain of a p that is not squarefree ends at gcd(p, p'), a factor of
        # every term, so its sign variations at -inf and +inf count the distinct real
        # roots with no division by that gcd first; sympy counts on its squarefree part
        rng = random.Random(seed)
        for _ in range(50):
            p = Poly([rng.choice([Q(1), Q(-2), Q(1, 2), Q(-5, 3)])])
            for _ in range(rng.randint(1, 4)):
                linear_factor = Poly([rng.randint(-4, 4), rng.randint(1, 3)])
                f = rng.choice([linear_factor, linear_factor, *QUADRATICS])
                p = mul(p, *[f] * rng.randint(1, 3))
            assert _int_roots(p.ints)[1] == sympy_poly(p).sqf_part().count_roots()

    @settings(max_examples=80, deadline=None)
    @given(inputs)
    def test_radical_vs_sympy(self, p):
        # the squarefree part up to a scalar, x once when x divides p
        got = sympy.Poly(list(reversed(_radical(p.ints))), X, domain="QQ")
        assert got.monic() == sympy_poly(p).sqf_part().monic()

    @settings(max_examples=60, deadline=None)
    @given(inputs)
    def test_binomial_divisors(self, p):
        assert _binomial_divisors(p) == reference_binomial_divisors(p)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(-3, 3).filter(bool)),
                    min_size=1, max_size=4), st.sampled_from([1, 2, 3]))
    def test_binomial_divisors_of_binomial_products(self, factors, scale):
        p = mul(*(Poly.binomial(d, Q(r, scale**d)) for d, r in factors))
        assert _binomial_divisors(p) == reference_binomial_divisors(p)

    def test_irrational_flag(self):
        # x^2 - 2 splits only over R; x^2 + 1 not at all
        assert _binomial_divisors(mul(Poly.binomial(2, 2), Poly.binomial(1, 3))) == (
            [(1, Q(3)), (2, Q(2))], True)
        assert _binomial_divisors(mul(Poly([1, 0, 1]), Poly.binomial(1, 3))) == (
            [(1, Q(3)), (2, Q(-1))], False)


class TestIntegerHelpers:
    @settings(max_examples=60, deadline=None)
    @given(random_polys)
    def test_primitive(self, p):
        c = primitive(p.coeffs)
        assert math.gcd(*c) == 1
        assert monic(Poly(c)) == monic(p)
        assert (c[-1] > 0) == (p.coeffs[-1] > 0)

    @settings(max_examples=60, deadline=None)
    @given(random_polys, random_polys)
    def test_prem_is_a_positive_multiple_of_the_remainder(self, a, b):
        rem = Poly(int_prem(primitive(a.coeffs), primitive(b.coeffs)))
        want = pdivmod(a, b)[1]
        assert monic(rem) == monic(want)
        if not want.is_zero():
            assert (rem.coeffs[-1] > 0) == (want.coeffs[-1] > 0)

    @settings(max_examples=60, deadline=None)
    @given(inputs)
    def test_exact_quotient_by_the_gcd_with_the_derivative(self, p):
        # an exact quotient in Z[x], as similar takes of phi by mu
        g = int_gcd(p.coeffs, derivative(p).coeffs)
        want = primitive(pdivmod(p, Poly(g))[0].coeffs)
        assert _divide(primitive(p.coeffs), g) == want

    @settings(max_examples=80, deadline=None)
    @given(inputs, st.one_of(linear, random_polys), st.booleans())
    def test_divide_is_none_when_inexact(self, p, g, times):
        # rational_roots divides by den x - num at every candidate, most not roots
        if times:
            p = mul(p, g)
        q, r = pdivmod(p, g)
        want = primitive(q.coeffs) if r.is_zero() else None
        assert _divide(primitive(p.coeffs), primitive(g.coeffs)) == want

    @pytest.mark.parametrize("c, g, want", [
        ([-1, 0, 0, 0, 1], [1, 0, 1], [-1, 0, 1]),
        ([0, 0, 0, 1], [0, 1], [0, 0, 1]),
        ([1, 0, 0, 0, 1], [1, 0, 1], None),
        ([2, 0, 3], [1, 2], None),
    ], ids=["x^4-1-by-x^2+1", "x^3-by-x", "x^4+1-by-x^2+1", "lead-does-not-divide"])
    def test_divide_on_sparse_divisors(self, c, g, want):
        # g's zero lower terms are skipped; 3 / 2 at the first step is inexact
        assert _divide(c, g) == want

    @settings(max_examples=60, deadline=None)
    @given(inputs, inputs)
    def test_gcd(self, a, b):
        assert monic(Poly(int_gcd(a.coeffs, b.coeffs))) == poly_gcd(a, b)


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
        got = analyze(a)
        got_exists = got.exists()
        monkeypatch.setattr(almost_abelian, "_binomial_divisors", reference_binomial_divisors)
        # the reference takes no squarefree flag: it replaces both paths of _enumerate
        monkeypatch.setattr(almost_abelian, "_enumerate",
                            lambda p, divisors, squarefree: reference_enumerate(p, divisors))
        analyze.cache_clear()
        want = analyze(a)
        want_exists = want.exists()
        assert got.factorizations == want.factorizations
        assert all(isinstance(r, Q) for f in got.factorizations for _, r in f.factors)
        assert got.irrational == want.irrational
        assert got.semisimple == want.semisimple
        assert (got_exists.status, got_exists.witness) == (want_exists.status, want_exists.witness)
        assert got.count() == reference_count(want)

    def test_corpus_covers_every_verdict(self):
        statuses = {analyze(a).exists().status for a in corpus()}
        assert statuses == {"yes", "no", "unknown-irrational"}


class TestFamilyPins:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_count_and_existence(self, n):
        analysis = analyze(indecomposable_family(n).a)
        assert analysis.count() == n
        assert analysis.exists().status == "yes"

    @pytest.mark.parametrize("n", range(2, 7))
    def test_factorizations_match_reference(self, n):
        p = Poly.binomial(2 ** (n - 1), 1)
        divisors, _ = reference_binomial_divisors(p)
        want = [BinomialFactorization(t) for t in reference_enumerate(p, divisors)]
        assert list(analyze(indecomposable_family(n).a).factorizations) == want


# --- the rational roots come off the Sturm chain, with no factoring --------


def finder_corpus():
    """Char polys of the family at n = 2..8, of every .mat fixture and of 600
    random integer matrices of size 2..5 with entries -3..3."""
    mats = [indecomposable_family(n).a for n in range(2, 9)]
    mats += [load_matrix(path) for path in sorted(FIX.glob("*.mat"))]
    rng = random.Random(5)
    for _ in range(600):
        n = rng.randint(2, 5)
        mats.append(Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
    return [char_poly(a) for a in mats]


def planted(rng):
    """A product of 1..4 factors (den x - num)^mult with 20..80-bit entries, times
    1, x^2 - 2, x^2 + x + 1 or x^3 - 2, and its rational roots as _int_roots gives them."""
    c, roots = [rng.choice([1, -1, 2, 3])], Counter()
    for _ in range(rng.randint(1, 4)):
        bits = rng.randint(20, 80)
        root = Q(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits))
        mult = rng.randint(1, 2)
        roots[root.numerator, root.denominator] += mult
        for _ in range(mult):
            c = _convolve(c, [-root.numerator, root.denominator])
    c = _convolve(c, rng.choice([[1], [-2, 0, 1], [1, 1, 1], [-2, 0, 0, 1]]))
    return c, sorted(((num, den, m) for (num, den), m in roots.items()),
                     key=lambda t: (t[1], t[0]))


class TestSturmRootFinder:
    def test_no_module_defines_or_imports_a_factorizer(self):
        # roots come off the Sturm chain and scales off a coprime base: no module of the
        # package holds an integer factorizer, its prime certificate or its refusal
        factorizers = {"factor_int", "factor_rat", "factorint", "_certified_prime",
                       "TooLargeToFactor"}
        for info in pkgutil.iter_modules(nicebasis.__path__):
            module = importlib.import_module(f"nicebasis.{info.name}")
            assert not factorizers & set(vars(module)), info.name

    def test_int_roots_match_reference_on_char_polys(self):
        for p in finder_corpus():
            got = [(Q(num, den), mult) for num, den, mult in _int_roots(p.ints)[0]]
            assert got == reference_rational_roots(p), p

    def test_zero_polynomial_is_refused(self):
        for finder in (_int_roots, _radical):
            with pytest.raises(ValueError):
                finder([])

    def test_planted_roots_with_multiplicities(self):
        rng = random.Random(9)
        for _ in range(100):
            c, want = planted(rng)
            assert _int_roots(c)[0] == want, c


# --- Analysis.count is the number of factorizations -------------------------


def cyclic(k):
    """The k x k cyclic shift, char_poly x^k - 1."""
    return Matrix([[1 if i == (j + 1) % k else 0 for j in range(k)] for i in range(k)])


def search_size(facts):
    """Matchings the reference search may try over all pairs of facts."""
    size = 0
    for f1, f2 in itertools.combinations(facts, 2):
        degrees = Counter(d for d, _ in f1.factors)
        if degrees == Counter(d for d, _ in f2.factors):
            size += math.prod(math.factorial(c) for c in degrees.values())
    return size


constants = [Q(s) * c for c in (1, 2, 3, 4, Q(1, 2), 8, 9) for s in (1, -1)]
binomial_lists = st.lists(st.tuples(st.integers(1, 4), st.sampled_from(constants)),
                          min_size=1, max_size=5)

# not in fixtures/, which the tests iterate over: the reference search takes
# about 14 s on it
DIAGONAL_16 = [1, 1, 1, -1, -1, -1, 2, -2, 4, -4]


class TestRescalingLemma:
    @settings(max_examples=150, deadline=None)
    @given(binomial_lists)
    def test_search_merges_no_two_factorizations(self, binomials):
        p = mul(*(Poly.binomial(d, r) for d, r in binomials))
        facts = factorizations(p)
        # the search is factorial in the factors of one degree; the lemma
        # covers the larger products, the pins below some of them
        assume(search_size(facts) <= 5040)
        for f1, f2 in itertools.combinations(facts, 2):
            assert not _same_class(f1, f2)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_x_power_minus_one(self, k):
        analysis = analyze(cyclic(k))
        assert analysis.count() == reference_count(analysis) == len(analysis.factorizations)

    def test_repeated_diagonal(self):
        a = Matrix.diagonal([Q(x) for x in (1, 1, -1, -1, 2, 2, -2, -2)])
        analysis = analyze(a)
        assert analysis.count() == reference_count(analysis) == 9

    def test_sixteen_factorizations(self):
        a = Matrix.diagonal([Q(x) for x in DIAGONAL_16])
        assert count_nice(a) == 16 == len(analyze(a).factorizations)
