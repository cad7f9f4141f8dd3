"""The coprime base of the scale ratios and its integer root, against sympy, and
against reference_coprime_base, the earlier code that tried every exponent k for
each base element's least root, kept here as written."""

import itertools
import math
import random

import sympy
from hypothesis import given, settings, strategies as st

from nicebasis.scalars import Q, _coprime_base, _iroot, sign

# one integer: a power a^e, times a cofactor, so that bases share factors and powers
POWERS = st.builds(lambda a, e, c: a**e * c, st.integers(1, 60), st.integers(1, 6),
                   st.sampled_from([1, 2, 3, 6, 10, 2**31 - 1, 2**61 - 1]))
RATIOS = st.lists(st.builds(lambda n, d, s: Q(s * n, d), POWERS, POWERS, st.sampled_from([1, -1])),
                  max_size=8)


class TestIRoot:
    @settings(max_examples=300)
    @given(st.integers(1, 10**80), st.integers(1, 70))
    def test_matches_sympy(self, n, k):
        assert _iroot(n, k) == sympy.integer_nthroot(n, k)[0]

    def test_at_and_below_exact_powers(self):
        for r, k in itertools.product((2, 3, 10, 2**61 - 1), range(2, 12)):
            assert _iroot(r**k, k) == r
            assert _iroot(r**k - 1, k) == r - 1
            assert _iroot(r**k + 1, k) == r


class TestCoprimeBase:
    @settings(max_examples=300)
    @given(RATIOS)
    def test_pairwise_coprime_no_powers_and_rebuilds_each_ratio(self, ratios):
        factored = _coprime_base(ratios)
        base = sorted({b for _, f in factored for b in f})
        assert all(b > 1 and not sympy.perfect_power(b) for b in base)
        assert all(math.gcd(b, c) == 1 for b, c in itertools.combinations(base, 2))
        for q, (s, f) in zip(ratios, factored):
            assert 0 not in f.values()
            assert s * math.prod(Q(b) ** e for b, e in f.items()) == q

    def test_perfect_powers_give_their_least_root(self):
        # 4 = 2^2 alone would leave the base {4}; its root 2 carries the exponent
        assert _coprime_base([Q(4), Q(-1, 8), Q(9, 4)]) == [(1, {2: 2}), (-1, {2: -3}),
                                                            (1, {2: -2, 3: 2})]

    def test_large_primes_are_not_factored(self):
        p, q = 2**61 - 1, 2**31 - 1
        assert _coprime_base([Q(1, (p * q) ** 2)]) == [(1, {p * q: -2})]
        assert _coprime_base([Q(p * q), Q(q)]) == [(1, {p: 1, q: 1}), (1, {q: 1})]


def reference_coprime_base(ratios) -> list:
    base, pending = [], [x for q in ratios for x in (abs(q.numerator), q.denominator) if x > 1]
    while pending:
        v = pending.pop()
        for i, b in enumerate(base):
            if (g := math.gcd(v, b)) > 1:
                pending += [x for x in (v // g, base.pop(i) // g, g) if x > 1]
                break
        else:
            base.append(v)

    def exponent(x, b):  # of b > 1 in x != 0, so below x's bit length
        return next(e for e in range(x.bit_length()) if x % b ** (e + 1))

    roots = {b: (r, k) for b in base for k in range(1, b.bit_length())  # the last k is the largest
             if (r := _iroot(b, k)) ** k == b}
    return [(sign(q), {r: e for b, (r, k) in roots.items()
                       if (e := k * (exponent(q.numerator, b) - exponent(q.denominator, b)))})
            for q in ratios]


def seeded_ratios(rng):
    """1..4 signed ratios whose parts are perfect powers r^e (r itself a power at times, e up
    to 60), times 1, a Mersenne prime or a random 1,024-bit odd int, or whole 1,024-bit ints."""
    def part():
        if rng.random() < 0.2:
            return rng.getrandbits(1024) | 1
        r = rng.randint(2, 50) ** rng.choice((1, 1, 2, 3))
        return r ** rng.randint(1, 60) * rng.choice((1, 1, 2**61 - 1, rng.getrandbits(1024) | 1))
    return [Q(rng.choice((1, -1)) * part(), part()) for _ in range(rng.randint(1, 4))]


def test_prime_exponents_match_every_exponent_on_a_seeded_corpus():
    rng, roots = random.Random(58), 0
    for _ in range(50):
        ratios = seeded_ratios(rng)
        got = _coprime_base(ratios)
        assert got == reference_coprime_base(ratios), ratios
        roots += any(abs(e) > 1 for _, f in got for e in f.values())
    assert roots > 30  # least roots of perfect powers were taken
