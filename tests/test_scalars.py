"""factor_int and its prime certificate, against sympy."""

import sympy
from hypothesis import given, settings, strategies as st

from nicebasis.scalars import _MR_BOUND, _certified_prime, factor_int

# primes beyond the trial-division limit 10^7, below the Miller-Rabin bound
LARGE_PRIMES = [10000019, 2**31 - 1, 2**61 - 1, 100000000000000000039]


class TestCertifiedPrime:
    def test_small_integers(self):
        assert [n for n in range(3000) if _certified_prime(n)] == \
            list(sympy.primerange(0, 3000))

    def test_strong_pseudoprimes_are_caught(self):
        # strong pseudoprimes to all prime bases up to 23 and up to 37
        for n in (3825123056546413051, 318665857834031151167461):
            assert not sympy.isprime(n)
            assert not _certified_prime(n)

    def test_nothing_is_certified_from_the_bound_on(self):
        # the bound itself is a strong pseudoprime to every base up to 41
        assert not _certified_prime(_MR_BOUND)
        assert not _certified_prime(sympy.nextprime(_MR_BOUND))

    def test_large_primes(self):
        assert all(_certified_prime(p) for p in LARGE_PRIMES)


class TestFactorInt:
    @settings(max_examples=200)
    @given(st.integers(1, 10**6), st.sampled_from([1] + LARGE_PRIMES),
           st.booleans())
    def test_matches_sympy(self, small, big, negative):
        n = small * big * (-1 if negative else 1)
        assert factor_int(n) == sympy.factorint(abs(n))

    def test_prime_power_times_large_prime(self):
        assert factor_int(2**10 * 3 * (2**61 - 1)) == {2: 10, 3: 1, 2**61 - 1: 1}
