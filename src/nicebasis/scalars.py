"""Exact rational scalars.

All arithmetic in this package is exact.  We use gmpy2's mpq when it is
available (it is considerably faster on large dense eliminations) and fall
back to the standard library Fraction otherwise.  Both types are hash- and
comparison-compatible, always stored reduced with a positive denominator,
and print as "p/q" or "p", which is the serialization used everywhere
(files, CLI output, reports).
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


def rat(value, den=None):
    """Build a rational from an int, a string like "9/32", or a pair.

    A zero denominator raises ValueError, like any other malformed value.
    """
    try:
        return Q(value) if den is None else Q(value, den)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def fmt(q) -> str:
    """Canonical "p/q" (or "p" for integers) rendering."""
    return str(Q(q))


def sign(q) -> int:
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


def factor_int(n: int) -> dict:
    """Trial-division factorization of a nonzero integer into {prime: exp}.

    Structure constants in this package are small, so trial division is
    plenty; raises on |n| beyond desk scale rather than stalling.
    """
    n = int(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
        if p > 10**7:
            raise ValueError("integer too large to factor by trial division")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def factor_rat(q) -> tuple[int, dict]:
    """Sign and {prime: exponent} (exponents may be negative) of a nonzero rational."""
    q = Q(q)
    if q == 0:
        raise ValueError("cannot factor zero")
    s = 1 if q > 0 else -1
    f = factor_int(q.numerator)
    for p, e in factor_int(q.denominator).items():
        f[p] = f.get(p, 0) - e
        if f[p] == 0:
            del f[p]
    return s, f
