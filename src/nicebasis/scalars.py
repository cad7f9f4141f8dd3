"""Exact rational scalars.

All arithmetic in this package is exact.  Q is the standard library
Fraction: always stored reduced with a positive denominator, and printed as
"p/q" or "p", which is the serialization used everywhere (files, CLI
output, reports).  The echelon core works on integer rows and meets Q only
at its boundary (see linalg.Subspace).  The input files are read here too:
one line reader and the strict number parsers that name the line they refuse.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INTEGER = re.compile(r"[+-]?[0-9]+")

# Largest dimension (matrix size, graph vertex count or class) any input
# file or constructed algebra may have; larger inputs are refused up front.
DIMENSION_CAP = 256


def rat(value, den=None):
    """Build a rational from an int, a string like "9/32", or a pair.

    Strings must be plain "p" or "p/q" in ASCII digits; decimals and
    exponents ("1.5", "1e999999999") are refused before any big integer is
    built.  A zero denominator raises ValueError, like any other malformed
    value.
    """
    if isinstance(value, str) and not _RATIONAL.fullmatch(value):
        raise ValueError(f"not a rational p or p/q: {value!r}")
    try:
        return Q(value) if den is None else Q(value, den)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


# The lexical rules of the .lie, .graph and .mat input files: a '#' starts a
# comment, blank lines are skipped, and every refusal names its line.


def lines(text: str):
    """(line number, tokens) of each line of text that holds a token once its
    comment is cut, numbered from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if tokens := raw.split("#", 1)[0].split():
            yield lineno, tokens


def parse_int(token: str, what: str, lineno: int, low=None) -> int:
    """Integer from a plain ASCII-digit token of line lineno.

    Any other token ("x", "1_000", "٣") raises ValueError "line N: <what>
    must be an integer"; given low, so does a value outside low..DIMENSION_CAP,
    "line N: <what> must be between <low> and 256".
    """
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"line {lineno}: {what} must be an integer, got {token!r}")
    value = int(token)
    if low is not None and not low <= value <= DIMENSION_CAP:
        raise ValueError(f"line {lineno}: {what} must be between {low} and {DIMENSION_CAP}")
    return value


def parse_rat(token: str, lineno: int):
    """rat(token) for a token of line lineno; a refusal reads "line N: <rat's message>"."""
    try:
        return rat(token)
    except ValueError as err:
        raise ValueError(f"line {lineno}: {err}") from None


def _exact(x, what):
    """x if an int (bools included) or a Fraction, else ValueError naming what and x."""
    if isinstance(x, (int, Q)):
        return x
    raise ValueError(f"{what} {x!r} is not an int or a Fraction")


def fmt(q) -> str:
    """Canonical "p/q" (or "p" for integers) rendering of an int (bools included)
    or a Fraction, built from it; any other value raises _exact's ValueError."""
    return str(q) if isinstance(_exact(q, "value"), Q) else str(int(q))


def sign(q) -> int:
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


class TooLargeToFactor(ValueError):
    """An integer with a cofactor beyond the reach of factor_int."""


# Miller-Rabin with these bases is exact below _MR_BOUND (about 3.3e24).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _certified_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: True only for primes below _MR_BOUND."""
    if n < 2 or n >= _MR_BOUND:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_int(n: int) -> dict:
    """Factorization of a nonzero integer into {prime: exp}.

    Trial division, which stops as soon as the cofactor is a certified
    prime (tested up front and after each prime divided out).  Structure
    constants in this package are small, so this is plenty; a cofactor
    beyond its reach (two prime factors above 10^7, or a prime beyond the
    Miller-Rabin bound) raises TooLargeToFactor rather than stalling.
    """
    n = int(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out = {}
    p = 2
    prime = _certified_prime(n)
    while not prime and p * p <= n:
        if n % p == 0:
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
            prime = _certified_prime(n)
        p += 1 if p == 2 else 2
        if p > 10**7:
            raise TooLargeToFactor("integer too large to factor by trial division")
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
        f[p] = -e  # a reduced numerator and denominator share no prime
    return s, f
