"""Exact rational scalars.

All arithmetic in this package is exact.  Q is the standard library
Fraction: always stored reduced with a positive denominator, and printed as
"p/q" or "p", which is the serialization used everywhere (files, CLI
output, reports).  The echelon core works on integer rows and meets Q only
at its boundary (see linalg.Subspace).  The input files are read here too:
one line reader and the strict number parsers that name the line they refuse;
parse_rat reads a value as an int, or as a Fraction only when written p/q.
The monomial scales of nice._solve_scales are solved over _coprime_base, a coprime base
of their ratios built by gcds and integer roots: no integer is factored.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_INTEGER = re.compile(r"[+-]?[0-9]+")

# Largest dimension (matrix size, graph vertex count or class) any input
# file or constructed algebra may have; larger inputs are refused up front.
DIMENSION_CAP = 256


def rat(value, den=None):
    """Build a rational from an int, a string like "9/32" (read by _number), or a pair.

    A zero denominator raises ValueError, like any other malformed value.
    """
    if isinstance(value, str):
        value = _number(value)
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


def _number(token: str):
    """The int of a token "p", or Fraction(p, q) of "p/q", in ASCII digits, read off one
    _RATIONAL match; any other token ("1.5", "1e999999999") or a zero q is a ValueError."""
    if not (m := _RATIONAL.fullmatch(token)):
        raise ValueError(f"not a rational p or p/q: {token!r}")
    try:
        return int(m[1]) if m[2] is None else Q(int(m[1]), int(m[2]))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


def parse_int(token: str, what: str, lineno: int, low=None) -> int:
    """Integer from a plain ASCII-digit token of line lineno.

    Any other token ("x", "1_000", "٣") raises ValueError "line N: <what> must be an integer";
    given low, so does a value outside low..DIMENSION_CAP, "line N: <what> must be between
    <low> and 256", and one past int's digit limit, "line N: <int's message>".
    """
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"line {lineno}: {what} must be an integer, got {token!r}")
    try:
        value = int(token)
    except ValueError as err:
        raise ValueError(f"line {lineno}: {err}") from None
    if low is not None and not low <= value <= DIMENSION_CAP:
        raise ValueError(f"line {lineno}: {what} must be between {low} and {DIMENSION_CAP}")
    return value


def parse_rat(token: str, lineno: int):
    """_number(token), rat(token) but an int without "/", for a token of line lineno;
    a refusal reads "line N: <rat's message>"."""
    try:
        return _number(token)
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


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for ints n >= 1, k >= 1: Newton's method in ints, from 2^ceil(bits / k)
    down; each step stays at or above the root and stops once it no longer falls."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def _coprime_base(ratios) -> list:
    """(sign, {b: exponent}) of each nonzero rational of ratios over one base of pairwise
    coprime ints b > 1, none a perfect power, with no integer factored.  Factor refinement
    (Bach, Driscoll and Shallit, J. Algorithms 15, 1993) builds the base from the numerators
    and denominators by gcds alone: while some pending v shares a gcd g > 1 with a base
    element b, the two make way for v / g, b / g and g.  Each element b is then replaced by its
    least root r, b = r^k for the largest such k (_iroot), and its exponents multiplied by k."""
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
