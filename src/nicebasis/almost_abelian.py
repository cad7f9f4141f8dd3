"""Almost abelian algebras R f + R^n with [f, X] = AX.

Nice-basis existence and the exact count of nice bases up to equivalence are
controlled by binomial factorizations x^d - r of the characteristic
polynomial of A: existence needs the non-nilpotent part of A to be
semisimple and its characteristic polynomial to split into such binomials;
the count is the number of such factorizations, because a real rescaling
can map a factorization only to itself (the lemma in
Analysis.count).  Constants are searched over the rationals;
when an irrational real constant could occur the answer degrades honestly
to "unknown-irrational" instead of guessing.  The search runs on Python
ints: integer gcds of the residue classes give the divisors.  A squarefree
polynomial's factorizations are the sets of pairwise coprime divisors, by a
root test on the constants; otherwise a walk divides each quotient by the
binomials with linalg._divide, once per quotient (_enumerate).  Only analyze,
shared by exists_nice and count_nice, reads them.  A witness is built in ints
too: each cyclic chain starts at g(A) v, read off one Krylov sequence of v by
the image lemma im g(A) = ker f(A) (see _witness_basis), with no power of A and
no kernel; the chains are eliminated once in one span, which proves the basis
invertible, and certified by the core of change_basis, LieAlgebra._rebased.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .scalars import DIMENSION_CAP, ONE, Q, fmt, lines, parse_int, parse_rat
from . import fixtures
from .lie import LieAlgebra
from .linalg import (
    Matrix,
    Poly,
    Subspace,
    _convolve,
    _divide,
    _int_roots,
    _radical,
    _scaled,
    _similar,
    apply_columns,
    char_poly,
    int_gcd,
    kernel_chain,
    minimal_polynomial,
    rational_roots,
)
from .nice import check_nice


class AlmostAbelian(NamedTuple):
    a: Matrix
    compiled: LieAlgebra


def build(a: Matrix) -> AlmostAbelian:
    """R f + R^n from A; f is basis index 0, [f, X_i] = column i of A."""
    if not a.is_square():
        raise ValueError("matrix must be square")
    n = a.rows
    table = {(0, i + 1): ({k + 1: x for k, x in col.items()}, 1)
             for i, col in enumerate(a.num) if col}
    names = ["f"] + [f"X{i+1}" for i in range(n)]
    return AlmostAbelian(a, LieAlgebra._from_table(n + 1, table, a.den, names, check=True))


class BinomialFactorization(NamedTuple):
    """Multiset of factors (degree, constant) with product the target poly."""

    factors: tuple  # sorted tuple of (int degree, rational constant)

    @staticmethod
    def of(pairs):
        factors = tuple(sorted((int(d), Q(r)) for d, r in pairs))
        if any(d < 1 for d, _ in factors):
            raise ValueError("binomial factors need degree at least 1")
        return BinomialFactorization(factors)

    @property
    def degree(self):
        return sum(d for d, _ in self.factors)

    def __str__(self):
        parts = []
        for d, r in self.factors:
            x = "x" if d == 1 else f"x^{d}"
            op, mag = ("+", -r) if r < 0 else ("-", r)
            parts.append(f"({x} {op} {fmt(mag)})")
        return " ".join(parts)


def _binomial_divisors(p: Poly):
    """Sorted rational binomial divisors (d, r) of p, and an irrational flag.

    For each degree d, the remainder of p modulo x^d - r has coefficients
    that are polynomials in r, one per nonzero residue class of exponents;
    valid constants are the roots of their integer gcd, taken on p.ints and
    stopped once it reaches degree 0.  The flag records whether a common root
    is real but irrational, in which case the rational enumeration misses real
    factorizations.  A Fraction is made per constant, nothing else.
    """
    c = p.ints
    support = [k for k, x in enumerate(c) if x]
    divisors, irrational = [], False
    for d in range(1, len(c)):
        classes = {}
        for k in reversed(support):  # from the top, so that no class ends in a zero
            classes.setdefault(k % d, [0] * (k // d + 1))[k // d] = c[k]
        # their gcd, from the least top exponent, stopped at a constant; content changes no root
        g = functools.reduce(lambda g, cls: int_gcd(g, cls) if len(g) > 1 else g,
                             reversed(classes.values()))
        if len(g) > 1:
            roots, real = _int_roots(g)
            divisors += [(d, Q(num, den)) for num, den, _ in roots if num]
            irrational |= real > len(roots)
    return sorted(divisors), irrational


def _clashes(binomials):
    """For each den x^a - num of binomials (a, num, den), the mask of those sharing a root
    with it, itself included: r^u = s^v for g = gcd(a, b), u = b/g, v = a/g (the lemma in
    _enumerate), cross-multiplied in ints."""
    return [sum(1 << j for j, (b, m, e) in enumerate(binomials)
                if num ** (u := b // (g := math.gcd(a, b))) * e ** (v := a // g) == m**v * den**u)
            for a, num, den in binomials]


def _enumerate(p: Poly, divisors, squarefree):
    """Factorizations of monic p over divisors (sorted (d, r), each x^d - r dividing p) as
    sorted tuples, each once, in lexicographic order of divisor indices.

    Lemma: for r, s != 0 and g = gcd(a, b), x^a - r and x^b - s share a root iff
    r^(b/g) = s^(a/g), and then their gcd is x^g - t, t = r^u s^v, ua + vb = g: a
    common root alpha gives r^(b/g) = alpha^(ab/g) = s^(a/g), and t^(a/g) = r,
    t^(b/g) = s.  So for squarefree p the factorizations are the sets of pairwise
    coprime divisors whose degrees sum to deg p, which sets(i, left, banned) lists
    from index i on by one clash mask per divisor (_clashes), dividing nothing.  Otherwise
    factors may share a root, as x^2 - 1 and x^3 - 1 do in their product: walk(c, i)
    lists, once per call, the factorizations of the quotient c, from p.ints, by divisors
    i on, each next quotient by the primitive den x^d - num, r = num / den in lowest terms,
    taken with _divide, the one division in Z[x]: exact there iff in Q[x], both being
    primitive (Gauss's lemma).
    """
    binomials = [(d, r.numerator, r.denominator) for d, r in divisors]
    if squarefree:
        clash = _clashes(binomials)

        def sets(start, left, banned):
            if not left:
                yield ()
            for i, (d, _) in enumerate(divisors[start:], start):
                if d > left:
                    break
                if not banned >> i & 1:
                    yield from ((i,) + t for t in sets(i + 1, left - d, banned | clash[i]))

        return [tuple(divisors[i] for i in t) for t in sets(0, p.degree, 0)]

    @functools.cache
    def walk(c, start):
        if len(c) == 1:
            return [()]
        out = []
        for i, (d, num, den) in enumerate(binomials[start:], start):
            if d >= len(c):
                break
            q = _divide(c, [-num] + [0] * (d - 1) + [den])
            if q is not None:
                out.extend((i,) + t for t in walk(tuple(q), i))
        return out

    return [tuple(divisors[i] for i in t) for t in walk(p.ints, 0)]


class ExistsVerdict(NamedTuple):
    status: str  # "yes" | "no" | "unknown-irrational"
    witness: Matrix | None = None  # basis columns for the compiled algebra
    reason: str | None = None
    factorization: BinomialFactorization | None = None

    def __bool__(self):
        return self.status == "yes"


class Analysis(NamedTuple):
    """What existence and count read off A, computed once per matrix."""

    a: Matrix
    nilpotent: bool
    semisimple: bool = True  # of the non-nilpotent part
    factorizations: tuple = ()  # sorted BinomialFactorization of char_poly(A) / x^k
    irrational: bool = False  # char_poly(A) / x^k may split with irrational constants

    def exists(self) -> ExistsVerdict:
        """yes with a verified witness, no with a reason, or unknown-irrational."""
        if self.nilpotent:
            return ExistsVerdict("yes", witness=_witness_basis(self.a, None))
        if not self.semisimple:
            return ExistsVerdict("no", reason="non-nilpotent part of A is not semisimple")
        if self.factorizations:
            fact = self.factorizations[0]
            return ExistsVerdict("yes", witness=_witness_basis(self.a, fact), factorization=fact)
        if self.irrational:
            return ExistsVerdict("unknown-irrational", reason="characteristic polynomial may"
                                 " split with irrational constants")
        return ExistsVerdict("no", reason="nonzero spectrum is not a union of full root sets"
                             " (no real binomial factorization exists)")

    def count(self):
        """Nice bases up to equivalence, or None (unknown-irrational): the
        number of binomial factorizations of p = char_poly(A) / x^k, since a
        real rescaling eta of the basis maps a factorization only to itself.

        Only equal multisets are equivalent.  If r1 = eta^d r2 factor by factor,
        then p(x) = eta^n p(x/eta), so eta permutes the roots of p and, as
        p(0) != 0, |eta| = 1.  For eta = -1 only odd-degree constants change
        sign; after the common even factors, each root modulus rho gives, with
        x = rho y, y^d - 1 = prod_(e|d) Phi_e and y^d + 1 = prod_(e|d) Phi_2e for
        odd d.  Equal multiplicities of Phi_e and Phi_2e for each odd e give, by
        Moebius inversion, as many +r as -r factors of each degree: f1 = f2.
        An Analysis is a tuple, and this count shadows tuple.count.
        """
        if self.nilpotent:
            return 1
        if not self.semisimple:
            return 0
        if self.irrational:
            return None
        return len(self.factorizations)


def _squarefree_part(p: Poly):
    """(q = p / x^k, whether q is squarefree) for monic p, x^k the highest power of x dividing
    p: iff q's _radical, whose chain _binomial_divisors reuses, has q's degree."""
    q = p.ints[next(k for k, x in enumerate(p.ints) if x):]
    return _scaled(q, 1), len(_radical(q)) == len(q)


@functools.lru_cache(maxsize=1)  # count_nice(a) then exists_nice(a) share one
def analyze(a: Matrix) -> Analysis:
    """The non-nilpotent part of A is semisimple iff mp / x^j is squarefree
    (mp the minimal polynomial, x^j its x-power).  mp / x^j divides q / x^k (q
    the characteristic polynomial: same nonzero roots, none more often), and
    a divisor of a squarefree polynomial is squarefree, so a squarefree
    q / x^k decides without mp."""
    q, squarefree = _squarefree_part(char_poly(a))
    if q.degree == 0:
        return Analysis(a, nilpotent=True)
    semisimple = squarefree or _squarefree_part(minimal_polynomial(a))[1]
    divisors, irrational = _binomial_divisors(q)
    facts = tuple(BinomialFactorization(t) for t in _enumerate(q, divisors, squarefree))
    return Analysis(a, False, semisimple, facts, irrational)


_analysis = analyze  # the earlier name, which perfbench/tracing.py wraps


def exists_nice(a: Matrix) -> ExistsVerdict:
    """Does R f + R^n built on a admit a nice basis?

    yes comes with an explicit witness basis (columns, compiled algebra
    coordinates, f first), verified nice before being returned.
    """
    return analyze(a).exists()


def count_nice(a: Matrix):
    """Number of nice bases up to equivalence, or None (unknown-irrational)."""
    return analyze(a).count()


def _witness_basis(a: Matrix, fact):
    """Nice basis columns for the compiled algebra: f, then chain vectors v / e,
    given as pairs (v, e) of an int vector and a denominator.

    Nilpotent part: Jordan chains w, Aw, ... (subdiagonal-ones blocks), none when
    fact has degree n (A invertible).  Factor f_i = x^d - r of q, the product of
    fact: a cyclic chain w, Aw, ..., A^(d-1)w for w = g_i(A) v, g_i = x^k rad(q) / f_i
    (k = n - deg q, rad(q) = q / gcd(q, q') up to sign, q's _radical, and
    rad(q) = q when they are pairwise coprime (_clashes), as for a squarefree q), read
    off the int Krylov sequence of the candidate v, one per call for all factors,
    and added to the one span of the chains by _cyclic_chain.  No power of A and
    no kernel is formed.  Each chain vector grew the span, so span.dim == n proves them
    independent, and with f = e_0 outside their coordinates 1..n the basis is invertible:
    check_nice reads LieAlgebra._rebased, the core of change_basis, with no second elimination.

    The image lemma, im g_i(A) = ker f_i(A): the non-nilpotent part is semisimple
    and f_i, squarefree, divides rad(q), so g_i(A) kills the nilpotent part and
    every primary component outside f_i, and is invertible on those inside it.
    The curve bound: v is bad when w lacks a constituent of f_i (its component 0
    or inside the earlier chains, which hold one copy per factor): a proper
    subspace of ker f_i(A).  So the bad v lie in at most d proper subspaces,
    their preimages under g_i(A), each holding at most n - 1 points sum_j t^j e_j
    (a nonzero polynomial in t of degree < n), and one of t = 0..d(n-1) serves.
    """
    n = a.rows
    chains, span = ([], Subspace(n)) if fact and fact.degree == n else _nilpotent_chains(a)
    if fact is not None:
        triples = [(d, r.numerator, r.denominator) for d, r in fact.factors]
        binomials = [[-num] + [0] * (d - 1) + [den] for d, num, den in triples]
        rad = q = functools.reduce(_convolve, binomials)
        if any(mask & (mask - 1) for mask in _clashes(triples)):  # two factors share a root
            rad = _radical(q)
        krylov = {}  # candidate number -> v, Nv, ...: kept for this call only
        for (d, _), f in zip(fact.factors, binomials):
            g = [0] * (n - fact.degree) + _divide(rad, f)
            chain, span = _cyclic_chain(a, g, d, krylov, span)
            chains.append(chain)
    if span.dim != n:
        raise RuntimeError("witness chains do not span")
    den = math.lcm(*[e for ch in chains for _, e in ch])
    witness = Matrix._of(n + 1, [{0: den}] + [{k + 1: x * (den // e) for k, x in v.items()}
                                              for ch in chains for v, e in ch], den)
    if not check_nice(build(a).compiled._rebased(witness)):
        raise RuntimeError("constructed witness basis is not nice")
    return witness


def _nilpotent_chains(a: Matrix):
    """Jordan chains w, Aw, ... of A's nilpotent part, as (int vector, denominator)
    pairs from a primitive row v / v_p of ker A^i, and the Subspace they span."""
    n, cols = a.rows, a.num
    kernels = kernel_chain(a)
    chains, covered = [], Subspace(n)
    for i in range(len(kernels) - 1, 0, -1):  # from the nilpotency index down
        seen = Subspace(n, [*kernels[i - 1].rows.values(), *covered.rows.values()])
        for p, v in sorted(kernels[i].rows.items()):
            if seen.add(v):
                chain = [(v, v[p])]
                for _ in range(i - 1):
                    chain.append((apply_columns(cols, chain[-1][0]), chain[-1][1] * a.den))
                chains.append(chain)
                for w, _ in chain:
                    if not covered.add(w):
                        raise RuntimeError("dependent nilpotent chain vectors")
                    seen.add(w)
    return chains, covered


def _cyclic_chain(a: Matrix, g, d, krylov, existing: Subspace):
    """Chain w, Aw, ..., A^(d-1)w, w on the line of g(A) v for the first candidate
    v whose chain is independent of existing, as (int vector, denominator)
    pairs, and existing grown by it.  A = N / den, D = deg g; krylov maps a
    candidate's number to its sequence v, Nv, ..., grown here to N^(D+d-1) v.
    N^j W, W = den^D g(A) v, is sum_t g_t den^(D-t) N^(t+j) v; for W = c w, w
    primitive and positive at its highest index, the chain is N^j w / den^j (divided only
    if c != 1), int dicts with no zeros, each added once to a copy of existing by _add.
    """
    n, den, top = a.rows, a.den, len(g) - 1
    weights = {t: x * den ** (top - t) for t, x in enumerate(g) if x}
    for key, v in enumerate(_cyclic_candidates(n, d)):
        seq = krylov.setdefault(key, [v])
        while len(seq) < top + d:
            seq.append(apply_columns(a.num, seq[-1]))
        images = [apply_columns(seq, {t + j: x for t, x in weights.items()}) for j in range(d)]
        if w := images[0]:
            c = math.gcd(*w.values()) * (1 if w[max(w)] > 0 else -1)
            chain = images if c == 1 else [{i: x // c for i, x in u.items()} for u in images]
            trial = existing.copy()
            if all(map(trial._add, chain)):
                return [(u, den**j) for j, u in enumerate(chain)], trial
    raise RuntimeError("no cyclic vector found for factor")


def _cyclic_candidates(n, d):
    """e_0, ..., e_(n-1), then sum_j t^j e_j for t = 0..d(n-1), lazily."""
    yield from ({i: 1} for i in range(n))
    for t in range(d * (n - 1) + 1):
        yield {j: t**j for j in range(n) if t**j}


def indecomposable_family(n: int) -> AlmostAbelian:
    """Cyclic 2^(n-1) x 2^(n-1) matrix whose algebra has exactly n nice bases."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > (DIMENSION_CAP - 1).bit_length():  # 2^(n-1) + 1 > DIMENSION_CAP, with no power formed
        size = 2 ** (n - 1) + 1 if n <= DIMENSION_CAP else f"2^{n - 1} + 1"
        raise ValueError(f"dimension {size} exceeds {DIMENSION_CAP}")
    return build(fixtures.matrix_cyclic(2 ** (n - 1)))


def iso_test_almost_abelian(a: Matrix, b: Matrix):
    """Sufficient isomorphism test: is a similar to c*b for some rational c?

    Each candidate scalar is decided by the exact similarity test.  A valid c
    has c^k = a_k / b_k at every k (a_k, b_k the coefficients of x^(n-k) in the
    characteristic polynomials), so the nonzero rational roots of one binomial,
    at b's first b_k != 0, hold them all; with none, c = 1 is tried, which for
    a nilpotent b decides, as scaling preserves Jordan type.  Only rational c
    are tried, so a None result means "not established", not "not isomorphic".
    """
    if a.rows != b.rows:
        return None
    n, phi, pb = a.rows, char_poly(a), char_poly(b).coeffs
    k = next((k for k in range(1, n + 1) if pb[n - k]), None)
    roots = rational_roots(Poly.binomial(k, phi.coeffs[n - k] / pb[n - k])) if k else []
    mu = functools.cache(lambda: minimal_polynomial(a).ints)  # a's invariants, once per call
    # positive scalars first, then by magnitude, for a stable simplest witness
    for c in sorted((r for r, _ in roots if r), key=lambda x: (x < 0, abs(x))) or [ONE]:
        if _similar(a, phi.ints, mu, b * c):
            return c, "similar"
    return None


# --- matrix file format: first line n, then n rows of rationals ---


def parse_matrix(text: str) -> Matrix:
    tokens = [(lineno, tok) for lineno, toks in lines(text) for tok in toks]
    if not tokens:
        raise ValueError("empty matrix file")
    lineno, size = tokens[0]
    n = parse_int(size, "matrix size", lineno, low=0)
    if len(tokens) - 1 != n * n:
        raise ValueError(f"expected {n*n} entries, got {len(tokens) - 1}")
    vals = [parse_rat(tok, lineno) for lineno, tok in tokens[1:]]
    return Matrix([vals[i * n : (i + 1) * n] for i in range(n)])


def serialize_matrix(a: Matrix) -> str:
    rows = [str(a.rows)] + [" ".join(fmt(x) for x in row) for row in a.data]
    return "\n".join(rows) + "\n"


def load_matrix(path) -> Matrix:
    with open(path) as fh:
        return parse_matrix(fh.read())
