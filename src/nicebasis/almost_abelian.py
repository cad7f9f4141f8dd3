"""Almost abelian algebras R f + R^n with [f, X] = AX.

Nice-basis existence and the exact count of nice bases up to equivalence are
controlled by binomial factorizations x^d - r of the characteristic
polynomial of A: existence needs the non-nilpotent part of A to be
semisimple and its characteristic polynomial to split into such binomials;
the count is the number of such factorizations, because a real rescaling
can map a factorization only to itself (the lemma in
factorizations_equivalent).  Constants are searched over the rationals;
when an irrational real constant could occur the answer degrades honestly
to "unknown-irrational" instead of guessing.  The search runs on Python
ints: integer gcds of the residue classes give the divisors, and
factorizations are enumerated on the monic integer transform of the
polynomial, each quotient split once per call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .scalars import Q, ZERO, ONE, fmt, parse_int, rat
from .lie import DIMENSION_CAP, LieAlgebra
from .linalg import (
    Matrix,
    Poly,
    Subspace,
    apply_columns,
    char_poly,
    count_real_roots,
    dense,
    int_gcd,
    kernel_chain,
    minimal_polynomial,
    primitive,
    rational_roots,
    similar,
    sparse_columns,
)
from .nice import check_nice


class ZeroConstantTerm(ValueError):
    pass


class DegreeMismatchWithTarget(ValueError):
    pass


@dataclass(frozen=True)
class AlmostAbelian:
    a: Matrix
    compiled: LieAlgebra


def build(a: Matrix) -> AlmostAbelian:
    """R f + R^n from A; f is basis index 0, [f, X_i] = column i of A."""
    if not a.is_square():
        raise ValueError("matrix must be square")
    n = a.rows
    table = {}
    for i in range(n):
        col = {k + 1: a.data[k][i] for k in range(n) if a.data[k][i] != 0}
        if col:
            table[(0, i + 1)] = col
    names = ["f"] + [f"X{i+1}" for i in range(n)]
    return AlmostAbelian(a, LieAlgebra(n + 1, table, names=names))


@dataclass(frozen=True)
class BinomialFactorization:
    """Multiset of factors (degree, constant) with product the target poly."""

    factors: tuple  # sorted tuple of (int degree, rational constant)

    @staticmethod
    def of(pairs):
        factors = tuple(sorted((int(d), Q(r)) for d, r in pairs))
        if any(d < 1 for d, _ in factors):
            raise ValueError("binomial factors need degree at least 1")
        return BinomialFactorization(factors)

    def product(self) -> Poly:
        p = Poly([ONE])
        for d, r in self.factors:
            p = p * Poly.binomial(d, r)
        return p

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
    valid constants are the roots of their integer gcd, taken on p's
    primitive integer multiple and stopped once it reaches degree 0.  The
    flag records whether a common root is real but irrational, in which
    case the rational enumeration misses real factorizations.
    """
    c = primitive(p.coeffs)
    support = [k for k, x in enumerate(c) if x]
    divisors, irrational = [], False
    for d in range(1, len(c)):
        classes = {}
        for k in support:
            classes.setdefault(k % d, [0] * ((len(c) - 1 - k % d) // d + 1))[k // d] = c[k]
        g = []
        for cls in classes.values():
            g = int_gcd(g, cls)
            if len(g) == 1:
                break
        if len(g) > 1:
            g = Poly(g)
            roots = rational_roots(g)
            divisors += [(d, r) for r, _ in roots if r]
            if sum(m for _, m in roots) < g.degree and count_real_roots(g) > len(roots):
                irrational = True
    return sorted(divisors), irrational


def _divide_binomial(c, d, r):
    """c / (x^d - r) on int coefficients, lowest first, when exact, else None.

    One pass from the top: q_k = c_(k+d) + r q_(k+d); the remainder terms
    c_k + r q_k, k < d, must all vanish, and the first one that does not
    ends the test.
    """
    q = list(c[d:])
    for k in range(len(q) - d - 1, -1, -1):
        q[k] += r * q[k + d]
    if any(c[k] + r * q[k] if k < len(q) else c[k] for k in range(min(d, len(c)))):
        return None
    return tuple(q)


def _enumerate(p: Poly, divisors):
    """Factorizations of monic p over divisors as sorted tuples, each once.

    divisors lists, sorted, every binomial dividing p.  The work runs on the
    monic integer L^n p(y/L), L the lcm of p's denominators, where x^d - r
    becomes y^d - L^d r, an integer binomial by Gauss's lemma.  Each
    quotient's factorizations are found once per call; factor i takes the
    tails from index i on, so the tuples come out in lexicographic order.
    """
    n, scale = p.degree, math.lcm(*(c.denominator for c in p.coeffs))
    binomials = [(d, int(r * scale**d)) for d, r in divisors]
    memo = {(1,): [()]}

    def walk(c):
        if c not in memo:
            out = memo[c] = []
            for i, (d, r) in enumerate(binomials):
                if d >= len(c):
                    break
                q = _divide_binomial(c, d, r)
                if q is not None:
                    out.extend((i,) + t for t in walk(q) if not t or t[0] >= i)
        return memo[c]

    top = tuple(int(x * scale ** (n - k)) for k, x in enumerate(p.coeffs))
    return [tuple(divisors[i] for i in t) for t in walk(top)]


def enumerate_factorizations(p: Poly):
    """All factorizations of p into rational-constant binomials.

    p must be monic with nonzero constant term.  Returned as a sorted list
    of BinomialFactorization, each multiset once.
    """
    if p.is_zero() or p.coeffs[0] == 0:
        raise ZeroConstantTerm("constant term must be nonzero")
    if p.coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    divisors, _ = _binomial_divisors(p)
    return [BinomialFactorization(t) for t in _enumerate(p, divisors)]


def factorizations_equivalent(f1: BinomialFactorization, f2: BinomialFactorization) -> bool:
    """Same factorization up to rescaling the basis by a real eta.

    Only equal multisets are equivalent.  If r1 = eta^d r2 factor by factor,
    then p(x) = eta^n p(x/eta), so eta permutes the roots of p and, as
    p(0) != 0, |eta| = 1.  For eta = -1 only odd-degree constants change
    sign; after the common even factors, each root modulus rho gives, with
    x = rho y, y^d - 1 = prod_(e|d) Phi_e and y^d + 1 = prod_(e|d) Phi_2e for
    odd d.  Equal multiplicities of Phi_e and Phi_2e for each odd e give, by
    Moebius inversion, as many +r as -r factors of each degree: f1 = f2.
    """
    if f1.product() != f2.product():
        raise DegreeMismatchWithTarget("factorizations have different targets")
    return f1.factors == f2.factors


@dataclass(frozen=True)
class ExistsVerdict:
    status: str  # "yes" | "no" | "unknown-irrational"
    witness: Matrix | None = None  # basis columns for the compiled algebra
    reason: str | None = None
    factorization: BinomialFactorization | None = None

    def __bool__(self):
        return self.status == "yes"


@dataclass(frozen=True)
class Analysis:
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
            return ExistsVerdict(
                "no", reason="non-nilpotent part of A is not semisimple"
            )
        if self.factorizations:
            fact = self.factorizations[0]
            witness = _witness_basis(self.a, fact)
            return ExistsVerdict("yes", witness=witness, factorization=fact)
        if self.irrational:
            return ExistsVerdict(
                "unknown-irrational",
                reason="characteristic polynomial may split with irrational constants",
            )
        return ExistsVerdict(
            "no",
            reason="nonzero spectrum is not a union of full root sets"
            " (no real binomial factorization exists)",
        )

    def count(self):
        """Nice bases up to equivalence, or None (unknown-irrational)."""
        if self.nilpotent:
            return 1
        if not self.semisimple:
            return 0
        if self.irrational:
            return None
        return len(self.factorizations)


def analyze(a: Matrix) -> Analysis:
    q = char_poly(a)
    while q.coeffs[0] == 0:
        q = Poly(q.coeffs[1:])
    if q.degree == 0:
        return Analysis(a, nilpotent=True)
    # semisimplicity of the non-nilpotent part: the minimal polynomial with
    # its x-power stripped must be squarefree
    mp = minimal_polynomial(a)
    while mp.coeffs[0] == 0:
        mp = Poly(mp.coeffs[1:])
    semisimple = len(int_gcd(mp.coeffs, mp.derivative().coeffs)) == 1
    divisors, irrational = _binomial_divisors(q)
    facts = tuple(BinomialFactorization(t) for t in _enumerate(q, divisors))
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
    """Nice basis columns for the compiled algebra: f, then chain vectors.

    Nilpotent part: Jordan chains w, Aw, ... (subdiagonal-ones blocks).
    Each binomial factor (d, r): a cyclic chain w, Aw, ..., A^{d-1}w inside
    ker(A^d - r).  The assembled basis is verified nice before returning.
    """
    n = a.rows
    cols = sparse_columns(a)
    chains = _nilpotent_chains(a, cols)
    span = Subspace(n)
    for ch in chains:
        for v in ch:
            if not span.add(v):
                raise RuntimeError("dependent nilpotent chain vectors")
    if fact is not None:
        squares = [cols]  # A^(2^k), shared by the factors' powers
        for d, r in fact.factors:
            chain = _cyclic_chain(squares, d, r, span)
            chains.append(chain)
            for v in chain:
                if not span.add(v):
                    raise RuntimeError("dependent cyclic chain vectors")
    if span.dim != n:
        raise RuntimeError("witness chains do not span")
    basis = [tuple([ONE] + [ZERO] * n)]
    for ch in chains:
        basis.extend((ZERO,) + dense(v, n) for v in ch)
    witness = Matrix.from_columns(basis)
    compiled = build(a).compiled
    if not check_nice(compiled.change_basis(witness)):
        raise RuntimeError("constructed witness basis is not nice")
    return witness


def _nilpotent_chains(a: Matrix, cols):
    """Jordan chains w, Aw, ... of A's nilpotent part, as sparse vectors."""
    n = a.rows
    kernels = kernel_chain(a)
    s = len(kernels) - 1  # nilpotency index on the nilpotent part
    chains = []
    covered = Subspace(n)
    for i in range(s, 0, -1):
        seen = Subspace(n, [k.rows[p] for k in (kernels[i - 1], covered) for p in k.pivots])
        for v in (kernels[i].rows[p] for p in kernels[i].pivots):
            if seen.add(v):
                chain = [v]
                for _ in range(i - 1):
                    chain.append(apply_columns(cols, chain[-1]))
                chains.append(chain)
                for w in chain:
                    covered.add(w)
                    seen.add(w)
    return chains


def _cyclic_chain(squares, d, r, existing: Subspace):
    """Sparse chain w, Aw, ..., A^(d-1)w in ker(A^d - r), independent of existing.

    squares[k] holds the sparse columns of A^(2^k); squares[0] are A's, and
    the list grows as needed, so one witness squares A at most log2(n)
    times in all.  A^d is the product of the squares its binary digits
    select, each product applying one column set to the other, and the
    kernel is read off the rows of A^d - r, the same canonical basis
    nullspace(A^d - r) returns.
    """
    cols = squares[0]
    n = len(cols)
    power, k, t = None, d, 0
    while k:
        if t == len(squares):
            squares.append([apply_columns(squares[-1], c) for c in squares[-1]])
        if k & 1:
            power = squares[t] if power is None else [apply_columns(squares[t], c) for c in power]
        k >>= 1
        t += 1
    rows = [{} for _ in range(n)]
    for j, col in enumerate(power):
        for i, x in col.items():
            rows[i][j] = x
        x = rows[j].get(j, ZERO) - r
        if x:
            rows[j][j] = x
        else:
            rows[j].pop(j, None)
    kernel = Subspace(n, rows).sparse_kernel()
    if len(kernel) < d:
        raise RuntimeError("factor kernel too small")
    for w in _cyclic_candidates(kernel):
        chain = [w]
        for _ in range(d - 1):
            chain.append(apply_columns(cols, chain[-1]))
        trial = existing.copy()
        if all(trial.add(v) for v in chain):
            return chain
    raise RuntimeError("no cyclic vector found for factor")


def _cyclic_candidates(kernel):
    """Kernel vectors, then every u + v, the prefix sums, every u + 2v, lazily."""
    yield from kernel
    for uv in itertools.combinations(kernel, 2):
        yield apply_columns(uv, {0: ONE, 1: ONE})
    prefix = kernel[0]
    for v in kernel[1:]:
        prefix = apply_columns((prefix, v), {0: ONE, 1: ONE})
        yield prefix
    for uv in itertools.combinations(kernel, 2):
        yield apply_columns(uv, {0: ONE, 1: Q(2)})


def indecomposable_family(n: int) -> AlmostAbelian:
    """Cyclic 2^(n-1) x 2^(n-1) matrix whose algebra has exactly n nice bases."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > 8:
        raise ValueError("family capped at n = 8 (matrix size 128)")
    size = 2 ** (n - 1)
    m = [[ZERO] * size for _ in range(size)]
    for i in range(1, size):
        m[i][i - 1] = ONE
    m[0][size - 1] = ONE
    return build(Matrix(m))


def iso_test_almost_abelian(a: Matrix, b: Matrix):
    """Sufficient isomorphism test: is a similar to c*b for some rational c?

    Candidate scalars come from ratios of characteristic coefficients; the
    similarity check is exact but incomplete past size 3 when the spectrum
    is not rational, so a None result means "not established", not "not
    isomorphic".
    """
    if a.rows != b.rows:
        return None
    n = a.rows
    pa, pb = char_poly(a), char_poly(b)
    candidates = set()
    for k in range(1, n + 1):
        ca, cb = pa.coeffs[n - k], pb.coeffs[n - k]
        if (ca == 0) != (cb == 0):
            return None
        if cb != 0:
            for root, _ in rational_roots(Poly.binomial(k, ca / cb)):
                if root != 0:
                    candidates.add(root)
    if not candidates:
        candidates = {ONE}  # both nilpotent: scaling preserves Jordan type
    # positive scalars first, then by magnitude, for a stable simplest witness
    for c in sorted(candidates, key=lambda x: (x < 0, abs(x))):
        if similar(a, b * c) is True:
            return c, "similar"
    return None


# --- matrix file format: first line n, then n rows of rationals ---


def parse_matrix(text: str) -> Matrix:
    tokens = []  # (line number, token)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens.extend((lineno, tok) for tok in raw.split("#", 1)[0].split())
    if not tokens:
        raise ValueError("empty matrix file")
    lineno, size = tokens[0]
    n = parse_int(size, "matrix size", lineno)
    if not 0 <= n <= DIMENSION_CAP:
        raise ValueError(f"line {lineno}: matrix size must be between 0 and {DIMENSION_CAP}")
    if len(tokens) - 1 != n * n:
        raise ValueError(f"expected {n*n} entries, got {len(tokens) - 1}")
    vals = []
    for lineno, tok in tokens[1:]:
        try:
            vals.append(rat(tok))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    return Matrix([vals[i * n : (i + 1) * n] for i in range(n)])


def serialize_matrix(a: Matrix) -> str:
    lines = [str(a.rows)]
    for row in a.data:
        lines.append(" ".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def load_matrix(path) -> Matrix:
    with open(path) as fh:
        return parse_matrix(fh.read())


def save_matrix(a: Matrix, path):
    with open(path, "w") as fh:
        fh.write(serialize_matrix(a))
