"""Almost abelian algebras R f + R^n with [f, X] = AX.

Nice-basis existence and the exact count of nice bases up to equivalence are
controlled by binomial factorizations x^d - r of the characteristic
polynomial of A: existence needs the non-nilpotent part of A to be
semisimple and its characteristic polynomial to split into such binomials;
the count is the number of factorization classes under the real-rescaling
equivalence.  Constants are searched over the rationals; when an irrational
real constant could occur the answer degrades honestly to
"unknown-irrational" instead of guessing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

from .scalars import Q, ZERO, ONE, rat, fmt
from .lie import LieAlgebra
from .linalg import (
    Matrix,
    Poly,
    Subspace,
    char_poly,
    count_real_roots,
    minimal_polynomial,
    nullspace,
    poly_gcd,
    rational_roots,
    similar,
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
        return BinomialFactorization(tuple(sorted((int(d), Q(r)) for d, r in pairs)))

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
    """Rational binomial divisors (d, r) of p, plus an irrational-root flag.

    For each degree d, the remainder of p modulo x^d - r has coefficients
    that are polynomials in r; valid constants are their common roots.  The
    flag records whether any common root is real but irrational, in which
    case the rational enumeration misses real factorizations.
    """
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
        for root, mult in rational_roots(g):
            for _ in range(mult):
                h = h // Poly([-root, ONE])
            if root != 0:
                divisors.append((d, root))
        if h.degree > 0 and count_real_roots(h) > 0:
            irrational = True
    return divisors, irrational


def _enumerate(p: Poly, memo):
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
        for rest in _enumerate(quotient, memo):
            out.add(tuple(sorted(rest + ((d, r),))))
    memo[key] = out
    return out


def enumerate_factorizations(p: Poly):
    """All factorizations of p into rational-constant binomials.

    p must be monic with nonzero constant term.  Returned as a sorted list
    of BinomialFactorization (raw multisets, before equivalence grouping).
    """
    if p.is_zero() or p.coeffs[0] == 0:
        raise ZeroConstantTerm("constant term must be nonzero")
    if p.coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    raw = _enumerate(p, {})
    return [BinomialFactorization.of(t) for t in sorted(raw)]


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


def factorizations_equivalent(f1: BinomialFactorization, f2: BinomialFactorization) -> bool:
    """Same factorization up to rescaling the basis by a real eta."""
    if f1.product() != f2.product():
        raise DegreeMismatchWithTarget("factorizations have different targets")
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


@dataclass(frozen=True)
class ExistsVerdict:
    status: str  # "yes" | "no" | "unknown-irrational"
    witness: Matrix | None = None  # basis columns for the compiled algebra
    reason: str | None = None
    factorization: BinomialFactorization | None = None
    numeric_hint: tuple | None = None

    def __bool__(self):
        return self.status == "yes"


def _analysis(a: Matrix):
    """Shared existence/count analysis; returns a dict of intermediate data."""
    n = a.rows
    phi = char_poly(a)
    zero_mult = 0
    q = phi
    while q.coeffs and q.coeffs[0] == 0:
        q = Poly(q.coeffs[1:])
        zero_mult += 1
    out = {"phi": phi, "zero_mult": zero_mult, "reduced": q, "n": n}
    if zero_mult == n:
        out["nilpotent"] = True
        out["factorizations"] = []
        return out
    out["nilpotent"] = False
    # semisimplicity of the non-nilpotent part: the minimal polynomial with
    # its x-power stripped must be squarefree
    mp = minimal_polynomial(a)
    while mp.coeffs[0] == 0:
        mp = Poly(mp.coeffs[1:])
    out["semisimple"] = poly_gcd(mp, mp.derivative()).degree == 0
    facts = set(_enumerate(q, {}))
    _, irrational = _binomial_divisors(q)
    out["factorizations"] = sorted(facts)
    out["irrational"] = irrational
    return out


def exists_nice(a: Matrix) -> ExistsVerdict:
    """Does R f + R^n built on a admit a nice basis?

    yes comes with an explicit witness basis (columns, compiled algebra
    coordinates, f first), verified nice before being returned.
    """
    return _exists(a, _analysis(a))


def _exists(a: Matrix, data) -> ExistsVerdict:
    if data["nilpotent"]:
        witness = _witness_basis(a, None)
        return ExistsVerdict("yes", witness=witness)
    if not data["semisimple"]:
        return ExistsVerdict(
            "no", reason="non-nilpotent part of A is not semisimple"
        )
    if data["factorizations"]:
        fact = BinomialFactorization.of(data["factorizations"][0])
        witness = _witness_basis(a, fact)
        return ExistsVerdict("yes", witness=witness, factorization=fact)
    if data["irrational"]:
        return ExistsVerdict(
            "unknown-irrational",
            reason="characteristic polynomial may split with irrational constants",
            numeric_hint=_numeric_hint(data["reduced"]),
        )
    return ExistsVerdict(
        "no",
        reason="nonzero spectrum is not a union of full root sets"
        " (no real binomial factorization exists)",
    )


def count_nice(a: Matrix):
    """Number of nice bases up to equivalence, or None (unknown-irrational)."""
    return _count(_analysis(a))


def _count(data):
    if data["nilpotent"]:
        return 1
    if not data["semisimple"]:
        return 0
    if data["irrational"]:
        return None
    facts = [BinomialFactorization.of(t) for t in data["factorizations"]]
    if not facts:
        return 0
    classes = []
    for f in facts:
        if not any(factorizations_equivalent(f, rep) for rep in classes):
            classes.append(f)
    return len(classes)


def _witness_basis(a: Matrix, fact):
    """Nice basis columns for the compiled algebra: f, then chain vectors.

    Nilpotent part: Jordan chains w, Aw, ... (subdiagonal-ones blocks).
    Each binomial factor (d, r): a cyclic chain w, Aw, ..., A^{d-1}w inside
    ker(A^d - r).  The assembled basis is verified nice before returning.
    """
    n = a.rows
    chains = _nilpotent_chains(a)
    span = Subspace(n)
    for ch in chains:
        for v in ch:
            if not span.add(v):
                raise RuntimeError("dependent nilpotent chain vectors")
    if fact is not None:
        for d, r in fact.factors:
            chain = _cyclic_chain(a, d, r, span)
            chains.append(chain)
            for v in chain:
                if not span.add(v):
                    raise RuntimeError("dependent cyclic chain vectors")
    if span.dim != n:
        raise RuntimeError("witness chains do not span")
    cols = [tuple([ONE] + [ZERO] * n)]
    for ch in chains:
        cols.extend(tuple([ZERO] + list(v)) for v in ch)
    witness = Matrix.from_columns(cols)
    compiled = build(a).compiled
    if not check_nice(compiled.change_basis(witness)):
        raise RuntimeError("constructed witness basis is not nice")
    return witness


def _nilpotent_chains(a: Matrix):
    n = a.rows
    kernels = [Subspace(n)]
    power = Matrix.identity(n)
    while True:
        power = power * a
        k = Subspace(n, nullspace(power))
        if k.dim == kernels[-1].dim:
            break
        kernels.append(k)
    s = len(kernels) - 1  # nilpotency index on the nilpotent part
    chains = []
    covered = Subspace(n)
    for i in range(s, 0, -1):
        seen = Subspace(n, kernels[i - 1].basis() + covered.basis())
        for v in kernels[i].basis():
            if seen.add(v):
                chain = [v]
                for _ in range(i - 1):
                    chain.append(a.apply(chain[-1]))
                chains.append(chain)
                for w in chain:
                    covered.add(w)
                    seen.add(w)
    return chains


def _cyclic_chain(a: Matrix, d, r, existing: Subspace):
    n = a.rows
    m = a**d - Matrix.identity(n) * r
    kernel = nullspace(m)
    if len(kernel) < d:
        raise RuntimeError("factor kernel too small")
    candidates = list(kernel)
    candidates += [
        tuple(x + y for x, y in zip(u, v))
        for u, v in itertools.combinations(kernel, 2)
    ]
    prefix = list(kernel[0])
    for v in kernel[1:]:
        prefix = [x + y for x, y in zip(prefix, v)]
        candidates.append(tuple(prefix))
    candidates += [
        tuple(x + 2 * y for x, y in zip(u, v))
        for u, v in itertools.combinations(kernel, 2)
    ]
    for w in candidates:
        chain = [tuple(w)]
        for _ in range(d - 1):
            chain.append(a.apply(chain[-1]))
        trial = Subspace(n, existing.basis())
        if all(trial.add(v) for v in chain):
            return chain
    raise RuntimeError("no cyclic vector found for factor")


def _numeric_hint(q: Poly, tol=1e-9):
    """Float guess at root sets S_r^d of the reduced characteristic poly.

    Groups numpy roots by modulus and tests each group for being the full
    set of d-th roots of a common constant.  Never certified.
    """
    import numpy as np

    coeffs = [float(c) for c in reversed(q.coeffs)]
    roots = sorted(np.roots(coeffs), key=abs)
    groups = []
    for z in roots:
        if groups and abs(abs(z) - abs(groups[-1][0])) < tol * max(1.0, abs(z)):
            groups[-1].append(z)
        else:
            groups.append([z])
    hint = []
    for grp in groups:
        d = len(grp)
        consts = [z**d for z in grp]
        ref = consts[0]
        if all(abs(c - ref) < 1e-6 * max(1.0, abs(ref)) for c in consts) and abs(
            ref.imag
        ) < 1e-6:
            hint.append((d, float(ref.real)))
        else:
            return None
    return tuple(hint)


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
    similarity check is exact but incomplete for large non-nilpotent
    matrices, so a None result means "not established", not "not isomorphic".
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
    if not size.isdigit():
        raise ValueError(f"line {lineno}: matrix size must be a non-negative integer")
    n = int(size)
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
