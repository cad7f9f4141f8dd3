"""Derivation algebras and pre-Einstein diagonal derivations.

The pre-Einstein derivation N of g is the unique solution of
Tr(N D) = Tr(D) for all derivations D.  When the defining basis is nice it
can be found inside the diagonal derivations alone and then certified on
Der(g)_0, the derivations commuting with N, which decides it for all of
Der(g) (see pre_einstein_general_check).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import prod

from .scalars import Q, ZERO
from .lie import LieAlgebra
from .linalg import Matrix, Subspace, _dot, is_positive_definite, solve
from .nice import check_nice


@dataclass(frozen=True)
class DerivationSpace:
    dim: int  # dimension of the underlying algebra
    basis: tuple  # sparse {(row, col): value} maps spanning Der(g), or Der(g)_0

    def __len__(self):
        return len(self.basis)

    def contains(self, d) -> bool:
        """Is d, a Matrix or a sparse {(row, col): value} map, in Der(g)?"""
        return Subspace(self.dim**2, self.basis).contains(_entries(d))


@dataclass(frozen=True)
class PreEinstein:
    matrix: Matrix
    spectrum: tuple  # diagonal entries, sorted, with multiplicity

    def multiplicities(self):
        return Counter(self.spectrum)


class NotNiceBasis(ValueError):
    pass


def derivation_space(g: LieAlgebra, weights=None) -> DerivationSpace:
    """Solve D[x,y] = [Dx,y] + [x,Dy] on all basis pairs.

    Unknowns are the n^2 entries of D or, given weights w, those D[m][i]
    with w_m = w_i (Der(g)_0, the derivations commuting with diag(w)),
    numbered densely in row-major order; one sparse equation per (pair,
    output coordinate).  Only nonzero brackets contribute terms, so assembly
    costs O(n^2 + n nnz).  The system is homogeneous, so it is assembled from
    g's int table and eliminated in ints.  The basis is sparse_kernel's
    canonical one: a vector per free unknown, in row-major order.
    """
    n = g.dim
    ad = g.table
    weights = [ZERO] * n if weights is None else weights
    same = {}  # weight -> indices of that weight, increasing
    for i, w in enumerate(weights):
        same.setdefault(w, []).append(i)
    unknowns = [(m, i) for m in range(n) for i in same[weights[m]]]
    var = {e: v for v, e in enumerate(unknowns)}
    rows = []

    def term(eq, r, e, c):
        v = var.get(e)
        if v is not None:
            row = eq.setdefault(r, {})
            row[v] = row.get(v, 0) + c

    for i in range(n):
        adi = ad[i]
        for j in range(i + 1, n):
            adj = ad[j]
            eq = {}  # output coordinate r -> coefficients on D's entries
            # D[e_i, e_j]: sum_k c_k D e_k
            for k, c in adi.get(j, {}).items():
                for r in same[weights[k]]:
                    term(eq, r, (r, k), c)
            # -[D e_i, e_j] = [e_j, D e_i]: sum_m D[m][i] [e_j, e_m]
            for m, comps in adj.items():
                for r, c in comps.items():
                    term(eq, r, (m, i), c)
            # -[e_i, D e_j]: -sum_m D[m][j] [e_i, e_m]
            for m, comps in adi.items():
                for r, c in comps.items():
                    term(eq, r, (m, j), -c)
            rows.extend(eq.values())
    kernel = Subspace(len(unknowns), rows).sparse_kernel()
    return DerivationSpace(n, tuple({unknowns[v]: x for v, x in vec.items()} for vec in kernel))


def diagonal_derivations(g: LieAlgebra):
    """Vectors x with Dg(x) a derivation: x_i + x_j = x_k on each bracket."""
    n = g.dim
    rows = []
    for (i, j), comps in g.brackets.items():
        for k in comps:
            eq = {i: 1, j: 1}
            eq[k] = eq.get(k, 0) - 1
            rows.append(eq)
    return Subspace(n, rows).kernel()


def _entries(d):
    """A Matrix or a sparse {(row, col): value} map as the sparse map."""
    if isinstance(d, Matrix):
        return {(r, c): x for r, row in enumerate(d.data) for c, x in enumerate(row) if x}
    return d


def is_derivation(g: LieAlgebra, d) -> bool:
    """Does D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] hold on all basis pairs?

    d is a Matrix or a sparse {(row, col): value} map.  The differences are
    summed from the nonzero brackets and columns of D only: O(nnz) if diagonal.
    Both terms are read off g's int table: one common scale, one zero test.
    """
    t = g.table
    cols = {}
    for (r, c), x in _entries(d).items():
        cols.setdefault(c, {})[r] = x
    diff = {}  # (i, j) with i < j -> D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j]

    def add(i, j, vec, f):
        if i > j:  # the difference of (j, i) is minus that of (i, j)
            i, j, f = j, i, -f
        out = diff.setdefault((i, j), {})
        for k, x in vec.items():
            out[k] = out.get(k, ZERO) + f * x

    for i, j in g.brackets:
        for k, c in t[i][j].items():
            if k in cols:
                add(i, j, cols[k], c)
    for i, col in cols.items():
        for m, x in col.items():
            for j, comps in t[m].items():  # -D[m][i] [e_m, e_j]
                if j != i:
                    add(i, j, comps, -x)
    return not any(any(out.values()) for out in diff.values())


def pre_einstein_nice(g: LieAlgebra) -> PreEinstein:
    """Pre-Einstein derivation of a nicely-based algebra.

    Restricts the defining trace condition to diagonal derivations, solves
    the (positive definite) Gram system there, then certifies the result on
    Der(g)_0, which pre_einstein_general_check's lemma makes decide Der(g).
    """
    if not check_nice(g):
        raise NotNiceBasis("defining basis is not nice")
    diag = diagonal_derivations(g)
    if not diag:
        n_diag = [ZERO] * g.dim
    else:
        gram = Matrix([[_dot(a, b) for b in diag] for a in diag])
        if not is_positive_definite(gram):
            raise RuntimeError("trace Gram matrix is not positive definite")
        rhs = [sum(v, ZERO) for v in diag]  # Tr(Dg(v)) = sum of entries
        coeffs = solve(gram, rhs)
        n_diag = [sum((c * v[i] for c, v in zip(coeffs, diag)), ZERO) for i in range(g.dim)]
    ok, bad = pre_einstein_general_check(g, n_diag)
    if not ok:
        raise RuntimeError(f"trace certification failed: {bad!r}")
    return PreEinstein(Matrix.diagonal(n_diag), tuple(sorted(n_diag)))


def pre_einstein_general_check(g: LieAlgebra, n_diag):
    """Certify a claimed diagonal pre-Einstein derivation.

    Returns (True, None) or (False, counterexample) where the counterexample
    is either ("not_derivation", N) or ("trace", D) with D a derivation
    violating Tr(ND) = Tr(D).

    The trace test runs on Der(g)_0 = derivation_space(g, w) only.  Lemma:
    if N = diag(w) is a derivation, every nonzero c_ij^k has w_k = w_i + w_j,
    so each equation (i, j, r) of Der(g) involves only unknowns D[m][i] (and
    D[m][j]) of one weight w_m - w_i = w_r - w_i - w_j.  So Der(g) is the
    direct sum of its weight blocks, and Tr(D), Tr(ND) read only diagonal
    entries, of weight 0: Tr(ND) = Tr(D) holds on Der(g) iff on Der(g)_0
    (the ad_N grading of Nikolayevsky, Trans. AMS 363, 2011).
    """
    n_diag = [Q(x) for x in n_diag]
    if not is_derivation(g, {(i, i): x for i, x in enumerate(n_diag) if x}):
        return False, ("not_derivation", Matrix.diagonal(n_diag))
    for d in derivation_space(g, n_diag).basis:
        trace = trace_nd = ZERO  # Tr(D) and Tr(N D), N diagonal
        for (r, c), x in d.items():
            if r == c:
                trace += x
                trace_nd += n_diag[r] * x
        if trace_nd != trace:
            return False, ("trace", d)
    return True, None


def ln_closed_form(n: int):
    """(d1, d2) for the n-dimensional standard filiform algebra, n >= 3."""
    if n < 3:
        raise ValueError("need n >= 3")
    den = Q(n**3 - 3 * n**2 + 2 * n + 12)
    return Q(12) / den, Q(n**3 - 3 * n**2 - 4 * n + 24) / den


def spectra_disjoint(a: PreEinstein, b: PreEinstein) -> bool:
    return not (set(a.spectrum) & set(b.spectrum))


def nu_product_rule(parts):
    """nu of a direct sum from per-factor (PreEinstein, nu) pairs.

    Returns the product when all pairwise spectra are disjoint, else None
    (rule inapplicable, no conclusion).  A factor nu of None makes the
    result None as well unless some factor has nu = 0.
    """
    if not all(spectra_disjoint(a, b) for (a, _), (b, _) in combinations(parts, 2)):
        return None
    nus = [v for _, v in parts]
    if any(v == 0 for v in nus):
        return 0
    if any(v is None for v in nus):
        return None
    return prod(nus)


def simple_spectrum_unique(p: PreEinstein, has_nice: bool):
    """nu = 1 when the spectrum is simple and a nice basis exists; else None."""
    if has_nice and all(m == 1 for m in p.multiplicities().values()):
        return 1
    return None
