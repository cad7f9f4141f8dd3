"""Derivation algebras and pre-Einstein diagonal derivations.

The pre-Einstein derivation N of g is the unique solution of
Tr(N D) = Tr(D) for all derivations D.  When the defining basis is nice it
can be found inside the diagonal derivations alone and then certified
against the full derivation space.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .scalars import Q, ZERO, ONE
from .lie import LieAlgebra
from .linalg import Matrix, Subspace, _dot, is_positive_definite, solve
from .nice import check_nice


@dataclass(frozen=True)
class DerivationSpace:
    dim: int  # dimension of the underlying algebra
    basis: tuple  # sparse {(row, col): value} maps spanning Der(g)

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


def derivation_space(g: LieAlgebra) -> DerivationSpace:
    """Solve D[x,y] = [Dx,y] + [x,Dy] on all basis pairs.

    Unknowns are the n^2 entries of D (row-major); one sparse equation per
    (pair, output coordinate).  Only nonzero brackets contribute terms, so
    assembly costs O(n^2 + n nnz).  The system is homogeneous, so it is
    assembled from g.integer_ad() and eliminated in ints.
    The basis is Subspace.sparse_kernel's canonical one: a vector per free
    entry of D, in row-major order.
    """
    n = g.dim
    ad = g.integer_ad()
    rows = []

    def term(eq, r, var, c):
        row = eq.setdefault(r, {})
        row[var] = row.get(var, 0) + c

    for i in range(n):
        adi = ad[i]
        for j in range(i + 1, n):
            adj = ad[j]
            eq = {}  # output coordinate r -> coefficients on D's entries
            # D[e_i, e_j]: sum_k c_k D e_k
            for k, c in adi.get(j, {}).items():
                for r in range(n):
                    term(eq, r, r * n + k, c)
            # -[D e_i, e_j] = [e_j, D e_i]: sum_m D[m][i] [e_j, e_m]
            for m, comps in adj.items():
                for r, c in comps.items():
                    term(eq, r, m * n + i, c)
            # -[e_i, D e_j]: -sum_m D[m][j] [e_i, e_m]
            for m, comps in adi.items():
                for r, c in comps.items():
                    term(eq, r, m * n + j, -c)
            rows.extend(eq.values())
    kernel = Subspace(n * n, rows).sparse_kernel()
    return DerivationSpace(
        n, tuple({divmod(v, n): x for v, x in vec.items()} for vec in kernel)
    )


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

    d is a Matrix or a sparse {(row, col): value} map.
    """
    n = g.dim
    cols = [{} for _ in range(n)]
    for (r, c), x in _entries(d).items():
        cols[c][r] = x

    def add(out, vec, f=ONE):
        for k, x in vec.items():
            out[k] = out.get(k, ZERO) + f * x

    for i in range(n):
        for j in range(i + 1, n):
            diff = {}
            for k, c in g.brackets.get((i, j), {}).items():
                add(diff, cols[k], c)
            add(diff, g.bracket_sparse(cols[i], {j: ONE}), -ONE)
            add(diff, g.bracket_sparse({i: ONE}, cols[j]), -ONE)
            if any(diff.values()):
                return False
    return True


def pre_einstein_nice(g: LieAlgebra) -> PreEinstein:
    """Pre-Einstein derivation of a nicely-based algebra.

    Restricts the defining trace condition to diagonal derivations, solves
    the (positive definite) Gram system there, then certifies the result
    against the full derivation space.
    """
    if not check_nice(g):
        raise NotNiceBasis("defining basis is not nice")
    diag = diagonal_derivations(g)
    if not diag:
        n_diag = [ZERO] * g.dim
    else:
        gram = Matrix(
            [[_dot(a, b) for b in diag] for a in diag]
        )
        _assert_positive_definite(gram)
        rhs = [sum(v, ZERO) for v in diag]  # Tr(Dg(v)) = sum of entries
        coeffs = solve(gram, rhs)
        n_diag = [
            sum((c * v[i] for c, v in zip(coeffs, diag)), ZERO) for i in range(g.dim)
        ]
    nm = Matrix.diagonal(n_diag)
    ok, bad = pre_einstein_general_check(g, n_diag)
    if not ok:
        raise RuntimeError(f"trace certification failed: {bad!r}")
    return PreEinstein(nm, tuple(sorted(n_diag)))


def pre_einstein_general_check(g: LieAlgebra, n_diag):
    """Certify a claimed diagonal pre-Einstein derivation.

    Returns (True, None) or (False, counterexample) where the counterexample
    is either ("not_derivation", N) or ("trace", D) with D a derivation
    violating Tr(ND) = Tr(D).
    """
    n_diag = [Q(x) for x in n_diag]
    if not is_derivation(g, {(i, i): x for i, x in enumerate(n_diag) if x}):
        return False, ("not_derivation", Matrix.diagonal(n_diag))
    for d in derivation_space(g).basis:
        trace = trace_nd = ZERO  # Tr(D) and Tr(N D), N diagonal
        for (r, c), x in d.items():
            if r == c:
                trace += x
                trace_nd += n_diag[r] * x
        if trace_nd != trace:
            return False, ("trace", d)
    return True, None


def _assert_positive_definite(m: Matrix):
    if not is_positive_definite(m):
        raise RuntimeError("trace Gram matrix is not positive definite")


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
    pes = [p for p, _ in parts]
    for i in range(len(pes)):
        for j in range(i + 1, len(pes)):
            if not spectra_disjoint(pes[i], pes[j]):
                return None
    nus = [v for _, v in parts]
    if any(v == 0 for v in nus):
        return 0
    if any(v is None for v in nus):
        return None
    out = 1
    for v in nus:
        out *= v
    return out


def simple_spectrum_unique(p: PreEinstein, has_nice: bool):
    """nu = 1 when the spectrum is simple and a nice basis exists; else None."""
    if has_nice and all(m == 1 for m in p.multiplicities().values()):
        return 1
    return None
