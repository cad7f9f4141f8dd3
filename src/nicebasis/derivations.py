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
from .linalg import Matrix, Subspace, _dot, solve, sparse
from .nice import check_nice


@dataclass(frozen=True)
class DerivationSpace:
    dim: int  # dimension of the underlying algebra
    basis: tuple  # tuple of Matrix, spanning Der(g)

    def __len__(self):
        return len(self.basis)

    def contains(self, m: Matrix) -> bool:
        def flat(d):
            return [x for row in d.data for x in row]

        return Subspace(self.dim**2, map(flat, self.basis)).contains(flat(m))


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
    (pair, output coordinate).
    """
    n = g.dim

    def var(r, c):
        return r * n + c

    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = g.bracket_basis(i, j)
            # row for output coordinate r: coefficients on D entries
            eq = {}
            for k, c in cij.items():
                for r in range(n):
                    eq.setdefault(r, {})[var(r, k)] = (
                        eq.get(r, {}).get(var(r, k), ZERO) + c
                    )
            for m in range(n):
                cmj = g.bracket_basis(m, j)
                for r, c in cmj.items():
                    eq.setdefault(r, {})[var(m, i)] = (
                        eq.get(r, {}).get(var(m, i), ZERO) - c
                    )
                cim = g.bracket_basis(i, m)
                for r, c in cim.items():
                    eq.setdefault(r, {})[var(m, j)] = (
                        eq.get(r, {}).get(var(m, j), ZERO) - c
                    )
            rows.extend(eq.values())
    kernel = Subspace(n * n, rows).kernel()
    basis = tuple(
        Matrix([v[r * n : (r + 1) * n] for r in range(n)]) for v in kernel
    )
    return DerivationSpace(n, basis)


def diagonal_derivations(g: LieAlgebra):
    """Vectors x with Dg(x) a derivation: x_i + x_j = x_k on each bracket."""
    n = g.dim
    rows = []
    for (i, j), comps in g.brackets.items():
        for k in comps:
            eq = {i: ONE, j: ONE}
            eq[k] = eq.get(k, ZERO) - ONE
            rows.append(eq)
    return Subspace(n, rows).kernel()


def is_derivation(g: LieAlgebra, d: Matrix) -> bool:
    """Does D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] hold on all basis pairs?"""
    n = g.dim
    cols = [sparse(col) for col in zip(*d.data)]

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
    nm = Matrix.diagonal(n_diag)
    if not is_derivation(g, nm):
        return False, ("not_derivation", nm)
    for d in derivation_space(g).basis:
        # Tr(N D) for diagonal N
        if sum((x * d[i, i] for i, x in enumerate(n_diag)), ZERO) != d.trace():
            return False, ("trace", d)
    return True, None


def _assert_positive_definite(m: Matrix):
    for k in range(1, m.rows + 1):
        sub = Matrix([row[:k] for row in m.data[:k]])
        if sub.det() <= 0:
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
