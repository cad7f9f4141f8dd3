"""The catalog of 3-dimensional Lie algebras and their nice-basis counts.

Solvable entries are almost abelian R f + R^2 over a 2x2 matrix and their
counts are recomputed by count_nice, never hardcoded.  The two simple
entries carry theorem-backed counts.  Every row is certified once, as it is
built, by CatalogEntry.verify's checks: each listed basis maps g to a nice
tensor, and there are nu of them.  A simple row also checks, on the same
tensors, the cyclic sign pattern of its last basis (mixed for sl2, uniform
for so3) and, for sl2, that no monomial map joins its two bases.

classify3 reads the R^2 of a solvable row off a lemma: a 3-dimensional g
with degenerate Killing form and [g, g] not central has the abelian ideal
C([g, g]) of codimension 1; with [g, g] central and nonzero, g is h3.
"""

from __future__ import annotations

from typing import NamedTuple

from .scalars import Q, ZERO, ONE, sign
from . import fixtures
from .lie import LieAlgebra
from .linalg import Matrix, Poly, char_poly, is_positive_definite, rational_roots
from .nice import check_nice, _monomial_search
from .almost_abelian import build, count_nice, iso_test_almost_abelian


class CatalogEntry(NamedTuple):
    name: str
    matrix: Matrix | None  # 2x2 matrix for almost abelian rows, else None
    algebra: LieAlgebra
    nu: int
    nice_bases: tuple  # change-of-basis matrices, each verified nice
    parameter: object = None

    def verify(self):
        """The row, once each listed basis maps the algebra to a nice tensor
        and there are nu of them; RuntimeError otherwise."""
        self._mapped()
        return self

    def _mapped(self):
        # the tensors of the listed bases, each mapped and checked once
        tensors = []
        for b in self.nice_bases:
            tensors.append(self.algebra.change_basis(b))
            if not check_nice(tensors[-1]):
                raise RuntimeError(f"catalog basis for {self.name} is not nice")
        if len(tensors) != self.nu:
            raise RuntimeError(f"catalog entry {self.name} lists wrong basis count")
        return tensors


def _aa_entry(name, m, bases, parameter=None):
    nu = count_nice(m)
    if nu is None:
        raise RuntimeError(f"unexpected unknown count for {name}")
    return CatalogEntry(name, m, build(m).compiled, nu, tuple(bases), parameter).verify()


_I3 = Matrix.identity(3)
# the two nice bases of aa(A_-1), which are nice for sl2 as well
_A_MINUS1_BASES = (_I3, Matrix.from_columns([(1, 0, 0), (0, 1, 1), (0, 1, -1)]))


def _a_lambda_row(lam):
    name, bases = ("aa(A_-1)", _A_MINUS1_BASES) if lam == -1 else (f"aa(A_lambda={lam})", [_I3])
    return _aa_entry(name, fixtures.matrix_a_lambda(lam), bases, lam)


def _e_mu_row(mu):
    name, bases = ("aa(E_0)", [_I3]) if mu == 0 else (f"aa(E_mu={mu})", [])
    return _aa_entry(name, fixtures.matrix_e(mu), bases, mu)


def _simple_row(name):
    """sl2 or so3 with its theorem-backed count, 2 or 1, certified as above."""
    sl2 = name == "sl2"
    alg, nu, bases = (fixtures.sl2(), 2, _A_MINUS1_BASES) if sl2 else (fixtures.so3(), 1, (_I3,))
    entry = CatalogEntry(name, None, alg, nu, bases)
    tensors = entry._mapped()
    if sl2 and _monomial_search(*tensors) is not None:
        raise RuntimeError("sl2 bases unexpectedly equivalent")
    signs = cyclic_sign_pattern(tensors[-1])
    if signs is None or (len(set(signs)) == 1) == sl2:
        raise RuntimeError(f"{name} sign pattern check failed")
    return entry


def catalog():
    """All thirteen rows: solvable families at rational parameter samples,
    then the simple algebras."""
    return [
        _aa_entry("R^3", fixtures.matrix_b(), [_I3]),
        _aa_entry("h3", fixtures.matrix_c(), [_I3]),
        *(_a_lambda_row(lam) for lam in (Q(-1), Q(-1, 2), ZERO, Q(1, 2), ONE)),
        _aa_entry("aa(D)", fixtures.matrix_d(), []),
        *(_e_mu_row(mu) for mu in (ZERO, ONE, Q(2))),
        _simple_row("sl2"),
        _simple_row("so3"),
    ]


def simple_nice_bases(which: str):
    """Verified nice bases of sl2 (two, mutually non-monomially-equivalent)
    or so3 (one)."""
    if which not in ("sl2", "so3"):
        raise ValueError("which must be 'sl2' or 'so3'")
    return list(_simple_row(which).nice_bases)


def cyclic_sign_pattern(g: LieAlgebra):
    """(sgn a, sgn b, sgn c) for a cyclic-type 3-dim tensor.

    Cyclic type: [e2,e3] = a e1, [e3,e1] = b e2, [e1,e2] = c e3, all nonzero.
    Returns None when the tensor is not of this shape.  The common-sign
    property is a monomial-map invariant separating the two simple algebras.
    The signs are read off the int table, as den > 0.
    """
    if g.dim != 3:
        return None
    comps = [g.table[i].get(j, {}) for i, j in ((1, 2), (2, 0), (0, 1))]
    if [list(c) for c in comps] != [[0], [1], [2]]:
        return None
    return tuple(sign(c[k]) for k, c in enumerate(comps))


def classify3(g: LieAlgebra):
    """Match a 3-dimensional tensor to a catalog row; None when unknown.

    Past R^3 and the simple rows, h = C([g, g]) is g or the R^2 of g = R f + R^2:
    - a 3-dimensional g whose Killing form is degenerate is solvable;
    - if [g, g] has dimension 2, it is nilpotent and so abelian, and no x
      outside it centralizes it, because ad_x = 0 on it would give
      [g, g] = 0: h = [g, g], and ad_f is invertible on it;
    - if [g, g] = Q z with z not central, C(z) has dimension 2, is abelian,
      and is an ideal because [g, C(z)] ⊆ Q z; ad_f z = c z with c != 0;
    - otherwise [g, g] is central, h = g, and g is h3.
    So ad_f on a 2-dimensional h is never nilpotent.
    """
    if g.dim != 3:
        raise ValueError("classify3 needs dimension 3")
    derived = g.derived_subalgebra()
    if derived.dim == 0:
        return _aa_entry("R^3", fixtures.matrix_b(), [_I3])
    killing = g.killing_form()
    if killing.det() != 0:
        return _simple_row("so3" if is_positive_definite(-killing) else "sl2")
    h = g.centralizer(derived.rows.values())
    if h.dim == 3:
        return _aa_entry("h3", fixtures.matrix_c(), [_I3])
    if h.dim != 2:  # only on tensors built unchecked, which break the lemma
        return None
    return _match_2x2(_ad_action_matrix(g, h))


def _ad_action_matrix(g: LieAlgebra, h):
    # f = first coordinate axis outside h; A = ad_f restricted to h in the
    # reduced echelon basis of h, the int rows over their pivot entries
    # (coordinates read off the pivots)
    f = next(i for i in range(3) if not h.contains({i: ONE}))
    cols = []
    for p in h.pivots:
        row = h.rows[p]
        w = g.bracket_int(f, row)  # den [e_f, row]
        if not h.contains(w):
            raise RuntimeError("candidate subspace is not ad-invariant")
        cols.append(tuple(Q(w.get(q, 0), g.den * row[p]) for q in h.pivots))
    return Matrix.from_columns(cols)


def _match_2x2(a: Matrix):
    p = char_poly(a)  # x^2 - tr x + det
    tr, det = p.coeffs[1] * -1, p.coeffs[0]
    disc = tr * tr - 4 * det
    if disc > 0 or (disc == 0 and _is_scalar(a)):
        eigs = [r for r, m in rational_roots(p) for _ in range(m)]
        if len(eigs) != 2:
            return None  # irrational real eigenvalues: outside the catalog samples
        e1, e2 = sorted(eigs, key=lambda x: -abs(x))
        # |lam| <= 1, nonzero denominator since not nilpotent
        entry = _a_lambda_row(e2 / e1)
    elif disc == 0:
        # repeated nonzero eigenvalue, not diagonalizable
        entry = _aa_entry("aa(D)", fixtures.matrix_d(), [])
    else:
        # complex pair alpha +- beta i, beta != 0: mu = |alpha / beta|, the root >= 0 of
        # x^2 - alpha^2 / beta^2 = x^2 - tr^2 / -disc
        roots = rational_roots(Poly.binomial(2, tr * tr / -disc))
        if not roots:
            return None
        entry = _e_mu_row(roots[-1][0])
    return entry if iso_test_almost_abelian(a, entry.matrix) is not None else None


def _is_scalar(a: Matrix):
    return a[0, 1] == 0 and a[1, 0] == 0 and a[0, 0] == a[1, 1]
