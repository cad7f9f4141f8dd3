"""The catalog of 3-dimensional Lie algebras and their nice-basis counts.

Solvable entries are almost abelian R f + R^2 over a 2x2 matrix and their
counts are recomputed by count_nice, never hardcoded.  The two simple
entries carry theorem-backed counts with every listed basis re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Q, ZERO, ONE, sign
from . import fixtures
from .lie import LieAlgebra
from .linalg import Matrix, Subspace, char_poly, is_nilpotent, rational_roots
from .nice import check_nice, monomial_equivalent
from .almost_abelian import build, count_nice, iso_test_almost_abelian


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    matrix: Matrix | None  # 2x2 matrix for almost abelian rows, else None
    algebra: LieAlgebra
    nu: int
    nice_bases: tuple  # change-of-basis matrices, each verified nice
    parameter: object = None

    def verify(self):
        for b in self.nice_bases:
            if not check_nice(self.algebra.change_basis(b)):
                raise RuntimeError(f"catalog basis for {self.name} is not nice")
        if len(self.nice_bases) != self.nu:
            raise RuntimeError(f"catalog entry {self.name} lists wrong basis count")
        return self


def _aa_entry(name, m, bases, parameter=None):
    nu = count_nice(m)
    if nu is None:
        raise RuntimeError(f"unexpected unknown count for {name}")
    return CatalogEntry(
        name, m, build(m).compiled, nu, tuple(bases), parameter
    ).verify()


def _two_bases_a_minus1():
    ident = Matrix.identity(3)
    second = Matrix.from_columns([(1, 0, 0), (0, 1, 1), (0, 1, -1)])
    return ident, second


def catalog():
    """All nine rows: solvable families at rational parameter samples, then
    the simple algebras."""
    entries = []
    entries.append(_aa_entry("R^3", fixtures.matrix_b(), [Matrix.identity(3)]))
    entries.append(_aa_entry("h3", fixtures.matrix_c(), [Matrix.identity(3)]))
    entries.append(
        _aa_entry("aa(A_-1)", fixtures.matrix_a_lambda(-1), _two_bases_a_minus1(), Q(-1))
    )
    for lam in (Q(-1, 2), ZERO, Q(1, 2), ONE):
        entries.append(
            _aa_entry(
                f"aa(A_lambda={lam})",
                fixtures.matrix_a_lambda(lam),
                [Matrix.identity(3)],
                lam,
            )
        )
    entries.append(_aa_entry("aa(D)", fixtures.matrix_d(), []))
    entries.append(_aa_entry("aa(E_0)", fixtures.matrix_e(0), [Matrix.identity(3)], ZERO))
    for mu in (ONE, Q(2)):
        entries.append(_aa_entry(f"aa(E_mu={mu})", fixtures.matrix_e(mu), [], mu))
    sl2_alg = fixtures.sl2()
    sl2_bases = simple_nice_bases("sl2")
    entries.append(
        CatalogEntry("sl2", None, sl2_alg, 2, tuple(sl2_bases)).verify()
    )
    so3_alg = fixtures.so3()
    entries.append(
        CatalogEntry("so3", None, so3_alg, 1, tuple(simple_nice_bases("so3"))).verify()
    )
    return entries


def simple_nice_bases(which: str):
    """Verified nice bases of sl2 (two, mutually non-monomially-equivalent)
    or so3 (one)."""
    if which == "sl2":
        alg = fixtures.sl2()
        first = Matrix.identity(3)
        second = Matrix.from_columns([(1, 0, 0), (0, 1, 1), (0, 1, -1)])
        for b in (first, second):
            if not check_nice(alg.change_basis(b)):
                raise RuntimeError("sl2 basis failed the nice check")
        if monomial_equivalent(alg, first, second) is not None:
            raise RuntimeError("sl2 bases unexpectedly equivalent")
        # the second basis is of cyclic type with mixed bracket signs, so it
        # cannot be in the uniform-sign class (which is so3's)
        signs = cyclic_sign_pattern(alg.change_basis(second))
        if signs is None or len(set(signs)) == 1:
            raise RuntimeError("sl2 sign pattern check failed")
        return [first, second]
    if which == "so3":
        alg = fixtures.so3()
        first = Matrix.identity(3)
        if not check_nice(alg.change_basis(first)):
            raise RuntimeError("so3 basis failed the nice check")
        signs = cyclic_sign_pattern(alg.change_basis(first))
        if signs is None or len(set(signs)) != 1:
            raise RuntimeError("so3 sign pattern check failed")
        return [first]
    raise ValueError("which must be 'sl2' or 'so3'")


def cyclic_sign_pattern(g: LieAlgebra):
    """(sgn a, sgn b, sgn c) for a cyclic-type 3-dim tensor.

    Cyclic type: [e2,e3] = a e1, [e3,e1] = b e2, [e1,e2] = c e3, all nonzero.
    Returns None when the tensor is not of this shape.  The common-sign
    property is a monomial-map invariant separating the two simple algebras.
    """
    if g.dim != 3:
        return None
    a = g.bracket_basis(1, 2).get(0)
    b = g.bracket_basis(2, 0).get(1)
    c = g.bracket_basis(0, 1).get(2)
    if not (a and b and c):
        return None
    if (
        len(g.bracket_basis(1, 2)) != 1
        or len(g.bracket_basis(2, 0)) != 1
        or len(g.bracket_basis(0, 1)) != 1
    ):
        return None
    return sign(a), sign(b), sign(c)


def classify3(g: LieAlgebra):
    """Match a 3-dimensional tensor to a catalog row; None when unknown."""
    if g.dim != 3:
        raise ValueError("classify3 needs dimension 3")
    derived = g.derived_subalgebra()
    if derived.dim == 0:
        return _aa_entry("R^3", fixtures.matrix_b(), [Matrix.identity(3)])
    killing = g.killing_form()
    if killing.det() != 0:
        if _negative_definite(killing):
            return CatalogEntry(
                "so3", None, fixtures.so3(), 1, tuple(simple_nice_bases("so3"))
            ).verify()
        return CatalogEntry(
            "sl2", None, fixtures.sl2(), 2, tuple(simple_nice_bases("sl2"))
        ).verify()
    h = _abelian_codim1_ideal(g, derived)
    if h is None:
        return None
    a2 = _ad_action_matrix(g, h)
    return _match_2x2(a2)


def _negative_definite(k: Matrix):
    for t in range(1, k.rows + 1):
        minor = Matrix([row[:t] for row in k.data[:t]]).det()
        if sign(minor) != (-1) ** t:
            return False
    return True


def _abelian_codim1_ideal(g: LieAlgebra, derived):
    # candidates: [g,g] itself (dim 2), the centralizer of [g,g], or a 2-dim
    # abelian ideal through a 1-dim [g,g]
    candidates = []
    if derived.dim == 2:
        candidates.append(derived)
    if derived.dim >= 1:
        cent = g.centralizer(derived.basis())
        if cent.dim == 2:
            candidates.append(cent)
        if cent.dim == 3 and derived.dim == 1:
            # central derived subalgebra: extend it by each coordinate axis
            z = derived.basis()[0]
            for i in range(3):
                s = Subspace(3, [z, {i: ONE}])
                if s.dim == 2:
                    candidates.append(s)
    for h in candidates:
        if _is_abelian_ideal(g, h):
            return h
    return None


def _is_abelian_ideal(g, h):
    basis = list(h.rows.values())
    for i, u in enumerate(basis):
        for v in basis[i + 1 :]:
            if g.bracket_sparse(u, v):
                return False
    return g._is_ideal(h)


def _ad_action_matrix(g: LieAlgebra, h):
    # f = first coordinate axis outside h; A = ad_f restricted to h in the
    # echelon basis of h (coordinates read off the pivots)
    f = next(i for i in range(3) if not h.contains({i: ONE}))
    cols = []
    for p in h.pivots:
        w = g.bracket_sparse({f: ONE}, h.rows[p])
        if not h.contains(w):
            raise RuntimeError("candidate subspace is not ad-invariant")
        cols.append(tuple(w.get(q, ZERO) for q in h.pivots))
    return Matrix.from_columns(cols)


def _match_2x2(a: Matrix):
    nil, _ = is_nilpotent(a)
    if nil:
        if a.is_zero():
            return _aa_entry("R^3", fixtures.matrix_b(), [Matrix.identity(3)])
        return _aa_entry("h3", fixtures.matrix_c(), [Matrix.identity(3)])
    p = char_poly(a)  # x^2 - tr x + det
    tr, det = p.coeffs[1] * -1, p.coeffs[0]
    disc = tr * tr - 4 * det
    if disc > 0 or (disc == 0 and _is_scalar(a)):
        roots = rational_roots(p)
        if sum(m for _, m in roots) != 2:
            return None  # irrational real eigenvalues: outside the catalog samples
        eigs = []
        for r, m in roots:
            eigs.extend([r] * m)
        e1, e2 = sorted(eigs, key=lambda x: -abs(x))
        lam = e2 / e1  # |lam| <= 1, nonzero denominator since not nilpotent
        rep = fixtures.matrix_a_lambda(lam)
        if iso_test_almost_abelian(a, rep) is None:
            return None
        if lam == -1:
            return _aa_entry("aa(A_-1)", rep, _two_bases_a_minus1(), lam)
        return _aa_entry(f"aa(A_lambda={lam})", rep, [Matrix.identity(3)], lam)
    if disc == 0:
        # repeated nonzero eigenvalue, not diagonalizable
        rep = fixtures.matrix_d()
        if iso_test_almost_abelian(a, rep) is None:
            return None
        return _aa_entry("aa(D)", rep, [])
    # complex pair alpha +- beta i with beta != 0; mu = |alpha/beta|
    alpha = tr / 2
    beta_sq = -disc / 4  # beta^2
    mu_sq = alpha * alpha / beta_sq
    mu = _rational_sqrt(mu_sq)
    if mu is None:
        return None
    if mu == 0:
        rep = fixtures.matrix_e(0)
        if iso_test_almost_abelian(a, rep) is None:
            return None
        return _aa_entry("aa(E_0)", rep, [Matrix.identity(3)], ZERO)
    rep = fixtures.matrix_e(mu)
    if iso_test_almost_abelian(a, rep) is None:
        return None
    return _aa_entry(f"aa(E_mu={mu})", rep, [], mu)


def _is_scalar(a: Matrix):
    return a.data[0][1] == 0 and a.data[1][0] == 0 and a.data[0][0] == a.data[1][1]


def _rational_sqrt(q):
    if q < 0:
        return None
    if q == 0:
        return ZERO
    num, den = int(q.numerator), int(q.denominator)
    rn = _isqrt_exact(num)
    rd = _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    return Q(rn, rd)


def _isqrt_exact(n):
    import math

    r = math.isqrt(n)
    return r if r * r == n else None
