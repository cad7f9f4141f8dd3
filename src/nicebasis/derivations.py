"""Derivation algebras and pre-Einstein diagonal derivations.

The pre-Einstein derivation N of g is the unique solution of Tr(N D) = Tr(D)
for all derivations D.  When the defining basis is nice it can be found inside
the diagonal derivations alone, by a Gram system of int kernel vectors, as int
weights w over one den, N = diag(w) / den, and certified in ints on Der(g)_0 =
ker A, the derivations commuting with N, which decides it for all of Der(g).
There den (Tr(N D) - Tr(D)) is a functional that vanishes on ker A iff it lies
in row A = (ker A)^perp (see pre_einstein_general_check).  Gram lemma: the
Gram matrix G of linearly independent v_1..v_k is positive definite, as c^T G c
= |sum_a c_a v_a|^2 > 0 for c != 0, and int kernel vectors are independent
(each alone is nonzero at its free column), so the Gram system has one solution.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import NamedTuple

from .scalars import Q, ZERO, _exact
from .lie import LieAlgebra
from .linalg import Matrix, Subspace, _cleared, _solve, apply_columns, dense
from .nice import check_nice, roots


class DerivationSpace(NamedTuple):
    unknowns: dict  # entry (m, i) of D solved for -> its number, in row-major order
    system: Subspace  # the eliminated equations over the numbered unknowns

    @property
    def basis(self):
        """Sparse {(row, col): value} maps spanning the space, built on each read:
        each int_kernel vector over Q, divided by its free entry (its last)."""
        keys = list(self.unknowns)
        return tuple({keys[v]: Q(x, vec[f]) for v, x in vec.items()}
                     for vec in self.system.int_kernel() for f in [max(vec)])

    @property
    def dim(self):
        return len(self.unknowns) - self.system.dim


class PreEinstein(NamedTuple):
    matrix: Matrix
    spectrum: tuple  # diagonal entries, sorted, with multiplicity

    def multiplicities(self):
        """{value: multiplicity} in increasing order: a Counter keeps the sorted spectrum's."""
        return Counter(self.spectrum)


class NotNiceBasis(ValueError):
    pass


def derivation_space(g: LieAlgebra, weights=None) -> DerivationSpace:
    """Solve D[x,y] = [Dx,y] + [x,Dy] on all basis pairs.

    Unknowns are the n^2 entries of D or, given weights w, those D[m][i]
    with w_m = w_i (Der(g)_0, the derivations commuting with diag(w)),
    numbered densely in row-major order, with _equations's system eliminated
    in ints; the basis, built on each read, is the canonical one: a vector
    per free unknown, in order, 1 there.  w matters only through its
    blocks of equal weight, labelled by their first index; the last space
    built is kept for its (g, labels), so the result is shared: read-only.

    At pairwise distinct weights (range(n), say) the unknowns are the D[i][i]
    alone, numbered i, and equation (i, j, r) is c_ij^r (x_r - x_i - x_j) = 0:
    the system spans the rows of Y (nice.roots), made primitive, so canonical.
    """
    n = g.dim
    weights = [0] * n if weights is None else [_exact(w, "weight") for w in weights]
    if len(weights) != n:
        raise ValueError(f"need {n} weights, one per basis vector, got {len(weights)}")
    first = {}  # weight -> its first index
    return _space(g, tuple(first.setdefault(w, i) for i, w in enumerate(weights)))


# the last space built: at a simple spectrum pre_einstein_general_check(g, N)
# right after pre_einstein_nice(g) reuses its diagonal system
@lru_cache(maxsize=1)
def _space(g: LieAlgebra, blocks) -> DerivationSpace:
    """derivation_space(g, w) for the block labels of w, its equations eliminated from
    the highest key down: on an adapted basis, where brackets raise the index, each new
    pivot precedes every row that would hold it, so add back-substitutes into none."""
    block = {}  # block label -> its indices, increasing
    for i, b in enumerate(blocks):
        block.setdefault(b, []).append(i)
    unknowns = {e: v for v, e in enumerate((m, i) for m, b in enumerate(blocks) for i in block[b])}
    eqs, system = _equations(g, unknowns), Subspace(len(unknowns))
    for key in sorted(eqs, reverse=True):  # _add takes no zero, and _equations's sums may cancel
        system._add({v: c for v, c in eqs[key].items() if c})
    return DerivationSpace(unknowns, system)


def _equations(g: LieAlgebra, unknowns):
    """The equations of D[x,y] = [Dx,y] + [x,Dy] on the entries (m, i) of D that
    unknowns maps to labels, the others zero: {(i n + j) n + r: {label: int}},
    one per (pair i < j, output coordinate r) that an unknown meets, read off
    g's int table.  D[m][i] walks the brackets of e_m and those with an e_i
    term, so no pair without a term is visited."""
    n, t = g.dim, g.table
    into = {}  # k -> (i n + j) n and c_ij^k of each bracket [e_i, e_j], i < j, with an e_k term
    for i in range(n):
        for j, comps in t[i].items():
            if j > i:
                for k, c in comps.items():
                    into.setdefault(k, []).append(((i * n + j) * n, c))
    eqs = {}  # (i n + j) n + r -> {label: coefficient} of equation (i, j, r)
    for (m, i), v in unknowns.items():
        # -[D e_i, e_j] = -sum_m D[m][i] [e_m, e_j]; the pair (j, i) holds +[e_m, e_j].
        # Each (j, r) is met once, so set; the terms of D[e_a, e_b] below add in
        for j, comps in t[m].items():
            if j != i:
                f, base = (-1, (i * n + j) * n) if j > i else (1, (j * n + i) * n)
                for r, c in comps.items():
                    eqs.setdefault(base + r, {})[v] = f * c
        for base, c in into.get(i, ()):  # D[e_a, e_b] = sum_k c_k D e_k, at coordinate m
            row = eqs.setdefault(base + m, {})
            row[v] = row.get(v, 0) + c
    return eqs


def diagonal_derivations(g: LieAlgebra):
    """Vectors x with Dg(x) a derivation: a basis of ker Y (nice.roots)."""
    return [dense({i: x for (i, _), x in d.items()}, g.dim)
            for d in derivation_space(g, range(g.dim)).basis]


def _entries(d, n):
    """d, a Matrix (its num) or a sparse {(row, col): int or Fraction} map, as nonzero ints,
    d times one positive int; a key outside n x n, another shape or value is a ValueError."""
    shape = (n, n)
    if isinstance(d, Matrix):
        shape, d = (d.rows, d.cols), {(r, c): x for c, col in enumerate(d.num)
                                      for r, x in col.items()}
    d, _ = _cleared(d, "entry")
    if bad := [key for key in d if not (0 <= key[0] < n and 0 <= key[1] < n)]:
        raise ValueError(f"entry {bad[0]} out of range 0..{n - 1}")
    if shape != (n, n):
        raise ValueError(f"matrix is {shape[0]} x {shape[1]}, need {n} x {n}")
    return d


def is_derivation(g: LieAlgebra, d) -> bool:
    """Does D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] hold on all basis pairs?

    d is a Matrix or a sparse {(row, col): value} map of ints or Q (_entries
    says what is refused).  Its nonzero entries, as ints over one den, are the
    unknowns of _equations, and every equation they meet must vanish there.
    """
    value = _entries(d, g.dim)
    eqs = _equations(g, {e: e for e in value})
    return not any(sum(c * value[e] for e, c in row.items()) for row in eqs.values())


def pre_einstein_nice(g: LieAlgebra) -> PreEinstein:
    """Pre-Einstein derivation of a nicely-based algebra.

    Restricts the defining trace condition to diagonal derivations and solves
    the Gram system G of their int kernel vectors (rescaling them leaves N
    unchanged); they are independent, so G is positive definite by the Gram
    lemma (c^T G c = |sum_a c_a v_a|^2 > 0 at c != 0) and is not tested.  G is
    solved in ints (linalg._solve): its coefficients over one den give N = diag(w) / den,
    certified in ints on Der(g)_0, which pre_einstein_general_check's lemma makes decide Der(g).
    The only Fractions made are the matrix view's, which the spectrum reads.
    """
    if not check_nice(g):
        raise NotNiceBasis("defining basis is not nice")
    diag = derivation_space(g, range(g.dim)).system.int_kernel()
    gram = [{b: x for b, u in enumerate(diag) if (x := sum(c * u.get(i, 0) for i, c in v.items()))}
            for v in diag]
    coeffs, den = _solve(gram, [sum(v.values()) for v in diag], len(diag))  # Tr(Dg(v)) = sum
    w = apply_columns(diag, coeffs)
    w = [w.get(i, 0) for i in range(g.dim)]
    ok, bad = _certify(g, w, den)
    if not ok:
        raise RuntimeError(f"trace certification failed: {bad!r}")
    m = Matrix._of(g.dim, [{i: x} if x else {} for i, x in enumerate(w)], den)
    view = m.columns  # read in the order of w, the spectrum's as den > 0
    return PreEinstein(m, tuple(view[i].get(i, ZERO) for _, i in sorted(zip(w, range(g.dim)))))


def pre_einstein_general_check(g: LieAlgebra, n_diag):
    """Certify a claimed diagonal pre-Einstein derivation.

    Returns (True, None) or (False, counterexample) where the counterexample
    is either ("not_derivation", N) or ("trace", D) with D a derivation
    violating Tr(ND) = Tr(D).  A diagonal entry must be an int or a Fraction.

    The trace test runs on Der(g)_0 = derivation_space(g, w) only.  Lemma:
    if N = diag(w) is a derivation, w_k = w_i + w_j on every root (nice.roots),
    so each equation (i, j, r) of Der(g) involves only unknowns D[m][i] (and
    D[m][j]) of one weight w_m - w_i = w_r - w_i - w_j.  So Der(g) is the
    direct sum of its weight blocks, and Tr(D), Tr(ND) read only diagonal
    entries, of weight 0: Tr(ND) = Tr(D) holds on Der(g) iff on Der(g)_0
    (the ad_N grading of Nikolayevsky, Trans. AMS 363, 2011).  On Der(g)_0 =
    ker A, Tr(ND) - Tr(D) = l(D) with l = sum_r (w_r - 1) D[r][r], and l
    vanishes on ker A iff l is in row A = (ker A)^perp: one Subspace.residue
    in ints.  Only if it is not is the basis built, for its first D with
    l(D) != 0.
    """
    n_diag = dict(enumerate(n_diag))
    w, den = _cleared(n_diag, "diagonal entry")
    return _certify(g, [w.get(i, 0) for i in range(len(n_diag))], den)


def _certify(g: LieAlgebra, w, den):
    """pre_einstein_general_check on N = diag(w) / den, w ints, den > 0: scaling N
    keeps its weight blocks, its derivation test Y w = 0 and which D have den l(D) != 0.
    Der(g)_0 is built for a derivation only, or to refuse a length other than g.dim."""
    if len(w) == g.dim and any(w[k] != w[i] + w[j] for i, j, k in roots(g)):
        return False, ("not_derivation", Matrix.diagonal([Q(x, den) for x in w]))
    space = derivation_space(g, w)
    gap = {space.unknowns[(r, r)]: x - den for r, x in enumerate(w) if x != den}
    if not space.system.residue(gap)[0]:
        return True, None
    return False, ("trace", next(d for d in space.basis
                                 if sum((w[r] - den) * x for (r, c), x in d.items() if r == c)))


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


def simple_spectrum_unique(p: PreEinstein):
    """nu = 1 for a simple spectrum, else None; p is from pre_einstein_nice, so g is nice."""
    return 1 if len(set(p.spectrum)) == len(p.spectrum) else None
