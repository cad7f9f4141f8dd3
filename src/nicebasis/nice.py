"""Nice-basis conditions, central-series adaptedness, monomial equivalence.

A basis is nice when (1) each bracket [e_i, e_j] is a multiple of a single
basis vector, and (2) two index pairs feeding the same basis vector are
either equal or disjoint.  Equivalence of bases is tested within monomial
maps X_i -> t_i X_{sigma(i)} with rational scales t_i; a negative answer
means "not monomially equivalent over Q", not over R.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import NamedTuple

from .scalars import Q, ONE, _coprime_base
from .lie import LieAlgebra
from .linalg import Matrix, solve_integer_system


class NiceVerdict(NamedTuple):
    is_nice: bool
    violations: tuple

    def __bool__(self):
        return self.is_nice


def check_nice(g: LieAlgebra) -> NiceVerdict:
    """Check the defining basis of g; reports every violation, 0-based indices."""
    violations = []
    targets = {}  # k -> list of pairs hitting it
    for (i, j) in sorted(g.pairs):
        comps = g.table[i][j]
        if len(comps) > 1:
            violations.append(
                {"kind": "CONDITION_1", "pair": (i, j), "targets": tuple(sorted(comps))}
            )
        for k in comps:
            targets.setdefault(k, []).append((i, j))
    for k in sorted(targets):
        for (i, j), (s, t) in itertools.combinations(targets[k], 2):
            if {i, j} & {s, t}:  # distinct keys i < j, so never equal sets
                violations.append({"kind": "CONDITION_2", "target": k, "pairs": ((i, j), (s, t))})
    return NiceVerdict(not violations, tuple(violations))


def roots(g: LieAlgebra):
    """The root matrix Y: a row (i, j, k), for e_i + e_j - e_k, per nonzero c_ij^k, i < j,
    in g.pairs order.  Each row sums to 1, k in {i, j} too, so Y 1 = [1].  In any basis
    diag(x) is a derivation iff Y x = 0, i.e. x_k = x_i + x_j on every root, as D[e_i, e_j]
    - [D e_i, e_j] - [e_i, D e_j] = sum_k c_ij^k (x_k - x_i - x_j) e_k.  On a nice basis the
    pre-Einstein weights are w = 1 - Y^T v for any v with Y Y^T v = [1]: Tr(N D) = Tr(D) on
    ker Y puts w in ker Y and w - 1 in row Y, so w is the projection of 1 onto ker Y (Payne,
    Geom. Dedicata 145, 2010; Nikolayevsky, Trans. AMS 363, 2011)."""
    return tuple((i, j, k) for i, j in g.pairs for k in g.table[i][j])


def check_adapted(g: LieAlgebra):
    """Is each term of both central series spanned by basis vectors it contains?

    Returns (True, None) or (False, info) where info names the failing series
    term and its dimension versus the number of basis vectors inside it.  Lemma:
    e_i lies in a term iff the term's row at pivot i is the unit row {i: 1}: the rows are
    fully reduced, so e_i's residue is e_i off the pivots, else row i's others over -row[i].
    """
    for label, series in (
        ("lower", g.lower_central_series()),
        ("upper", g.upper_central_series()),
    ):
        for idx, s in enumerate(series):
            inside = sum(1 for p, row in s.rows.items() if row == {p: 1})
            if inside != s.dim:
                return False, {
                    "series": label,
                    "term": idx,
                    "subspace_dim": s.dim,
                    "basis_vectors_inside": inside,
                }
    return True, None


class MonomialMap(NamedTuple):
    """X_i -> scales[i] * X_{sigma[i]}."""

    sigma: tuple
    scales: tuple

    def is_isomorphism(self, a: LieAlgebra, b: LieAlgebra) -> bool:
        """Does the map send tensor a to tensor b?  It does when b, in the basis
        t_i e_sigma(i), has a's structure constants: the monomial change_basis of b,
        whose den and int table are canonical, equals a's."""
        p = Matrix.from_columns([{s: t} for s, t in zip(self.sigma, self.scales)], a.dim)
        c = b.change_basis(p)
        return (c.den, c.table) == (a.den, a.table)


class InputBasisNotNice(ValueError):
    pass


def monomial_equivalent(g: LieAlgebra, basis_a: Matrix, basis_b: Matrix):
    """Monomial map with rational scales identifying two nice bases of g, or None.

    basis_a/basis_b hold the basis vectors as columns in g's coordinates.
    Permutations are searched in lexicographic order and the first verified
    witness is returned, so the result is deterministic.
    """
    ta = g.change_basis(basis_a)
    tb = g.change_basis(basis_b)
    if not check_nice(ta):
        raise InputBasisNotNice("first basis is not nice")
    if not check_nice(tb):
        raise InputBasisNotNice("second basis is not nice")
    return _monomial_search(ta, tb)


def _support_profiles(t: LieAlgebra):
    """Per index, permutation-invariant data for pruning: its bracket sizes and root count."""
    hits = Counter(k for _, _, k in roots(t))
    return [(tuple(sorted(len(t.table[i].get(j, ())) for j in range(t.dim) if j != i)), hits[i])
            for i in range(t.dim)]


def _monomial_search(ta: LieAlgebra, tb: LieAlgebra):
    n = ta.dim
    prof_a, prof_b = _support_profiles(ta), _support_profiles(tb)
    candidates = [[p for p in range(n) if prof_b[p] == prof_a[i]] for i in range(n)]
    sigma = [None] * n
    used = [False] * n
    late = [[] for _ in range(n)]  # roots (a, b, k) with b < k, checked when k is assigned
    for a, b, k in roots(ta):
        if b < k:
            late[k].append((a, b))

    def pairs_ok(i):
        # every fully-assigned pair, and every root into i, must match tb's bracket supports
        for j in range(i):
            ca = ta.table[j].get(i, {})
            cb = tb.table[sigma[j]].get(sigma[i], {})
            if len(ca) != len(cb):
                return False
            for k in ca:
                if sigma[k] is not None and sigma[k] not in cb:
                    return False
        return all(sigma[i] in tb.table[sigma[a]].get(sigma[b], ()) for a, b in late[i])

    def extend(i):
        if i == n:
            m = _solve_scales(ta, tb, tuple(sigma))
            if m is not None and m.is_isomorphism(ta, tb):
                return m
            return None
        for p in candidates[i]:
            if used[p]:
                continue
            sigma[i] = p
            used[p] = True
            if pairs_ok(i):
                found = extend(i + 1)
                if found is not None:
                    return found
            sigma[i] = None
            used[p] = False
        return None

    return extend(0)


def _solve_scales(ta: LieAlgebra, tb: LieAlgebra, sigma):
    """Nonzero rational scales t with t_i t_j c'_{s(i)s(j)}^{s(k)} = t_k c_{ij}^k.

    Solved multiplicatively, t_i = prod_b b^(x_ib) over scalars._coprime_base of the required
    ratios and b = -1: one integer system A x_b = e_b per base element b, and for the signs,
    whose exponents count mod 2, [A | 2I] (x_-1, z) = e_-1.  These are the prime-based scales:
    no b is a perfect power, so gcd_p v_p(b) = 1 and, the solvable e forming a lattice, e_b is
    solvable iff each e_p = v_p(b) e_b is; solve_integer_system's column operations read A
    alone and its substitution is linear in e, so x_p = v_p(b) x_b and prod_p p^x_p = b^x_b."""
    n, y = ta.dim, roots(ta)
    if not y:
        return MonomialMap(sigma, tuple([ONE] * n))
    ratios = []
    for i, j, k in y:
        cb = tb.table[sigma[i]].get(sigma[j], {}).get(sigma[k])
        if cb is None:
            return None
        ratios.append(Q(ta.table[i][j][k] * tb.den, cb * ta.den))
    factored = _coprime_base(ratios)  # (sign, {b: exponent}) of each required ratio
    rows = [[(q == i) + (q == j) - (q == k) for q in range(n)] for i, j, k in y]
    base = sorted({b for _, f in factored for b in f})
    systems = [(b, rows, [f.get(b, 0) for _, f in factored]) for b in base]
    two_eye = [row + [2 * (q == r) for q in range(len(rows))] for r, row in enumerate(rows)]
    systems.append((-1, two_eye, [int(s < 0) for s, _ in factored]))
    scales = [ONE] * n
    for b, a, e in systems:
        x = solve_integer_system(a, e)
        if x is None:
            return None
        scales = [t * Q(b) ** z for t, z in zip(scales, x)]
    return MonomialMap(sigma, tuple(scales))
