"""Nice-basis conditions, central-series adaptedness, monomial equivalence.

A basis is nice when (1) each bracket [e_i, e_j] is a multiple of a single
basis vector, and (2) two index pairs feeding the same basis vector are
either equal or disjoint.  Equivalence of bases is tested within monomial
maps X_i -> t_i X_{sigma(i)}; a negative answer therefore means "not
monomially equivalent".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .scalars import Q, ZERO, ONE, factor_rat
from .lie import LieAlgebra
from .linalg import Matrix, solve_integer_system, solve_gf2_system


@dataclass(frozen=True)
class NiceVerdict:
    is_nice: bool
    violations: tuple

    def __bool__(self):
        return self.is_nice


def check_nice(g: LieAlgebra) -> NiceVerdict:
    """Check the defining basis of g; reports every violation, 0-based indices."""
    violations = []
    targets = {}  # k -> list of pairs hitting it
    for (i, j) in sorted(g.brackets):
        comps = g.brackets[(i, j)]
        if len(comps) > 1:
            violations.append(
                {"kind": "CONDITION_1", "pair": (i, j), "targets": tuple(sorted(comps))}
            )
        for k in comps:
            targets.setdefault(k, []).append((i, j))
    for k in sorted(targets):
        pairs = targets[k]
        for (i, j), (s, t) in itertools.combinations(pairs, 2):
            a, b = {i, j}, {s, t}
            if a != b and a & b:
                violations.append(
                    {"kind": "CONDITION_2", "target": k, "pairs": ((i, j), (s, t))}
                )
    return NiceVerdict(not violations, tuple(violations))


def check_adapted(g: LieAlgebra):
    """Is each term of both central series spanned by basis vectors it contains?

    Returns (True, None) or (False, info) where info names the failing series
    term and its dimension versus the number of basis vectors inside it.
    """
    for label, series in (
        ("lower", g.lower_central_series()),
        ("upper", g.upper_central_series()),
    ):
        for idx, s in enumerate(series):
            inside = sum(1 for i in range(g.dim) if s.contains({i: ONE}))
            if inside != s.dim:
                return False, {
                    "series": label,
                    "term": idx,
                    "subspace_dim": s.dim,
                    "basis_vectors_inside": inside,
                }
    return True, None


@dataclass(frozen=True)
class MonomialMap:
    """X_i -> scales[i] * X_{sigma[i]}."""

    sigma: tuple
    scales: tuple

    def matrix(self) -> Matrix:
        n = len(self.sigma)
        m = [[ZERO] * n for _ in range(n)]
        for i, (s, t) in enumerate(zip(self.sigma, self.scales)):
            m[s][i] = Q(t)
        return Matrix(m)

    def is_isomorphism(self, a: LieAlgebra, b: LieAlgebra) -> bool:
        """Does the map send tensor a to tensor b?

        Requirement: for all i < j,
        sum_k cA_ijk * t_k * e_{sigma(k)}  ==  t_i t_j [e_sigma(i), e_sigma(j)]_b.
        """
        n = a.dim
        for i in range(n):
            for j in range(i + 1, n):
                lhs = {}
                for k, c in a.bracket_basis(i, j).items():
                    lhs[self.sigma[k]] = c * self.scales[k]
                rhs = {
                    m: self.scales[i] * self.scales[j] * c
                    for m, c in b.bracket_basis(self.sigma[i], self.sigma[j]).items()
                }
                if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                    return False
        return True


class InputBasisNotNice(ValueError):
    pass


def monomial_equivalent(g: LieAlgebra, basis_a: Matrix, basis_b: Matrix):
    """Monomial map identifying the two nice bases of g, or None.

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


def _support_profile(t: LieAlgebra, i):
    """Permutation-invariant local data of index i, for pruning."""
    as_left = sorted(len(t.bracket_basis(i, j)) for j in range(t.dim) if j != i)
    as_target = sum(
        1 for comps in t.brackets.values() for k in comps if k == i
    )
    return tuple(as_left), as_target


def _monomial_search(ta: LieAlgebra, tb: LieAlgebra):
    n = ta.dim
    prof_a = [_support_profile(ta, i) for i in range(n)]
    prof_b = [_support_profile(tb, i) for i in range(n)]
    candidates = [
        [p for p in range(n) if prof_b[p] == prof_a[i]] for i in range(n)
    ]
    sigma = [None] * n
    used = [False] * n

    def pairs_ok(i):
        # every fully-assigned pair must have matching bracket supports
        for j in range(i):
            ca = ta.bracket_basis(j, i)
            cb = tb.bracket_basis(sigma[j], sigma[i])
            if len(ca) != len(cb):
                return False
            for k in ca:
                if sigma[k] is not None and sigma[k] not in cb:
                    return False
        return True

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

    Solved multiplicatively: one integer linear system per prime appearing in
    any required ratio, plus one system over GF(2) for the signs.
    """
    n = ta.dim
    rows = []  # exponent-coefficient rows over the scale exponents
    ratios = []
    for (i, j), comps in ta.brackets.items():
        cb = tb.bracket_basis(sigma[i], sigma[j])
        for k, ca in comps.items():
            tk = sigma[k]
            if tk not in cb:
                return None
            row = [0] * n
            row[i] += 1
            row[j] += 1
            row[k] -= 1
            rows.append(row)
            ratios.append(ca / cb[tk])
    if not rows:
        return MonomialMap(sigma, tuple([ONE] * n))
    signs = []
    prime_exps = []
    primes = set()
    for r in ratios:
        s, f = factor_rat(r)
        signs.append(0 if s > 0 else 1)
        prime_exps.append(f)
        primes.update(f)
    per_prime = {}
    for p in sorted(primes):
        sol = solve_integer_system(rows, [f.get(p, 0) for f in prime_exps])
        if sol is None:
            return None
        per_prime[p] = sol
    sign_sol = solve_gf2_system([[x & 1 for x in row] for row in rows], signs)
    if sign_sol is None:
        return None
    scales = []
    for i in range(n):
        t = ONE
        for p, sol in per_prime.items():
            t *= Q(p) ** sol[i]
        if sign_sol[i]:
            t = -t
        scales.append(t)
    return MonomialMap(sigma, tuple(scales))
