"""The monomial search and catalog3 in ints against the Fraction code they replaced.

MonomialMap.is_isomorphism, _support_profiles, _monomial_search and
_solve_scales read the int tables (table, den) of the two algebras, and
cyclic_sign_pattern and _ad_action_matrix read the int table and the int
Subspace rows.  The reference_* functions below are the versions that read
the Fraction views, kept verbatim apart from their names and the stand-ins
bracket_basis and q_rows for the views; their factor_rat factors over primes
by sympy, where _solve_scales works over a coprime base.  classify3 takes the
abelian ideal of a solvable row as the centralizer of [g, g], where
reference_abelian_codim1_ideal searches up to five candidates for it.  On
signed, rescaled permutations of nice bases the search must return the same
(sigma, scales), on L_n it must reach the scale equations once, on seeded
random tensors the scale solve must return the same maps, on seeded
conjugates of every catalog row classify3 must name that row and the
centralizer and helpers must agree with the search, and on seeded conjugates
of random R f + R^2 classify3 must answer as the search does.
"""

import functools
import itertools
import random
import time

import pytest
import sympy

from nicebasis import fixtures, nice
from nicebasis.almost_abelian import build, exists_nice, indecomposable_family
from nicebasis.catalog3 import (
    _ad_action_matrix,
    _match_2x2,
    catalog,
    classify3,
    cyclic_sign_pattern,
)
from nicebasis.graphs import GraphSpec, construct_nice_basis, graph_algebra
from nicebasis.lie import LieAlgebra
from nicebasis.linalg import Matrix, Subspace, solve_integer_system
from nicebasis.nice import MonomialMap, _monomial_search, check_nice, monomial_equivalent
from nicebasis.scalars import Q, ZERO, ONE, sign
from test_integer_table import bracket_basis, q_rows


# --- the Fraction references -------------------------------------------------

def reference_is_isomorphism(m, a, b):
    n = a.dim
    for i in range(n):
        for j in range(i + 1, n):
            lhs = {}
            for k, c in bracket_basis(a, i, j).items():
                lhs[m.sigma[k]] = c * m.scales[k]
            rhs = {
                t: m.scales[i] * m.scales[j] * c
                for t, c in bracket_basis(b, m.sigma[i], m.sigma[j]).items()
            }
            if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                return False
    return True


def reference_support_profile(t, i):
    as_left = sorted(len(bracket_basis(t, i, j)) for j in range(t.dim) if j != i)
    as_target = sum(i in t.table[a][b] for a, b in t.pairs)
    return tuple(as_left), as_target


def reference_monomial_search(ta, tb):
    n = ta.dim
    prof_a = [reference_support_profile(ta, i) for i in range(n)]
    prof_b = [reference_support_profile(tb, i) for i in range(n)]
    candidates = [
        [p for p in range(n) if prof_b[p] == prof_a[i]] for i in range(n)
    ]
    sigma = [None] * n
    used = [False] * n

    def pairs_ok(i):
        for j in range(i):
            ca = bracket_basis(ta, j, i)
            cb = bracket_basis(tb, sigma[j], sigma[i])
            if len(ca) != len(cb):
                return False
            for k in ca:
                if sigma[k] is not None and sigma[k] not in cb:
                    return False
        return True

    def extend(i):
        if i == n:
            m = reference_solve_scales(ta, tb, tuple(sigma))
            if m is not None and reference_is_isomorphism(m, ta, tb):
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


def factor_rat(q):
    """Sign and {prime: exponent} of a nonzero rational, by sympy.factorint."""
    f = sympy.factorint(abs(q.numerator))
    f.update((p, -e) for p, e in sympy.factorint(q.denominator).items())
    return (1 if q > 0 else -1), f


def reference_solve_scales(ta, tb, sigma):
    n = ta.dim
    rows = []
    factored = []
    for (i, j), comps in ta.brackets.items():
        cb = bracket_basis(tb, sigma[i], sigma[j])
        for k, ca in comps.items():
            tk = sigma[k]
            if tk not in cb:
                return None
            row = [0] * n
            row[i] += 1
            row[j] += 1
            row[k] -= 1
            rows.append(row)
            factored.append(factor_rat(ca / cb[tk]))
    if not rows:
        return MonomialMap(sigma, tuple([ONE] * n))
    primes = sorted({p for _, f in factored for p in f})
    systems = [(p, rows, [f.get(p, 0) for _, f in factored]) for p in primes]
    two_eye = [row + [2 * (q == r) for q in range(len(rows))] for r, row in enumerate(rows)]
    systems.append((-1, two_eye, [int(s < 0) for s, _ in factored]))
    scales = [ONE] * n
    for p, a, b in systems:
        x = solve_integer_system(a, b)
        if x is None:
            return None
        scales = [t * Q(p) ** e for t, e in zip(scales, x)]
    return MonomialMap(sigma, tuple(scales))


def reference_cyclic_sign_pattern(g):
    if g.dim != 3:
        return None
    a = bracket_basis(g, 1, 2).get(0)
    b = bracket_basis(g, 2, 0).get(1)
    c = bracket_basis(g, 0, 1).get(2)
    if not (a and b and c):
        return None
    if (
        len(bracket_basis(g, 1, 2)) != 1
        or len(bracket_basis(g, 2, 0)) != 1
        or len(bracket_basis(g, 0, 1)) != 1
    ):
        return None
    return sign(a), sign(b), sign(c)


def reference_abelian_codim1_ideal(g, derived):
    candidates = []
    if derived.dim == 2:
        candidates.append(derived)
    if derived.dim >= 1:
        cent = g.centralizer(q_rows(derived).values())
        if cent.dim == 2:
            candidates.append(cent)
        if cent.dim == 3 and derived.dim == 1:
            z = q_rows(derived)[derived.pivots[0]]
            for i in range(3):
                s = Subspace(3, [z, {i: ONE}])
                if s.dim == 2:
                    candidates.append(s)
    for h in candidates:
        if reference_is_abelian_ideal(g, h):
            return h
    return None


def reference_is_abelian_ideal(g, h):
    basis = list(q_rows(h).values())
    for i, u in enumerate(basis):
        for v in basis[i + 1:]:
            if g.bracket_sparse(u, v):
                return False
    return g._is_ideal(h)


def reference_ad_action_matrix(g, h):
    f = next(i for i in range(3) if not h.contains({i: ONE}))
    cols = []
    for p in h.pivots:
        w = g.bracket_sparse({f: ONE}, q_rows(h)[p])
        if not h.contains(w):
            raise RuntimeError("candidate subspace is not ad-invariant")
        cols.append(tuple(w.get(q, ZERO) for q in h.pivots))
    return Matrix.from_columns(cols)


# --- the corpus ----------------------------------------------------------------

def p4_class3():
    spec = GraphSpec.of(4, [(0, 1), (1, 2), (2, 3)], 3)
    return graph_algebra(spec)[0], construct_nice_basis(spec)


def family3():
    fam = indecomposable_family(3)
    return fam.compiled, exists_nice(fam.a).witness


# name -> (algebra, a nice basis of it as columns)
NICE = {
    "h3": lambda: (fixtures.heisenberg3(), Matrix.identity(3)),
    "L5": lambda: (fixtures.standard_filiform(5), Matrix.identity(5)),
    "L7": lambda: (fixtures.standard_filiform(7), Matrix.identity(7)),
    "sl2": lambda: (fixtures.sl2(), Matrix.identity(3)),
    "so3": lambda: (fixtures.so3(), Matrix.identity(3)),
    "P4-class-3": p4_class3,
    "family-3": family3,
}


def signed_permutation(rng, n, rescale):
    """A monomial matrix: a seeded permutation with signs, and scales if rescale."""
    images = list(range(n))
    rng.shuffle(images)
    return Matrix.from_columns([{images[j]: rng.choice((1, -1)) * (
        Q(rng.randint(1, 4), rng.randint(1, 3)) if rescale else 1)} for j in range(n)], n)


def as_pair(m):
    return None if m is None else (m.sigma, m.scales)


class TestMonomialSearch:
    @pytest.mark.parametrize("name", sorted(NICE))
    def test_same_maps_as_the_fraction_search(self, name):
        g, basis = NICE[name]()
        assert check_nice(g.change_basis(basis))
        rng = random.Random(name)
        for t in range(8):
            a = basis * signed_permutation(rng, g.dim, False) if t >= 4 else basis
            b = basis * signed_permutation(rng, g.dim, t % 2 == 0)
            got = monomial_equivalent(g, a, b)
            ta, tb = g.change_basis(a), g.change_basis(b)
            assert got is not None
            assert as_pair(got) == as_pair(reference_monomial_search(ta, tb))
            assert got.is_isomorphism(ta, tb) and reference_is_isomorphism(got, ta, tb)
            assert cyclic_sign_pattern(tb) == reference_cyclic_sign_pattern(tb)
            # a map off by one scale: both tests reject it when a bracket reads it
            k = rng.randrange(g.dim)
            off = MonomialMap(got.sigma, tuple(2 * s if i == k else s
                                               for i, s in enumerate(got.scales)))
            assert off.is_isomorphism(ta, tb) == reference_is_isomorphism(off, ta, tb)

    def test_the_two_sl2_bases(self):
        g = fixtures.sl2()
        first, second = Matrix.identity(3), Matrix.from_columns([(1, 0, 0), (0, 1, 1), (0, 1, -1)])
        for a, b in ((first, second), (second, first), (second, second), (first, first)):
            want = reference_monomial_search(g.change_basis(a), g.change_basis(b))
            assert as_pair(monomial_equivalent(g, a, b)) == as_pair(want)
        assert monomial_equivalent(g, first, second) is None

    # the witnesses that the search found before it checked a root's target
    # as soon as that target is assigned: with the check they stay the same
    LN_WITNESSES = {
        8: ((0, 4, 3, 7, 6, 1, 5, 2), (1, 1, -1, -1, -1, 1, 1, -1)),
        9: ((3, 0, 7, 8, 5, 1, 2, 6, 4), (1, 1, -1, -1, 1, 1, -1, 1, 1)),
        10: ((3, 0, 7, 9, 5, 1, 2, 6, 8, 4), (1, 1, -1, -1, 1, 1, -1, 1, -1, 1)),
        11: ((3, 0, 7, 10, 5, 1, 2, 6, 8, 9, 4), (1, 1, -1, 1, 1, 1, -1, 1, -1, -1, 1)),
    }

    @pytest.mark.parametrize("n", range(8, 15))
    def test_filiform_chain_pruned_before_the_leaves(self, monkeypatch, n):
        # on L_n every target [e_0, e_i] = e_(i+1) is assigned after its pair; the
        # search without the check called _solve_scales 47, 589, 3,529 and 24,721
        # times at n = 8..11
        calls = []

        def counted(ta, tb, sigma):
            calls.append(sigma)
            return solve_scales(ta, tb, sigma)

        solve_scales = nice._solve_scales
        monkeypatch.setattr(nice, "_solve_scales", counted)
        g = LieAlgebra(n, {(0, i): {i + 1: 1} for i in range(1, n - 1)})
        b = signed_permutation(random.Random(3), n, False)
        got = monomial_equivalent(g, Matrix.identity(n), b)
        assert len(calls) == 1
        if n in self.LN_WITNESSES:
            assert as_pair(got) == self.LN_WITNESSES[n]

    def test_search_and_sign_pattern_build_no_fraction_view(self):
        g, basis = NICE["L7"]()
        rng = random.Random(7)
        ta, tb = g.change_basis(basis), g.change_basis(signed_permutation(rng, 7, True))
        assert _monomial_search(ta, tb) is not None
        assert "brackets" not in vars(ta) and "brackets" not in vars(tb)
        for h in (fixtures.so3(), fixtures.sl2().change_basis(
                Matrix.from_columns([(1, 0, 0), (0, 1, 1), (0, 1, -1)]))):
            assert cyclic_sign_pattern(h) is not None
            assert "brackets" not in vars(h)


# --- the scale solve over a coprime base -----------------------------------------

# constants whose ratios share factors, are perfect powers or hold a large prime
CONSTANTS = (1, 2, 3, 4, 6, 8, 9, 12, 18, 27, 36, 100, 2**31 - 1, 2**61 - 1)


def cyclic(a):
    """The cyclic tensor [e1, e2] = a e3, [e2, e3] = e1, [e3, e1] = e2."""
    return LieAlgebra(3, {(0, 1): {2: Q(a)}, (1, 2): {0: 1}, (0, 2): {1: -1}})


def scale_case(rng):
    """A seeded tensor ta, with one or two targets per bracket and no Jacobi identity, a
    permutation sigma, and the tensor tb that sigma and random scales t make of ta, so that
    t solves the scale equations, unless one constant of tb is then multiplied by a random
    ratio (half the cases) or one target of tb dropped (a tenth)."""
    n = rng.randint(2, 6)

    def constant():
        return rng.choice((1, -1)) * Q(rng.choice(CONSTANTS), rng.choice(CONSTANTS))

    pairs = list(itertools.combinations(range(n), 2))
    a = {(i, j): {k: constant() for k in rng.sample(range(n), rng.randint(1, 2))}
         for i, j in rng.sample(pairs, rng.randint(1, len(pairs)))}
    sigma, t, b = rng.sample(range(n), n), [constant() for _ in range(n)], {}
    for (i, j), comps in a.items():
        s, u = sorted((sigma[i], sigma[j]))
        b[s, u] = {sigma[k]: (1 if s == sigma[i] else -1) * t[k] * c / (t[i] * t[j])
                   for k, c in comps.items()}
    row = rng.choice(list(b.values()))
    k = rng.choice(list(row))
    if rng.random() < 0.5:
        row[k] *= constant()
    elif rng.random() < 0.2:
        del row[k]
    return LieAlgebra(n, a, check=False), LieAlgebra(n, b, check=False), tuple(sigma)


class TestScaleSolve:
    @pytest.mark.parametrize("a", [4, 9, 36, Q(1, 4), Q(9, 4)])
    def test_square_ratios_are_equivalent(self, a):
        # 4 is refused when the base keeps 4 itself: Y x = (1, 0, 0) has no integer solution
        got = _monomial_search(cyclic(1), cyclic(a))
        assert got is not None and got.is_isomorphism(cyclic(1), cyclic(a))
        assert got == reference_monomial_search(cyclic(1), cyclic(a))

    @pytest.mark.parametrize("a", [2, 8, 18])
    def test_other_ratios_are_not(self, a):
        assert _monomial_search(cyclic(1), cyclic(a)) is None
        assert reference_monomial_search(cyclic(1), cyclic(a)) is None

    def test_square_of_two_large_primes(self):
        # (pq)^2 has two prime factors above 10^7, which trial division never reached
        p, q = 2**61 - 1, 2**31 - 1
        start = time.perf_counter()
        got = _monomial_search(cyclic(1), cyclic((p * q) ** 2))
        assert time.perf_counter() - start < 0.1
        assert as_pair(got) == ((0, 1, 2), (Q(1, p * q), Q(1, p * q), ONE))

    def test_same_maps_as_the_prime_reference_on_a_seeded_corpus(self):
        rng, solved = random.Random(48), 0
        for _ in range(2400):
            ta, tb, sigma = scale_case(rng)
            got = nice._solve_scales(ta, tb, sigma)
            assert as_pair(got) == as_pair(reference_solve_scales(ta, tb, sigma))
            solved += got is not None
        assert 1000 < solved < 2000, solved  # both answers are well represented


# --- catalog3 ------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def rows():
    return tuple(catalog())


def invertible(rng):
    while True:
        m = Matrix([[Q(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(3)]
                    for _ in range(3)])
        if m.det() != 0:
            return m


class TestCatalog3:
    @pytest.mark.parametrize("row", range(13))
    def test_seeded_conjugates(self, row):
        entry = rows()[row]
        rng = random.Random(row)
        for t in range(6):
            g = entry.algebra.change_basis(invertible(rng)) if t else entry.algebra
            got = classify3(g)
            assert (got.name, got.nu, got.parameter) == (entry.name, entry.nu, entry.parameter)
            assert cyclic_sign_pattern(g) == reference_cyclic_sign_pattern(g)
            derived = g.derived_subalgebra()
            if derived.dim and g.killing_form().det() == 0:  # solvable, not abelian
                h = g.centralizer(derived.rows.values())
                if h.dim == 3:  # [g, g] central
                    assert got.name == "h3"
                    continue
                assert h == reference_abelian_codim1_ideal(g, derived)
                assert _ad_action_matrix(g, h) == reference_ad_action_matrix(g, h)

    def test_random_almost_abelian_conjugates_match_search(self):
        # R f + R^2 over random integer A, in rational bases: classify3 gives
        # the answer of the candidate search and its ad action matrix, which
        # is h3 when that matrix is nilpotent and _match_2x2's otherwise
        rng, named = random.Random(23), 0
        for _ in range(400):
            a = Matrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            g = build(a).compiled.change_basis(invertible(rng))
            derived = g.derived_subalgebra()
            if derived.dim == 0:
                want = "R^3"
            else:
                a2 = reference_ad_action_matrix(g, reference_abelian_codim1_ideal(g, derived))
                if a2 * a2 == Matrix.zeros(2, 2):
                    want = "h3"
                else:
                    want = _match_2x2(a2)
                    want = want and want.name
            got = classify3(g)
            assert (got and got.name) == want, a
            named += got is not None
        assert 100 < named < 300, named  # both answers are well represented
