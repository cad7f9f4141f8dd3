"""Differential tests of the almost abelian pipeline: char_poly against sympy,
the factorization walk against a memoized reference recursion written
here, linalg._divide by a binomial against long division, witnesses against
a dense Fraction construction of the cofactor rule (x^k rad(q) / f by sympy) and
the order of their candidates, one binomial-divisor pass per analysis, and
each fast path of analyze against the slow path it replaces: the start-indexed
factorization walk, and on squarefree polynomials the pairwise coprime
divisor sets, against the filtered walk, the squarefree characteristic
polynomial against the minimal-polynomial criterion, and the one-entry
analysis cache against a fresh analysis."""

import functools
import itertools
import math
import random
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nicebasis import almost_abelian, cli
from nicebasis.almost_abelian import (
    BinomialFactorization,
    _binomial_divisors,
    _enumerate,
    _squarefree_part,
    _witness_basis,
    analyze,
    build,
    count_nice,
    exists_nice,
    indecomposable_family,
)
from nicebasis.linalg import (
    Matrix,
    Poly,
    Subspace,
    _divide,
    char_poly,
    dense,
    int_gcd,
    kernel_chain,
    minimal_polynomial,
)
from nicebasis.nice import check_nice
from nicebasis.scalars import Q
from test_integer_table import q_rows, sparse
from test_root_oracle import derivative, factorizations, mul, pdivmod

X = sympy.Symbol("x")

entries = st.one_of(st.just(Q(0)),
                    st.builds(Q, st.integers(-4, 4), st.integers(1, 3)))


def sympy_char_poly(m):
    s = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(
        int(m[i, j].numerator), int(m[i, j].denominator)))
    coeffs = s.charpoly(X).all_coeffs()  # highest degree first
    return Poly([Q(int(c.p), int(c.q)) for c in reversed(coeffs)])


@st.composite
def square(draw, sizes):
    n = draw(sizes)
    vals = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    return [vals[i * n:(i + 1) * n] for i in range(n)]


class TestCharPolyVsSympy:
    @settings(max_examples=15, deadline=None)
    @given(square(st.integers(9, 16)))
    def test_general_matrices(self, rows):
        n = len(rows)
        rows[n - 1][0] = Q(1)  # below the subdiagonal: not Hessenberg
        m = Matrix(rows)
        assert char_poly(m) == sympy_char_poly(m)

    @settings(max_examples=30, deadline=None)
    @given(square(st.integers(3, 9)), st.data())
    def test_zero_subdiagonal_columns(self, rows, data):
        # a column zero below the diagonal, or zero on the subdiagonal with a
        # nonzero entry further down: sparse inputs whose Krylov pass may
        # split into several blocks
        n = len(rows)
        k = data.draw(st.integers(0, n - 3))
        for i in range(k + 1, n):
            rows[i][k] = Q(0)
        if data.draw(st.booleans()):
            rows[n - 1][k] = Q(2)
        m = Matrix(rows)
        assert char_poly(m) == sympy_char_poly(m)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_signed_permutation_conjugates_of_the_family(self, n, data):
        base = indecomposable_family(n).a
        size = base.rows
        perm = data.draw(st.permutations(range(size)))
        signs = data.draw(st.lists(st.sampled_from((1, -1)),
                                   min_size=size, max_size=size))
        m = Matrix([[signs[i] * signs[j] * base[perm[i], perm[j]]
                     for j in range(size)] for i in range(size)])
        assert char_poly(m) == Poly.binomial(size, 1)


def reference_enumerate(p, memo):
    """Factorizations as sorted tuples: divisors recomputed per quotient,
    memoized by polynomial, deduplicated through a set."""
    key = p.coeffs
    if key in memo:
        return memo[key]
    if p.degree == 0:
        memo[key] = {()}
        return memo[key]
    out = set()
    divisors, _ = _binomial_divisors(p)
    for d, r in divisors:
        quotient = pdivmod(p, Poly.binomial(d, r))[0]
        for rest in reference_enumerate(quotient, memo):
            out.add(tuple(sorted(rest + ((d, r),))))
    memo[key] = out
    return out


binomials = st.tuples(
    st.integers(1, 4),
    st.sampled_from([Q(1), Q(-1), Q(2), Q(-2), Q(4), Q(1, 4), Q(-8), Q(9)]))


class TestEnumerateVsReference:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(binomials, min_size=1, max_size=4))
    def test_random_binomial_products(self, factors):
        p = mul(*(Poly.binomial(d, r) for d, r in factors))
        got = [f.factors for f in factorizations(p)]
        assert got == sorted(reference_enumerate(p, {}))
        assert tuple(sorted(factors)) in got

    @pytest.mark.parametrize("k", [1, 2, 6, 8, 12, 16, 32])
    def test_x_power_minus_one(self, k):
        p = Poly.binomial(k, 1)
        got = [f.factors for f in factorizations(p)]
        assert got == sorted(reference_enumerate(p, {}))


# the kernel runs on the monic integer transform, so it takes int
# coefficients and an int constant; rational constants reach it through
# analyze, covered by TestEnumerateVsReference above
int_polys = st.lists(st.integers(-6, 6), max_size=12).map(Poly)
int_constants = st.integers(-4, 4)


def ints(p):
    return tuple(int(c) for c in p.coeffs)


def divide_binomial(c, d, r):
    """c / (x^d - r) as a tuple by _divide on the binomial's int list, as the walk
    divides, or None."""
    q = _divide(c, [-r] + [0] * (d - 1) + [1])
    return None if q is None else tuple(q)


class TestDivideBinomial:
    @settings(max_examples=60, deadline=None)
    @given(int_polys, st.integers(1, 6), int_constants)
    def test_exact_multiples(self, q, d, r):
        got = divide_binomial(ints(mul(q, Poly.binomial(d, r))), d, r)
        assert got == ints(q)
        assert all(type(c) is int for c in got)

    @settings(max_examples=60, deadline=None)
    @given(int_polys, st.integers(1, 6), int_constants)
    def test_vs_divmod(self, p, d, r):
        quotient, rem = pdivmod(p, Poly.binomial(d, r))
        assert divide_binomial(ints(p), d, r) == (ints(quotient) if rem.is_zero() else None)

    @settings(max_examples=30, deadline=None)
    @given(int_polys.filter(lambda p: not p.is_zero()), st.integers(1, 4), int_constants)
    def test_degree_above_p(self, p, extra, r):
        d = p.degree + extra
        assert not pdivmod(p, Poly.binomial(d, r))[1].is_zero()
        assert divide_binomial(ints(p), d, r) is None


def dense_rows(s):
    """The reduced rows of the Subspace s as dense tuples, by increasing pivot."""
    return [dense(q_rows(s)[p], s.ambient) for p in s.pivots]


def reference_nilpotent_chains(a):
    """Jordan chains of the nilpotent part, stepped with the dense apply."""
    n = a.rows
    kernels = kernel_chain(a)
    chains = []
    covered = Subspace(n)
    for i in range(len(kernels) - 1, 0, -1):
        seen = Subspace(n, dense_rows(kernels[i - 1]) + dense_rows(covered))
        for v in dense_rows(kernels[i]):
            if seen.add(v):
                chain = [v]
                for _ in range(i - 1):
                    chain.append(a.apply(chain[-1]))
                chains.append(chain)
                for w in chain:
                    covered.add(w)
                    seen.add(w)
    return chains


def sympy_cofactor(fact, k, d, r):
    """x^k rad(q) / (x^d - r) by sympy, q the product of fact's factors, as Q
    coefficients lowest first."""
    q = sympy.Mul(*[X**e - sympy.Rational(c.numerator, c.denominator) for e, c in fact.factors])
    rad = sympy.quo(q, sympy.gcd(q, sympy.diff(q, X)), X)
    f = X**d - sympy.Rational(r.numerator, r.denominator)
    g = sympy.Poly(X**k * sympy.quo(rad, f, X), X)
    return [Q(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())]


def reference_candidates(n, d):
    """The dense candidates in the order they are tried: e_0..e_(n-1), then
    sum_j t^j e_j for t = 0..d(n-1)."""
    return ([tuple(int(i == j) for j in range(n)) for i in range(n)]
            + [tuple(t**j for j in range(n)) for t in range(d * (n - 1) + 1)])


def primitive_positive(w):
    """The primitive int vector on the line of the Fraction vector w, positive at
    its highest nonzero index."""
    ints = [x * math.lcm(*[y.denominator for y in w]) for x in w]
    g = math.gcd(*map(int, ints)) * (1 if next(x for x in reversed(ints) if x) > 0 else -1)
    return tuple(int(x) // g for x in ints)


def reference_cyclic_chain(a, g, d, existing):
    """The chain of the cofactor rule in dense Fractions: for the candidates v in
    order, w = g(A) v by Horner's rule, made primitive and positive at its
    highest index; the first chain w, Aw, ..., A^(d-1)w independent of the
    vectors existing."""
    n = a.rows
    for v in reference_candidates(n, d):
        w = (Q(0),) * n
        for c in reversed(g):
            w = tuple(x + c * y for x, y in zip(a.apply(w), v))
        if not any(w):
            continue
        chain = [tuple(map(Q, primitive_positive(w)))]
        for _ in range(d - 1):
            chain.append(a.apply(chain[-1]))
        trial = Subspace(n, existing)
        if all(trial.add(u) for u in chain):
            return chain
    raise RuntimeError("no cyclic vector found for factor")


def reference_witness(a, fact):
    """The witness columns f, the Jordan chains, then one chain per factor of
    fact, each from g = x^k rad(q) / f by sympy, with no int or Krylov step."""
    n = a.rows
    chains = reference_nilpotent_chains(a)
    if fact is not None:
        for d, r in fact.factors:
            g = sympy_cofactor(fact, n - fact.degree, d, r)
            chains.append(reference_cyclic_chain(a, g, d, [v for ch in chains for v in ch]))
    return Matrix.from_columns([(1,) + (0,) * n] + [(0, *v) for ch in chains for v in ch])


def block_diagonal(blocks):
    size = sum(b.rows for b in blocks)
    m = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        for i, j in itertools.product(range(b.rows), repeat=2):
            m[offset + i][offset + j] = b[i, j]
        offset += b.rows
    return Matrix(m)


def jordan_block(k):
    return Matrix([[int(i == j + 1) for j in range(k)] for i in range(k)])


def conjugated_blocks(seed):
    """P B P^-1 for B nilpotent Jordan blocks plus one semisimple block."""
    rng = random.Random(seed)
    blocks = [jordan_block(rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
    blocks.append(rng.choice([
        indecomposable_family(3).a,
        Matrix([[0, 2], [1, 0]]),  # x^2 - 2: irrational roots, rational binomial
        Matrix([[0, 0, 8], [1, 0, 0], [0, 1, 0]]),  # x^3 - 8
        Matrix.diagonal([Q(3), Q(-1, 2)]),
    ]))
    b = block_diagonal(blocks)
    while True:
        p = Matrix([[rng.randint(-2, 2) for _ in range(b.rows)]
                    for _ in range(b.rows)])
        if p.det() != 0:
            return p * b * p.inverse()


def family_conjugate(n, seed):
    rng = random.Random(seed)
    base = indecomposable_family(n).a
    size = base.rows
    perm = list(range(size))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(size)]
    return Matrix([[signs[i] * signs[j] * base[perm[i], perm[j]]
                    for j in range(size)] for i in range(size)])


def witness_cases():
    return [*(family_conjugate(n, n) for n in range(2, 7)),
            *(conjugated_blocks(seed) for seed in range(6))]


class TestWitnessVsDenseReference:
    @pytest.mark.parametrize("a", witness_cases(), ids=[f"family-{n}" for n in range(2, 7)]
                             + [f"blocks-{seed}" for seed in range(6)])
    def test_identical_witness(self, a):
        analysis = analyze(a)
        assert analysis.exists().status == "yes"
        for fact in analysis.factorizations or [None]:
            got = _witness_basis(a, fact)
            assert got == reference_witness(a, fact)
            assert check_nice(build(a).compiled.change_basis(got))


def tried_candidates(monkeypatch):
    """Wrap _cyclic_candidates; returns the list of the candidates taken from it."""
    tried, original = [], almost_abelian._cyclic_candidates

    def recorded(n, d):
        for v in original(n, d):
            tried.append(v)
            yield v

    monkeypatch.setattr(almost_abelian, "_cyclic_candidates", recorded)
    return tried


class TestCandidateOrder:
    @pytest.mark.parametrize("n, d", [(1, 1), (2, 2), (3, 1), (4, 3), (6, 2)])
    def test_units_then_the_moment_curve(self, n, d):
        got = list(almost_abelian._cyclic_candidates(n, d))
        assert got == [sparse(v) for v in reference_candidates(n, d)]
        assert len(got) == n + d * (n - 1) + 1

    def test_curve_point_when_every_unit_vector_fails(self, monkeypatch):
        # x^2 - 4 on diag(2, -2): each e_i is an eigenvector, so its chain has one
        # direction; t = 0 gives e_0 again and t = 1 gives e_0 + e_1, which serves
        a = Matrix.diagonal([Q(2), Q(-2)])
        fact = next(f for f in analyze(a).factorizations if f.factors == ((2, Q(4)),))
        tried = tried_candidates(monkeypatch)
        witness = _witness_basis(a, fact)
        assert tried == [{0: 1}, {1: 1}, {0: 1}, {0: 1, 1: 1}]
        assert witness == Matrix([[1, 0, 0], [0, 1, 2], [0, 1, -2]])
        assert witness == reference_witness(a, fact)

    def test_later_unit_vector(self, monkeypatch):
        # for x - 1 on a rotation plus 1, g = x^2 + 1 kills e_0 and e_1: e_2 serves
        a = block_diagonal([Matrix([[0, -1], [1, 0]]), Matrix([[1]])])
        fact = BinomialFactorization.of([(1, 1), (2, -1)])
        assert fact in analyze(a).factorizations
        tried = tried_candidates(monkeypatch)
        witness = _witness_basis(a, fact)
        assert tried == [{0: 1}, {1: 1}, {2: 1}, {0: 1}]
        assert witness == reference_witness(a, fact)

    @pytest.mark.parametrize("n", [4, 5])
    def test_family_takes_e0_for_every_factor(self, monkeypatch, n):
        a = indecomposable_family(n).a
        for fact in analyze(a).factorizations:
            tried = tried_candidates(monkeypatch)
            _witness_basis(a, fact)
            monkeypatch.undo()
            assert tried == [{0: 1}] * len(fact.factors)


class TestEveryFactorizationHasAWitness:
    def test_chain_with_components_in_three_constituents(self):
        # the chain of x^4 - 1 in (x^4 - 1)(x^4 - 1) needs components in x - 1,
        # x + 1 and x^2 + 1 at once: no kernel vector or sum of two has them
        rotation = Matrix([[0, -1], [1, 0]])
        a = block_diagonal([Matrix.diagonal([Q(1), Q(1), Q(-1), Q(-1)]), rotation, rotation])
        facts = analyze(a).factorizations
        assert count_nice(a) == len(facts) == 6
        assert "(x^4 - 1) (x^4 - 1)" in map(str, facts)
        for fact in facts:
            assert check_nice(build(a).compiled.change_basis(_witness_basis(a, fact)))


class TestOneDivisorPass:
    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []

        def counted(p):
            counter.append(p)
            return _binomial_divisors(p)

        monkeypatch.setattr(almost_abelian, "_binomial_divisors", counted)
        return counter

    @pytest.mark.parametrize("a", [
        indecomposable_family(4).a,
        Matrix.diagonal([Q(1), Q(-1), Q(-2), Q(2)]),
        Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 3]]),  # nilpotent block plus 3
    ], ids=["family-4", "diagonal", "mixed"])
    def test_once_per_analysis(self, calls, a):
        # count and exists read the analysis analyze kept for a
        almost_abelian.analyze(a)
        assert len(calls) == 1
        count_nice(a)
        exists_nice(a)
        assert len(calls) == 1

    def test_none_for_nilpotent(self, calls):
        almost_abelian.analyze(Matrix([[0, 1], [0, 0]]))
        assert calls == []

    def test_once_per_cli_aa(self, calls, capsys):
        # nicebase aa reads existence and count off one shared analysis
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "cyclic4.mat"
        assert cli.main(["aa", str(fixture)]) == 0
        assert "nu 3" in capsys.readouterr().out
        assert len(calls) == 1


# --- fast paths of analyze against the slow paths they replace ---------------


def filtered_enumerate(p, divisors, divisions):
    """_enumerate as it was: every factorization of each quotient, memoized by
    quotient, then filtered to the tails from the factor's index on.  Each
    trial division is appended to divisions."""
    n, scale = p.degree, math.lcm(*(c.denominator for c in p.coeffs))
    binomials = [(d, int(r * scale**d)) for d, r in divisors]
    memo = {(1,): [()]}

    def walk(c):
        if c not in memo:
            out = memo[c] = []
            for i, (d, r) in enumerate(binomials):
                if d >= len(c):
                    break
                divisions.append((c, d, r))
                q = divide_binomial(c, d, r)
                if q is not None:
                    out.extend((i,) + t for t in walk(q) if not t or t[0] >= i)
        return memo[c]

    top = tuple(int(x * scale ** (n - k)) for k, x in enumerate(p.coeffs))
    return [tuple(divisors[i] for i in t) for t in walk(top)]


def random_binomial_products(seed, count):
    rng = random.Random(seed)
    constants = [Q(1), Q(-1), Q(2), Q(-2), Q(4), Q(1, 4), Q(-8), Q(9), Q(3, 2)]
    for _ in range(count):
        p = Poly([1])
        for _ in range(rng.randint(1, 5)):
            p = mul(p, Poly.binomial(rng.randint(1, 4), rng.choice(constants)))
        yield p


class TestStartIndexedWalk:
    """The walk against the filtered one, and on squarefree polynomials the
    pairwise coprime divisor sets against both: same lists in the same order,
    the sets with no trial division."""

    @pytest.fixture
    def divisions(self, monkeypatch):
        # the _divide calls of almost_abelian, here all _enumerate's, by x^d - r
        counter = []

        def counted(c, g):
            counter.append((c, len(g) - 1, -g[0]))
            return _divide(c, g)

        monkeypatch.setattr(almost_abelian, "_divide", counted)
        return counter

    @pytest.mark.parametrize("k", range(1, 33))
    def test_x_power_minus_one(self, divisions, k):
        p = Poly.binomial(k, 1)
        divisors, _ = _binomial_divisors(p)
        reference = []
        want = filtered_enumerate(p, divisors, reference)
        assert _enumerate(p, divisors, False) == want  # same lists, same order
        assert len(divisions) <= len(reference)  # and no more trial divisions

    @pytest.mark.parametrize("k", range(1, 257))
    def test_x_power_minus_one_by_coprime_sets(self, divisions, k):
        p = Poly.binomial(k, 1)
        divisors, _ = _binomial_divisors(p)
        assert _enumerate(p, divisors, True) == filtered_enumerate(p, divisors, [])
        assert divisions == []

    @pytest.mark.parametrize("seed", range(4))
    def test_random_binomial_products(self, divisions, seed):
        squarefree = 0
        for p in random_binomial_products(seed, 50):
            divisors, _ = _binomial_divisors(p)
            reference = []
            want = filtered_enumerate(p, divisors, reference)
            del divisions[:]
            assert _enumerate(p, divisors, False) == want
            assert len(divisions) <= len(reference)
            if _squarefree_part(p)[1]:
                squarefree += 1
                del divisions[:]
                assert _enumerate(p, divisors, True) == want
                assert divisions == []
        assert squarefree >= 10

    def test_fewer_divisions_on_the_family(self, divisions):
        # x^16 - 1 (the family at n = 5): 106 trial divisions instead of 205 by
        # the walk, none by the coprime sets, which an n = 5 request takes
        p = Poly.binomial(16, 1)
        divisors, _ = _binomial_divisors(p)
        reference = []
        assert _enumerate(p, divisors, False) == filtered_enumerate(p, divisors, reference)
        assert (len(divisions), len(reference)) == (106, 205)
        del divisions[:]
        analyze.cache_clear()
        assert count_nice(indecomposable_family(5).a) == 5
        assert divisions == []

    def test_walk_keeps_factors_that_share_a_root(self):
        # (x^2 - 1)(x^3 - 1) = (x - 1)^2 (x + 1)(x^2 + x + 1) is not squarefree, and
        # x^2 - 1, x^3 - 1 share the root 1: the pairwise coprime sets would lose
        # both factorizations, the walk lists them
        p = mul(Poly.binomial(2, 1), Poly.binomial(3, 1))
        assert not _squarefree_part(p)[1]
        divisors, _ = _binomial_divisors(p)
        assert divisors == [(1, -1), (1, 1), (2, 1), (3, 1)]
        assert _enumerate(p, divisors, False) == [((1, -1), (1, 1), (3, 1)), ((2, 1), (3, 1))]
        assert _enumerate(p, divisors, True) == []

    def test_lemma_against_int_gcd(self):
        # x^a - r and x^b - s share a root iff r^(b/g) = s^(a/g), g = gcd(a, b), and
        # then their gcd is x^g - r^u s^v, ua + vb = g; a coprime pair's product is
        # squarefree and the coprime sets list the pair among its factorizations
        constants = [Q(c) for c in (1, -1, 2, -2, 4, -4, Q(1, 2), Q(-1, 2), 8, 9)]
        binomials = [(d, r) for d in range(1, 7) for r in constants]
        shared = 0
        for (a, r), (b, s) in itertools.combinations_with_replacement(binomials, 2):
            g, u, v = extended_gcd(a, b)
            clash = r ** (b // g) == s ** (a // g)
            got = int_gcd(Poly.binomial(a, r).coeffs, Poly.binomial(b, s).coeffs)
            if clash:
                shared += 1
                t = r**u * s**v
                assert t ** (a // g) == r and t ** (b // g) == s
                want = [-t.numerator] + [0] * (g - 1) + [t.denominator]
                assert got in (want, [-x for x in want])
            else:
                assert len(got) == 1
            p = mul(Poly.binomial(a, r), Poly.binomial(b, s))
            assert _squarefree_part(p)[1] == (not clash)
            if not clash:
                divisors, _ = _binomial_divisors(p)
                facts = _enumerate(p, divisors, True)
                assert facts == filtered_enumerate(p, divisors, [])
                assert tuple(sorted([(a, r), (b, s)])) in facts
        assert 0 < shared < len(binomials) ** 2


def extended_gcd(a, b):
    """(g, u, v) with u a + v b = g = gcd(a, b)."""
    if b == 0:
        return a, 1, 0
    g, u, v = extended_gcd(b, a % b)
    return g, v, u - (a // b) * v


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def mat_fixtures():
    return [almost_abelian.load_matrix(path) for path in sorted(FIXTURES.glob("*.mat"))]


def sympy_binomial_divisors(p):
    """_binomial_divisors by sympy: x^d - r divides p iff r is a common root of the
    polynomials sum_m c_(j + m d) y^m of p's residue classes j mod d."""
    y, coeffs = sympy.Symbol("y"), [sympy.Rational(x.numerator, x.denominator)
                                    for x in map(Q, p.coeffs)]
    divisors, irrational = [], False
    for d in range(1, len(coeffs)):
        classes = [sympy.Poly(list(reversed(coeffs[j::d])), y, domain=sympy.QQ)
                   for j in range(d) if any(coeffs[j::d])]
        g = functools.reduce(sympy.gcd, classes)
        if g.degree() > 0:
            real = set(sympy.real_roots(g))
            rational = {r for r in real if r.is_Rational}
            divisors += [(d, Q(int(r.p), int(r.q))) for r in rational if r]
            irrational |= len(real) > len(rational)
    return sorted(divisors), irrational


class TestBinomialDivisorsVsSympy:
    """Each degree's gcd starts from its first residue class, with one primitive
    call, not from the empty list: the divisors and the flag stay sympy's."""

    @pytest.fixture
    def gcds_from_empty(self, monkeypatch):
        empty = []

        def counted(a, b):
            if not a:
                empty.append(b)
            return int_gcd(a, b)

        monkeypatch.setattr(almost_abelian, "int_gcd", counted)
        return empty

    @pytest.mark.parametrize("a", [indecomposable_family(n).a for n in range(2, 9)]
                             + mat_fixtures(), ids=[f"family-{n}" for n in range(2, 9)]
                             + [path.stem for path in sorted(FIXTURES.glob("*.mat"))])
    def test_family_and_fixtures(self, gcds_from_empty, a):
        q = almost_abelian._squarefree_part(char_poly(a))[0]  # what analyze passes
        if q.degree == 0:
            return
        assert _binomial_divisors(q) == sympy_binomial_divisors(q)
        assert gcds_from_empty == []


def small_corpus():
    """800 integer matrices of sizes 2..5, entries -3..3."""
    rng = random.Random(0)
    out = []
    for _ in range(800):
        n = rng.randint(2, 5)
        out.append(Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
    return out


def minimal_polynomial_semisimple(a):
    """The criterion the shortcut replaces: mp / x^j squarefree."""
    mp = minimal_polynomial(a)
    mp = Poly(mp.coeffs[next(k for k, c in enumerate(mp.coeffs) if c):])
    return len(int_gcd(mp.coeffs, derivative(mp).coeffs)) == 1


class TestSquarefreeShortcut:
    @pytest.fixture
    def mp_calls(self, monkeypatch):
        counter = []

        def counted(a):
            counter.append(a)
            return minimal_polynomial(a)

        monkeypatch.setattr(almost_abelian, "minimal_polynomial", counted)
        return counter

    def agree(self, a):
        analysis = analyze.__wrapped__(a)
        return analysis.nilpotent or analysis.semisimple == minimal_polynomial_semisimple(a)

    def test_corpus(self, mp_calls):
        corpus = small_corpus()
        assert all(self.agree(a) for a in corpus)
        # both branches ran: some spectra needed the minimal polynomial
        assert 0 < len(mp_calls) < len(corpus)

    def test_mat_fixtures(self):
        assert all(self.agree(a) for a in mat_fixtures())

    @pytest.mark.parametrize("n", range(2, 9))
    def test_family_never_needs_the_minimal_polynomial(self, mp_calls, n):
        a = indecomposable_family(n).a
        assert self.agree(a)
        del mp_calls[:]
        assert analyze(a).semisimple and mp_calls == []

    @pytest.mark.parametrize("a,semisimple,asked", [
        (Matrix.diagonal([Q(1), Q(1), Q(2)]), True, 1),
        (Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]]), False, 1),
        (Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 3]]), True, 0),
    ], ids=["repeated-semisimple", "jordan-block", "nilpotent-part"])
    def test_repeated_roots(self, mp_calls, a, semisimple, asked):
        # q / x^k squarefree decides alone; a repeated nonzero root asks mp
        assert analyze(a).semisimple == semisimple
        assert len(mp_calls) == asked


class TestOneAnalysisPerMatrix:
    @pytest.fixture
    def char_polys(self, monkeypatch):
        counter = []

        def counted(a):
            counter.append(a)
            return char_poly(a)

        monkeypatch.setattr(almost_abelian, "char_poly", counted)
        return counter

    @pytest.mark.parametrize("a", [
        indecomposable_family(5).a,
        Matrix.diagonal([Q(1), Q(-1), Q(-2), Q(2)]),
        Matrix([[0, 1], [0, 0]]),
        Matrix([[1, 1], [0, 1]]),
    ], ids=["family-5", "diagonal", "nilpotent", "not-semisimple"])
    def test_count_then_exists_runs_one_analysis(self, char_polys, a):
        count = count_nice(a)
        verdict = exists_nice(a)
        assert len(char_polys) == 1
        assert analyze.cache_info().misses == 1
        fresh = analyze.__wrapped__(a)
        assert count == fresh.count()
        assert verdict == fresh.exists()

    def test_an_equal_matrix_hits_and_another_misses(self, char_polys):
        a = indecomposable_family(4).a
        first = analyze(a)
        equal = Matrix(a.data)
        assert equal is not a and equal == a
        assert analyze(equal) is first
        assert len(char_polys) == 1
        other = Matrix.diagonal([Q(1), Q(2)])
        assert analyze(other) == analyze.__wrapped__(other)
        assert analyze.cache_info().misses == 2
        # one entry: a is analysed afresh after another matrix
        assert analyze(a) == first and analyze(a) is not first

    def test_every_exists_builds_and_checks_its_witness(self, monkeypatch):
        checks = []

        def counted(g):
            checks.append(g)
            return check_nice(g)

        monkeypatch.setattr(almost_abelian, "check_nice", counted)
        a = indecomposable_family(4).a
        assert exists_nice(a).witness == exists_nice(a).witness
        assert len(checks) == 2
