"""Differential tests of the almost abelian pipeline: char_poly against sympy,
enumerate_factorizations against a memoized reference recursion written
here, the one-pass integer binomial division against Poly.divmod, witnesses against
the dense chain construction, and one binomial-divisor pass per analysis."""

import itertools
import random
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nicebasis import almost_abelian, cli
from nicebasis.almost_abelian import (
    _binomial_divisors,
    _divide_binomial,
    count_nice,
    enumerate_factorizations,
    exists_nice,
    indecomposable_family,
)
from nicebasis.linalg import (
    Matrix,
    Poly,
    Subspace,
    char_poly,
    kernel_chain,
    nullspace,
    sparse,
)
from nicebasis.scalars import Q

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
        # a column with nothing below the diagonal is skipped; one with a
        # zero subdiagonal entry but a nonzero entry further down needs a swap
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
        quotient = p // Poly.binomial(d, r)
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
        p = Poly([1])
        for d, r in factors:
            p = p * Poly.binomial(d, r)
        got = [f.factors for f in enumerate_factorizations(p)]
        assert got == sorted(reference_enumerate(p, {}))
        assert tuple(sorted(factors)) in got

    @pytest.mark.parametrize("k", [1, 2, 6, 8, 12, 16, 32])
    def test_x_power_minus_one(self, k):
        p = Poly.binomial(k, 1)
        got = [f.factors for f in enumerate_factorizations(p)]
        assert got == sorted(reference_enumerate(p, {}))


# the kernel runs on the monic integer transform, so it takes int
# coefficients and an int constant; rational constants reach it through
# enumerate_factorizations, covered by TestEnumerateVsReference above
int_polys = st.lists(st.integers(-6, 6), max_size=12).map(Poly)
int_constants = st.integers(-4, 4)


def ints(p):
    return tuple(int(c) for c in p.coeffs)


class TestDivideBinomial:
    @settings(max_examples=60, deadline=None)
    @given(int_polys, st.integers(1, 6), int_constants)
    def test_exact_multiples(self, q, d, r):
        got = _divide_binomial(ints(q * Poly.binomial(d, r)), d, r)
        assert got == ints(q)
        assert all(type(c) is int for c in got)

    @settings(max_examples=60, deadline=None)
    @given(int_polys, st.integers(1, 6), int_constants)
    def test_vs_divmod(self, p, d, r):
        quotient, rem = p.divmod(Poly.binomial(d, r))
        assert _divide_binomial(ints(p), d, r) == (ints(quotient) if rem.is_zero() else None)

    @settings(max_examples=30, deadline=None)
    @given(int_polys.filter(lambda p: not p.is_zero()), st.integers(1, 4), int_constants)
    def test_degree_above_p(self, p, extra, r):
        d = p.degree + extra
        assert not p.divmod(Poly.binomial(d, r))[1].is_zero()
        assert _divide_binomial(ints(p), d, r) is None


def reference_nilpotent_chains(a):
    """Jordan chains of the nilpotent part, stepped with the dense apply."""
    n = a.rows
    kernels = kernel_chain(a)
    chains = []
    covered = Subspace(n)
    for i in range(len(kernels) - 1, 0, -1):
        seen = Subspace(n, kernels[i - 1].basis() + covered.basis())
        for v in kernels[i].basis():
            if seen.add(v):
                chain = [v]
                for _ in range(i - 1):
                    chain.append(a.apply(chain[-1]))
                chains.append(chain)
                for w in chain:
                    covered.add(w)
                    seen.add(w)
    return chains


def reference_cyclic_chain(a, d, r, existing):
    """Cyclic chain from the dense kernel of a**d - r."""
    n = a.rows
    kernel = nullspace(a**d - Matrix.identity(n) * r)
    if len(kernel) < d:
        raise RuntimeError("factor kernel too small")
    candidates = list(kernel)
    candidates += [
        tuple(x + y for x, y in zip(u, v))
        for u, v in itertools.combinations(kernel, 2)
    ]
    prefix = list(kernel[0])
    for v in kernel[1:]:
        prefix = [x + y for x, y in zip(prefix, v)]
        candidates.append(tuple(prefix))
    candidates += [
        tuple(x + 2 * y for x, y in zip(u, v))
        for u, v in itertools.combinations(kernel, 2)
    ]
    for w in candidates:
        chain = [tuple(w)]
        for _ in range(d - 1):
            chain.append(a.apply(chain[-1]))
        trial = Subspace(n, existing.basis())
        if all(trial.add(v) for v in chain):
            return chain
    raise RuntimeError("no cyclic vector found for factor")


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


class TestWitnessVsDenseReference:
    @pytest.mark.parametrize("a", [
        *(family_conjugate(n, n) for n in range(2, 7)),
        *(conjugated_blocks(seed) for seed in range(6)),
    ], ids=[f"family-{n}" for n in range(2, 7)]
        + [f"blocks-{seed}" for seed in range(6)])
    def test_identical_witness(self, monkeypatch, a):
        got = exists_nice(a)
        assert got.status == "yes"
        monkeypatch.setattr(
            almost_abelian, "_nilpotent_chains",
            lambda a, cols: [[sparse(v) for v in ch]
                             for ch in reference_nilpotent_chains(a)])
        monkeypatch.setattr(
            almost_abelian, "_cyclic_chain",
            lambda cols, d, r, existing: [
                sparse(v) for v in reference_cyclic_chain(a, d, r, existing)])
        want = exists_nice(a)
        assert got.factorization == want.factorization
        assert got.witness == want.witness


def reference_candidates(kernel):
    """The eager, dense candidate list _cyclic_chain tried in order."""
    candidates = list(kernel)
    candidates += [
        tuple(x + y for x, y in zip(u, v))
        for u, v in itertools.combinations(kernel, 2)
    ]
    prefix = list(kernel[0])
    for v in kernel[1:]:
        prefix = [x + y for x, y in zip(prefix, v)]
        candidates.append(tuple(prefix))
    candidates += [
        tuple(x + 2 * y for x, y in zip(u, v))
        for u, v in itertools.combinations(kernel, 2)
    ]
    return candidates


class TestCandidateOrder:
    @pytest.mark.parametrize("seed", range(8))
    def test_lazy_matches_eager_list(self, seed):
        rng = random.Random(seed)
        rank = rng.randint(1, 3)
        n = rank + rng.randint(4, 6)
        left = Matrix([[rng.randint(-2, 2) for _ in range(rank)] for _ in range(n)])
        right = Matrix([[rng.choice((0, 0, 1, -1, Q(1, 2))) for _ in range(n)]
                        for _ in range(rank)])
        m = left * right
        kernel = Subspace(n, m.data).sparse_kernel()
        assert len(kernel) >= 4
        want = [sparse(w) for w in reference_candidates(nullspace(m))]
        got = list(almost_abelian._cyclic_candidates(kernel))
        assert got == want
        assert len(got) == len(kernel) ** 2 + len(kernel) - 1

    @pytest.mark.parametrize("n", [4, 5])
    def test_family_factor_kernels(self, n):
        a = indecomposable_family(n).a
        for d, r in exists_nice(a).factorization.factors:
            m = a**d - Matrix.identity(a.rows) * r
            kernel = Subspace(a.rows, m.data).sparse_kernel()
            want = [sparse(w) for w in reference_candidates(nullspace(m))]
            assert list(almost_abelian._cyclic_candidates(kernel)) == want


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
        almost_abelian.analyze(a)
        assert len(calls) == 1
        count_nice(a)
        exists_nice(a)
        assert len(calls) == 3

    def test_none_for_nilpotent(self, calls):
        almost_abelian.analyze(Matrix([[0, 1], [0, 0]]))
        assert calls == []

    def test_once_per_cli_aa(self, calls, capsys):
        # nicebase aa reads existence and count off one shared analysis
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "cyclic4.mat"
        assert cli.main(["aa", str(fixture)]) == 0
        assert "nu 3" in capsys.readouterr().out
        assert len(calls) == 1
