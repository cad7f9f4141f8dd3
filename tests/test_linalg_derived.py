"""Differential tests of the matrix questions linalg answers from its one
elimination (Subspace, with the Krylov char_poly and minimal_polynomial on
it): det, definiteness, kernel chains, nilpotency, minimal polynomials and
similarity.  The references are sympy, explicit matrix powers, and the dense
Krylov, power-rank and rational-roots similarity code these routines
replaced, kept here as written."""

import math
import random
import time

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from nicebasis import linalg
from nicebasis.linalg import (
    Matrix,
    Poly,
    Subspace,
    _divide,
    char_poly,
    is_positive_definite,
    kernel_chain,
    minimal_polynomial,
    primitive,
    rational_roots,
    similar,
    solve,
)
from nicebasis.scalars import ONE, Q, ZERO
from test_integer_table import sparse_kernel
from test_root_oracle import monic, mul, pdivmod


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(str(x)) for row in m.data for x in row])


def power(m, k):
    return math.prod([m] * k, start=Matrix.identity(m.rows))


def horner(p, m):
    """p(m) by Horner's rule on dense matrices."""
    acc = Matrix.zeros(m.rows, m.cols)
    for c in reversed(p.coeffs):
        acc = acc * m + Matrix.identity(m.rows) * c
    return acc


def random_matrix(rng, n, zeros=0.5):
    """Mostly-zero rational matrix, so that singular inputs are common."""
    return Matrix([[ZERO if rng.random() < zeros else Q(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(n)] for _ in range(n)])


def unimodular(rng, n):
    """Row-permuted product of unit lower and unit upper integer triangles."""
    low = [[ONE if i == j else Q(rng.randint(-2, 2)) if i > j else ZERO for j in range(n)]
           for i in range(n)]
    up = [[ONE if i == j else Q(rng.randint(-2, 2)) if i < j else ZERO for j in range(n)]
          for i in range(n)]
    lu = Matrix(low) * Matrix(up)
    perm = rng.sample(range(n), n)
    return Matrix([lu.data[p] for p in perm])


def jordan(blocks):
    """Block diagonal matrix of Jordan blocks [(eigenvalue, size), ...]."""
    n = sum(size for _, size in blocks)
    rows = [[ZERO] * n for _ in range(n)]
    at = 0
    for value, size in blocks:
        for i in range(size):
            rows[at + i][at + i] = Q(value)
            if i:
                rows[at + i][at + i - 1] = ONE
        at += size
    return Matrix(rows)


def conjugate(rng, m):
    p = unimodular(rng, m.rows)
    return p * m * p.inverse()


def random_jordan(rng, n, values=(0, 1, -2)):
    blocks, left = [], n
    while left:
        size = rng.randint(1, left)
        blocks.append((rng.choice(values), size))
        left -= size
    return jordan(blocks)


def poly_lcm(a, b):
    """Monic lcm by the Euclidean gcd over Q."""
    if a.is_zero() or b.is_zero():
        return Poly([])
    g, r = a, b
    while not r.is_zero():
        g, r = r, pdivmod(g, r)[1]
    return monic(pdivmod(mul(a, b), g)[0])


def reference_minimal_polynomial(m):
    """Lcm of local minimal polynomials, one solve per Krylov step."""
    n = m.rows
    result = Poly([ONE])
    for i in range(n):
        krylov = [Matrix.identity(n).data[i]]
        while True:
            if len(krylov) > 1:
                sol = solve(Matrix.from_columns(krylov[:-1]), krylov[-1])
                if sol is not None:
                    local = Poly([-x for x in sol] + [ONE])
                    break
            krylov.append(m.apply(krylov[-1]))
        result = poly_lcm(result, monic(local))
    return result


def reference_similar(a, b):
    """Similarity from ranks of explicit powers; None past size 3 unless nilpotent."""
    phi = char_poly(a)
    if phi != char_poly(b):
        return False
    n = a.rows

    def ranks(m):
        return [Subspace(n, power(m, k).data).dim for k in range(1, n + 1)]

    if n and power(a, n) == Matrix.zeros(n, n):  # equal char polys: b is nilpotent too
        return ranks(a) == ranks(b)
    if reference_minimal_polynomial(a) != reference_minimal_polynomial(b):
        return False
    if n <= 3:
        return True
    for root, _ in rational_roots(phi):
        eye = Matrix.identity(n) * root
        if ranks(a - eye) != ranks(b - eye):
            return False
    return None


def rational_roots_similar(a, b):
    """similar as it was before the squarefree cofactor rule: decided for
    size <= 3 and for a rational spectrum, else None."""
    if a.rows != b.rows or not a.is_square() or not b.is_square():
        return False
    phi = char_poly(a)
    if phi != char_poly(b) or minimal_polynomial(a) != minimal_polynomial(b):
        return False
    n = a.rows
    roots = rational_roots(phi)
    for root, _ in roots:
        shift = Matrix.identity(n) * root
        dims_a = [k.dim for k in kernel_chain(a - shift)]
        if dims_a != [k.dim for k in kernel_chain(b - shift)]:
            return False
    if n <= 3 or sum(mult for _, mult in roots) == n:
        return True
    return None


def companion(p):
    """Companion matrix of the monic Poly p: ones below the diagonal, -p in the last column."""
    n = p.degree
    return Matrix([[ONE if i == j + 1 else -p.coeffs[i] if j == n - 1 else ZERO
                    for j in range(n)] for i in range(n)])


def block_diagonal(*blocks):
    n = sum(b.rows for b in blocks)
    rows, at = [[ZERO] * n for _ in range(n)], 0
    for b in blocks:
        for i in range(b.rows):
            rows[at + i][at:at + b.rows] = b.data[i]
        at += b.rows
    return Matrix(rows)


class TestDet:
    @pytest.mark.parametrize("n", range(7))
    def test_vs_sympy(self, n):
        rng = random.Random(100 + n)
        for trial in range(25):
            m = random_matrix(rng, n, zeros=0.7 if trial % 2 else 0.2)
            assert sympy.Rational(str(m.det())) == to_sympy(m).det()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_singular_is_zero(self, n):
        rng = random.Random(200 + n)
        m = random_matrix(rng, n, zeros=0.2)
        rows = list(m.data)
        rows[-1] = tuple(2 * x for x in rows[0])
        assert Matrix(rows).det() == 0
        assert to_sympy(Matrix(rows)).det() == 0

    def test_empty_is_one(self):
        assert Matrix([]).det() == 1


class TestPositiveDefinite:
    def test_symmetric_vs_sympy(self):
        rng = random.Random(3)
        for n in range(1, 6):
            for _ in range(20):
                m = random_matrix(rng, n, zeros=0.4)
                s = m + m.transpose()
                assert is_positive_definite(s) == to_sympy(s).is_positive_definite

    def test_gram_vs_sympy(self):
        # B^T B is positive semidefinite; definite exactly when B has full column rank
        rng = random.Random(5)
        for n in range(1, 6):
            for _ in range(20):
                b = Matrix([[Q(rng.randint(-3, 3)) if rng.random() < 0.5 else ZERO
                             for _ in range(n)] for _ in range(rng.randint(1, n + 1))])
                gram = b.transpose() * b
                want = to_sympy(gram).is_positive_definite
                assert is_positive_definite(gram) == want
                assert want == (Subspace(b.cols, b.data).dim == n)

    def test_known_cases(self):
        assert is_positive_definite(Matrix.identity(3))
        assert is_positive_definite(Matrix([[2, -1], [-1, 2]]))
        assert not is_positive_definite(Matrix([[1, 2], [2, 1]]))  # eigenvalues 3, -1
        assert not is_positive_definite(Matrix([[1, 0], [0, 0]]))  # semidefinite
        assert not is_positive_definite(-Matrix.identity(2))
        assert is_positive_definite(Matrix([]))

    def test_non_symmetric_raises(self):
        with pytest.raises(ValueError):
            is_positive_definite(Matrix([[2, 1], [0, 2]]))
        with pytest.raises(ValueError):
            is_positive_definite(Matrix([[1, 0, 0], [0, 1, 0]]))


class TestKernelChain:
    def test_vs_nullspaces_of_powers(self):
        rng = random.Random(11)
        for trial in range(120):
            n = rng.randint(1, 6)
            m = (random_matrix(rng, n, zeros=0.7) if trial % 2
                 else conjugate(rng, random_jordan(rng, n)))
            chain = kernel_chain(m)
            for k, term in enumerate(chain):
                assert term == Subspace(n, sparse_kernel(Subspace(n, power(m, k).data)))
            # the chain stops exactly where the kernels stop growing
            assert n - Subspace(n, power(m, len(chain)).data).dim == chain[-1].dim
            dims = [t.dim for t in chain]
            assert dims == sorted(set(dims))

    def test_empty(self):
        assert kernel_chain(Matrix([])) == [Subspace(0)]

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            kernel_chain(Matrix([[1, 0]]))


def nilpotency(m):
    """(nilpotent?, index) read off kernel_chain(m): m is nilpotent iff the chain
    ends at Q^n, and the index, where ker m^k stops growing, is its length - 1."""
    chain = kernel_chain(m)
    return chain[-1].dim == m.rows, len(chain) - 1


class TestNilpotencyFromKernelChain:
    def test_index_is_least_vanishing_power(self):
        rng = random.Random(13)
        for _ in range(80):
            n = rng.randint(1, 6)
            m = conjugate(rng, random_jordan(rng, n, values=(0,)))
            least = next(k for k in range(n + 1) if power(m, k) == Matrix.zeros(n, n))
            assert nilpotency(m) == (True, least)

    def test_non_nilpotent(self):
        rng = random.Random(17)
        for _ in range(40):
            m = conjugate(rng, jordan([(0, rng.randint(0, 4)), (1, 1)]))
            assert nilpotency(m)[0] is False

    def test_known_cases(self):
        assert nilpotency(Matrix.zeros(2, 2)) == (True, 1)
        assert nilpotency(Matrix([])) == (True, 0)
        assert nilpotency(Matrix.identity(2)) == (False, 0)


class TestMinimalPolynomial:
    def test_vs_krylov_solve_reference(self):
        rng = random.Random(19)
        for trial in range(150):
            n = rng.randint(0, 6)
            m = (random_matrix(rng, n, zeros=0.6) if trial % 2
                 else conjugate(rng, random_jordan(rng, n)))
            assert minimal_polynomial(m) == reference_minimal_polynomial(m)

    def test_annihilates_and_divides_char_poly(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = conjugate(rng, random_jordan(rng, n))
            mp = minimal_polynomial(m)
            assert horner(mp, m) == Matrix.zeros(n, n)
            assert pdivmod(char_poly(m), mp)[1].is_zero()


class TestSimilar:
    def test_never_opposite_to_power_rank_reference(self):
        rng = random.Random(29)
        for trial in range(120):
            n = rng.randint(1, 5)
            a = conjugate(rng, random_jordan(rng, n))
            b = (conjugate(rng, a) if trial % 3 == 0
                 else conjugate(rng, random_jordan(rng, n)))
            got, want = similar(a, b), reference_similar(a, b)
            if want is not None:
                assert got is want
            # every spectrum here is rational, so the answer is decided
            assert got is not None
            if trial % 3 == 0:
                assert got is True

    def test_irrational_spectrum_is_decided(self):
        # two copies of x^2 - 2: phi / mu = x^2 - 2 is squarefree, which decides
        c = Matrix([[0, 2], [1, 0]])
        two = Matrix([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]])
        rng = random.Random(31)
        assert similar(two, conjugate(rng, two)) is True
        glued = Matrix([[0, 2, 0, 0], [1, 0, 0, 0], [0, 1, 0, 2], [0, 0, 1, 0]])
        assert char_poly(glued) == char_poly(two) == mul(char_poly(c), char_poly(c))
        assert similar(glued, two) is False  # minimal polynomials differ
        # C + C against C + c + c, C the companion of (x^2 - 2)^2 and c of
        # x^2 - 2: equal phi and mu, but phi / mu = (x^2 - 2)^2 is not
        # squarefree and no root is rational; the intertwiner dimensions decide
        big = companion(mul(char_poly(c), char_poly(c)))
        cc, ccc = block_diagonal(big, big), block_diagonal(big, c, c)
        assert char_poly(cc) == char_poly(ccc)
        assert minimal_polynomial(cc) == minimal_polynomial(ccc) == char_poly(big)
        assert similar(cc, ccc) is False
        assert similar(cc, conjugate(rng, cc)) is True

    def test_semiprime_spectrum_needs_no_factoring(self):
        # C + C + C, C the companion of x^2 - N with N a product of two
        # primes near 10^7: phi / mu = (x^2 - N)^2 is not squarefree, and the
        # answer must not wait on factoring N (rational_roots would)
        c = companion(Poly([-10000019 * 10000079, 0, 1]))
        a = block_diagonal(c, c, c)
        start = time.perf_counter()
        assert similar(a, a) is True
        assert time.perf_counter() - start < 0.1
        assert similar(a, conjugate(random.Random(43), a)) is True

    def test_equal_polynomials_unequal_commutant_pairing(self):
        # P1^2 + P1^2 + P2^2 + P2 + P2 against P1^2 + P1 + P1 + P2^2 + P2^2
        # (companions, P1 = x^2 - 2, P2 = x^2 - 3): equal phi and mu, and both
        # commutants have dimension 36; only {X : a X = X b} (32) tells them apart
        p1, p2 = Poly([-2, 0, 1]), Poly([-3, 0, 1])
        p11, p22 = mul(p1, p1), mul(p2, p2)
        a = block_diagonal(*map(companion, (p11, p11, p22, p2, p2)))
        b = block_diagonal(*map(companion, (p11, p1, p1, p22, p22)))
        assert char_poly(a) == char_poly(b)
        assert minimal_polynomial(a) == minimal_polynomial(b)
        assert similar(a, b) is False
        assert similar(b, a) is False
        assert similar(a, a) is True and similar(b, b) is True

    def test_random_integer_corpus_is_decided(self):
        # 200 matrices of each size 4 and 5, entries -3..3, from one generator
        draw = random.Random(1)
        corpus = [Matrix([[draw.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                  for n in (4, 5) for _ in range(200)]
        rng = random.Random(2)
        for a, other in zip(corpus, corpus[1:] + corpus[:1]):
            for b, same in ((a, True), (conjugate(rng, a), True), (other, None)):
                got, before = similar(a, b), rational_roots_similar(a, b)
                assert got is not None
                if same:
                    assert got is True
                if before is not None:
                    assert got is before

    def test_rational_spectrum_4x4_conjugates(self):
        a = jordan([(2, 2), (-1, 1), (2, 1)])
        b = conjugate(random.Random(37), a)
        assert reference_similar(a, b) is None
        assert similar(a, b) is True
        assert similar(a, jordan([(2, 1), (-1, 1), (2, 1), (2, 1)])) is False
        assert similar(a, jordan([(2, 3), (-1, 1)])) is False

    @pytest.mark.parametrize("p", [Poly([-1, 1]), Poly([-2, 0, 1]), Poly([1, 0, 1])],
                             ids=["x-1", "x^2-2", "x^2+1"])
    def test_byrnes_gauger_branch_vs_sympy_invariant_factors(self, monkeypatch, p):
        # phi / mu is not squarefree in every pair, so _intertwiners decides;
        # equal invariant factors of xI - a over Q[x] are the reference
        calls = []
        intertwiners = linalg._intertwiners
        monkeypatch.setattr(linalg, "_intertwiners",
                            lambda a, b: calls.append((a, b)) or intertwiners(a, b))
        c, c2 = companion(p), companion(mul(p, p))
        ppp, p2pp, p2p2 = block_diagonal(c, c, c), block_diagonal(c2, c, c), block_diagonal(c2, c2)
        rng = random.Random(47)
        pairs = [(ppp, conjugate(rng, ppp), True), (conjugate(rng, ppp), conjugate(rng, ppp), True),
                 (p2pp, p2p2, False), (conjugate(rng, p2pp), conjugate(rng, p2p2), False),
                 (conjugate(rng, p2p2), p2pp, False), (p2pp, conjugate(rng, p2pp), True),
                 (conjugate(rng, p2p2), conjugate(rng, p2p2), True)]
        x = sympy.Symbol("x")

        def factors(m):
            return invariant_factors(x * sympy.eye(m.rows) - to_sympy(m), domain=sympy.QQ[x])

        for a, b, want in pairs:
            before = len(calls)
            assert similar(a, b) is want
            assert len(calls) > before
            assert (factors(a) == factors(b)) is want

    def test_integer_cofactor_vs_sympy_div(self):
        # phi / mu of primitive phi and mu is in Z[x] (Gauss's lemma): it is
        # sympy's quotient over Q made primitive, squarefree or not
        rng, x = random.Random(53), sympy.Symbol("x")
        corpus = [Matrix.diagonal([1, 1, 2]), Matrix.diagonal([1, 1, 1, 2, 2]),
                  jordan([(2, 2), (2, 2), (2, 1)]), jordan([(Q(-1, 2), 3), (Q(-1, 2), 1), (0, 2)]),
                  jordan([(3, 1), (3, 1), (3, 1), (1, 2), (1, 2)])]
        corpus += [conjugate(rng, m) for m in corpus]
        corpus += [random_matrix(rng, n) for n in (3, 4, 5) for _ in range(20)]
        corpus += [conjugate(rng, random_jordan(rng, n)) for n in (4, 5, 6) for _ in range(10)]
        for m in corpus:
            phi, mu = primitive(char_poly(m).coeffs), primitive(minimal_polynomial(m).coeffs)
            q, r = sympy.div(sympy.Poly(phi[::-1], x), sympy.Poly(mu[::-1], x), domain=sympy.QQ)
            assert r.is_zero
            want = primitive([Q(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())])
            assert _divide(phi, mu) == want

    def test_squarefree_cofactor_decides_without_intertwiners(self, monkeypatch):
        # phi = (x - 1)^2 (x - 2) is not squarefree, but phi / mu = x - 1 is
        monkeypatch.setattr(linalg, "_intertwiners", lambda a, b: pytest.fail("intertwiners"))
        a = Matrix.diagonal([1, 1, 2])
        assert similar(a, conjugate(random.Random(59), a)) is True

    @pytest.mark.parametrize("value", [0, 3])
    def test_equal_polynomials_different_blocks(self, value):
        # same characteristic and minimal polynomial; only the chains differ
        a = jordan([(value, 2), (value, 2)])
        b = jordan([(value, 2), (value, 1), (value, 1)])
        assert minimal_polynomial(a) == minimal_polynomial(b)
        assert similar(a, b) is False
        assert similar(a, conjugate(random.Random(41), a)) is True
