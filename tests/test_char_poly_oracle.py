"""The Krylov char_poly against the Hessenberg char_poly it replaced.

hessenberg_char_poly is the previous implementation, kept as the oracle on
coefficient lists: an exact similarity to upper Hessenberg form, then the
recurrence of the leading principal minors (Cohen, A Course in Computational
Algebraic Number Theory, 2.2).  The new char_poly multiplies the relative minimal
polynomials of the Krylov blocks of the unit vectors, so the cases that split
into many blocks (zero, scalar, nilpotent, diagonal with repeats) are tested
alongside random and permuted family matrices; det and is_positive_definite
read their answers off char_poly and are checked on the same cases.
"""

import random

import pytest

from nicebasis.almost_abelian import indecomposable_family
from nicebasis.linalg import (Matrix, Poly, _convolve, _divide, char_poly,
                              is_positive_definite, minimal_polynomial, primitive)
from nicebasis.scalars import ONE, Q, ZERO


def hessenberg_char_poly(m: Matrix) -> Poly:
    """Characteristic polynomial det(xI - m), monic, in O(n^3) for every m.

    m is brought to upper Hessenberg form h by exact similarity, each row
    operation paired with the inverse column operation; the leading
    principal minors of xI - h then follow a recurrence (Cohen, A Course in
    Computational Algebraic Number Theory, 2.2).
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    h = [list(row) for row in m.data]
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k]), None)
        if piv is None:
            continue
        h[piv], h[k + 1] = h[k + 1], h[piv]
        for row in h:
            row[piv], row[k + 1] = row[k + 1], row[piv]
        top = h[k + 1]
        for i in range(k + 2, n):
            f = h[i][k] / top[k]
            if not f:
                continue
            # row_i -= f * row_{k+1}, then col_{k+1} += f * col_i
            for j in range(k, n):
                if top[j]:
                    h[i][j] -= f * top[j]
            for row in h:
                if row[i]:
                    row[k + 1] += f * row[i]
    ps = [[ONE]]  # coefficient lists, lowest first
    for k in range(1, n + 1):
        p = _convolve([-h[k - 1][k - 1], ONE], ps[k - 1])
        prod = ONE
        for i in range(k - 1, 0, -1):
            prod *= h[i][i - 1]
            if prod == 0:
                break
            if h[i - 1][k - 1] != 0:
                for j, c in enumerate(ps[i - 1]):
                    p[j] -= c * prod * h[i - 1][k - 1]
        ps.append(p)
    return Poly(ps[n])


def random_matrix(rng, n, zeros):
    return Matrix([[ZERO if rng.random() < zeros else Q(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(n)] for _ in range(n)])


def permuted(m, rng):
    """P m P^-1 for a random permutation P, so the unit vectors' order changes."""
    perm = rng.sample(range(m.rows), m.rows)
    return Matrix([[m[perm[i], perm[j]] for j in range(m.cols)] for i in range(m.rows)])


def signed_permutation_conjugate(m, rng):
    n = m.rows
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return Matrix([[signs[i] * signs[j] * m[perm[i], perm[j]] for j in range(n)]
                   for i in range(n)])


def nilpotent(rng, n):
    """Strictly upper triangular, then permuted: Jordan blocks of mixed sizes."""
    rows = [[Q(rng.randint(-2, 2)) if j > i and rng.random() < 0.3 else ZERO
             for j in range(n)] for i in range(n)]
    return permuted(Matrix(rows), rng)


def many_block_cases():
    """(label, matrix) pairs whose Krylov pass splits into several blocks."""
    rng = random.Random(7)
    cases = []
    for n in range(0, 9):
        cases.append((f"zero{n}", Matrix.zeros(n, n)))
        cases.append((f"scalar{n}", Matrix.identity(n) * Q(-3, 2)))
        cases.append((f"nilpotent{n}", nilpotent(rng, n)))
        values = [Q(rng.choice((-2, 0, 1, 1, 3)), rng.choice((1, 1, 2))) for _ in range(n)]
        cases.append((f"diagonal{n}", permuted(Matrix.diagonal(values), rng)))
        if n:
            # a diagonal with repeats, conjugated by a unit triangular matrix
            u = Matrix([[ONE if i == j else Q(rng.randint(-1, 1)) if j > i else ZERO
                         for j in range(n)] for i in range(n)])
            cases.append((f"conjugated_diagonal{n}", u * Matrix.diagonal(values) * u.inverse()))
    return cases


MANY_BLOCKS = many_block_cases()


@pytest.mark.parametrize("n", range(11))
@pytest.mark.parametrize("zeros", [0.0, 0.4, 0.8], ids=["dense", "half", "sparse"])
def test_random_matrices(n, zeros):
    rng = random.Random(1000 * n + int(10 * zeros))
    for _ in range(8):
        m = random_matrix(rng, n, zeros)
        assert char_poly(m) == hessenberg_char_poly(m)


@pytest.mark.parametrize("label,m", MANY_BLOCKS, ids=[label for label, _ in MANY_BLOCKS])
def test_many_krylov_blocks(label, m):
    p = char_poly(m)
    assert p == hessenberg_char_poly(m)
    assert p.degree == m.rows and p.coeffs[-1] == 1
    assert m.det() == (-1) ** m.rows * hessenberg_char_poly(m).coeffs[0]
    # the minimal polynomial divides, and for these cases usually falls short of, phi
    phi, mu = primitive(p.coeffs), primitive(minimal_polynomial(m).coeffs)
    assert _convolve(_divide(phi, mu), mu) == phi


@pytest.mark.parametrize("label,m", MANY_BLOCKS, ids=[label for label, _ in MANY_BLOCKS])
def test_definiteness_of_many_block_cases(label, m):
    s = m + m.transpose()
    reference = hessenberg_char_poly(s).coeffs
    want = all(c * (-1) ** (s.rows - k) > 0 for k, c in enumerate(reference))
    assert is_positive_definite(s) == want
    if not any(m.num) or label.startswith("scalar"):
        assert is_positive_definite(s) == (s.rows == 0)  # 0 and -3 I are not definite
    gram = m.transpose() * m + Matrix.identity(m.rows)
    assert is_positive_definite(gram)


@pytest.mark.parametrize("n", range(2, 7))
def test_signed_permutation_conjugates_of_the_family(n):
    base = indecomposable_family(n).a
    rng = random.Random(n)
    for _ in range(3):
        m = signed_permutation_conjugate(base, rng)
        assert char_poly(m) == hessenberg_char_poly(m) == Poly.binomial(m.rows, 1)


def test_non_square_raises():
    with pytest.raises(ValueError):
        char_poly(Matrix([[1, 2]]))
