"""iso_test_almost_abelian's candidate scalars and catalog3's 2x2 match against
the rules they replaced.

A valid c, a ~ c b, has c^k = a_k / b_k at every k (the coefficients of x^(n-k)
in the characteristic polynomials), so iso_test_almost_abelian reads its
candidates off one binomial, at b's first nonzero coefficient, and _match_2x2
reads mu off the roots of x^2 - mu^2.  reference_iso_test is the union of the
roots of every binomial, with its early refusal of unequal zero patterns, and
reference_match_2x2 the match that took mu by math.isqrt of numerator and
denominator (reference_rational_sqrt); both are kept verbatim apart from their
names.  On seeded pairs b = c P a P^-1 (c rational, P unimodular), nilpotent
and trace-free ones included, and on pairs that are not similar, the test must
give the reference's answer, and classify3 must name on the 400 seeded
conjugates of test_int_search_oracle what the reference match names.
"""

import math
import random
from collections import Counter

from nicebasis import fixtures
from nicebasis.almost_abelian import build, iso_test_almost_abelian
from nicebasis.catalog3 import _a_lambda_row, _aa_entry, _e_mu_row, _is_scalar, classify3
from nicebasis.linalg import Matrix, Poly, char_poly, rational_roots, similar
from nicebasis.scalars import Q, ONE
from test_int_search_oracle import (
    invertible,
    reference_abelian_codim1_ideal,
    reference_ad_action_matrix,
)


# --- the references ------------------------------------------------------------

def reference_iso_test(a: Matrix, b: Matrix):
    if a.rows != b.rows:
        return None
    n = a.rows
    pa, pb = char_poly(a), char_poly(b)
    candidates = set()
    for k in range(1, n + 1):
        ca, cb = pa.coeffs[n - k], pb.coeffs[n - k]
        if (ca == 0) != (cb == 0):
            return None
        if cb != 0:
            for root, _ in rational_roots(Poly.binomial(k, ca / cb)):
                if root != 0:
                    candidates.add(root)
    if not candidates:
        candidates = {ONE}  # both nilpotent: scaling preserves Jordan type
    # positive scalars first, then by magnitude, for a stable simplest witness
    for c in sorted(candidates, key=lambda x: (x < 0, abs(x))):
        if similar(a, b * c):
            return c, "similar"
    return None


def reference_match_2x2(a: Matrix):
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
        # |lam| <= 1, nonzero denominator since not nilpotent
        entry = _a_lambda_row(e2 / e1)
    elif disc == 0:
        # repeated nonzero eigenvalue, not diagonalizable
        entry = _aa_entry("aa(D)", fixtures.matrix_d(), [])
    else:
        # complex pair alpha +- beta i with beta != 0; mu = |alpha/beta|
        alpha = tr / 2
        beta_sq = -disc / 4  # beta^2
        mu = reference_rational_sqrt(alpha * alpha / beta_sq)
        if mu is None:
            return None
        entry = _e_mu_row(mu)
    return entry if reference_iso_test(a, entry.matrix) is not None else None


def reference_rational_sqrt(q):
    """The rational square root of q >= 0, or None when it is irrational."""
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Q(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None


# --- the corpus ------------------------------------------------------------------

def random_matrix(rng, n, shape):
    """Entries -3..3, strictly upper triangular (nilpotent) or with trace 0 by shape."""
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if shape == "nilpotent":
        rows = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    elif shape == "trace-free":
        rows[-1][-1] = -sum(rows[i][i] for i in range(n - 1))
    return Matrix(rows)


def unimodular(rng, n):
    """A product of elementary integer matrices, det 1, with its inverse."""
    p = Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        p = p * Matrix([[int(r == c) + (rng.choice((-2, -1, 1, 2)) if (r, c) == (i, j) else 0)
                         for c in range(n)] for r in range(n)])
    return p, p.inverse()


def pairs(seed, count):
    """(a, b, similar_up_to_scale): half b = c P a P^-1, half b drawn on its own."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(2, 4)
        shape = rng.choice(("any", "any", "nilpotent", "trace-free"))
        a = random_matrix(rng, n, shape)
        if t % 2:
            yield a, random_matrix(rng, n, shape), False
        else:
            p, p_inv = unimodular(rng, n)
            c = Q(rng.choice([x for x in range(-4, 5) if x]), rng.randint(1, 3))
            yield a, p * a * p_inv * c, True


# --- the tests -------------------------------------------------------------------

def test_iso_test_answers_as_the_union_over_k():
    found = {True: 0, False: 0}
    for a, b, conjugate in pairs(seed=56, count=400):
        got = iso_test_almost_abelian(a, b)
        assert got == reference_iso_test(a, b), (a, b)
        if conjugate:  # c^-1 is a candidate, and a ~ c^-1 b
            assert got is not None and similar(a, b * got[0]), (a, b)
        found[conjugate] += got is not None
    assert found[True] == 200 and 0 < found[False] < 150, found


def test_classify3_on_the_seeded_conjugates_names_what_the_reference_names():
    # the corpus of test_random_almost_abelian_conjugates_match_search
    rng, matched = random.Random(23), Counter()
    for _ in range(400):
        a = Matrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        g = build(a).compiled.change_basis(invertible(rng))
        got, derived = classify3(g), g.derived_subalgebra()
        if derived.dim == 0:
            assert got.name == "R^3"
            continue
        a2 = reference_ad_action_matrix(g, reference_abelian_codim1_ideal(g, derived))
        if a2 * a2 == Matrix.zeros(2, 2):
            assert got.name == "h3"
            continue
        want = reference_match_2x2(a2)
        assert (got and (got.name, got.nu, got.parameter)) == \
            (want and (want.name, want.nu, want.parameter)), a
        matched[want and want.name[:5]] += 1
    assert matched["aa(E_"] and matched["aa(A_"] and matched[None], matched
