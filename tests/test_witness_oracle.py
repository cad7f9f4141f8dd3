"""Witnesses for every factorization of a seeded corpus of block matrices.

Each matrix is P B P^-1 for a random rational P and a block diagonal B whose
blocks are repeated eigenvalues (lambda I), rotations by c (x^2 + c^2),
companion blocks of x^m - r, nilpotent Jordan blocks and, now and then, a
block lambda I + J that is not semisimple.  The blocks give the oracle: the
characteristic polynomial is the product of theirs, the non-nilpotent part
is semisimple unless a lambda I + J block is present, and the factorizations
are those of the Fraction reference enumeration of test_root_oracle.  For
every factorization of every semisimple matrix, _witness_basis must return
a basis that change_basis accepts and check_nice certifies.
"""

import random
from collections import Counter

import pytest

from nicebasis.almost_abelian import BinomialFactorization, _witness_basis, analyze, build
from nicebasis.linalg import Matrix, Poly, char_poly
from nicebasis.nice import check_nice
from nicebasis.scalars import Q
from test_analysis import block_diagonal, jordan_block
from test_root_oracle import mul, reference_binomial_divisors, reference_enumerate

SEEDS = range(320)
CONSTANTS = [Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(3)]


def companion(m, r):
    """The companion matrix of x^m - r: e_j -> e_(j+1), the last to r e_0."""
    return Matrix([[r if (i, j) == (0, m - 1) else int(i == j + 1) for j in range(m)]
                   for i in range(m)])


def random_block(rng):
    """(block, its characteristic polynomial, whether it is semisimple or nilpotent)."""
    kind = rng.choice(["scalar", "scalar", "rotation", "companion", "companion", "nilpotent",
                       "jordan"])
    if kind == "scalar":
        lam, m = rng.choice(CONSTANTS), rng.randint(1, 2)
        return Matrix.diagonal([lam] * m), mul(*[Poly([-lam, 1])] * m), True
    if kind == "rotation":
        c = rng.choice([Q(1), Q(2), Q(1, 2)])
        return Matrix([[0, -c], [c, 0]]), Poly([c * c, 0, 1]), True
    if kind == "companion":
        m, r = rng.randint(2, 4), rng.choice([Q(1), Q(-1), Q(2), Q(8), Q(-1, 8), Q(4)])
        return companion(m, r), Poly.binomial(m, r), True
    if kind == "nilpotent":
        k = rng.randint(1, 3)
        return jordan_block(k), Poly.binomial(k, 0), True
    lam = rng.choice([Q(1), Q(-1)])
    return jordan_block(2) + Matrix.identity(2) * lam, mul(*[Poly([-lam, 1])] * 2), False


def corpus_entry(seed):
    """(A, its characteristic polynomial, semisimple?) for one seed, A of size <= 7."""
    rng = random.Random(seed)
    blocks = []
    while not blocks or (sum(b.rows for b, _, _ in blocks) < 7 and rng.random() < 0.6):
        block = random_block(rng)
        if sum(b.rows for b, _, _ in blocks) + block[0].rows <= 7:
            blocks.append(block)
    b = block_diagonal([m for m, _, _ in blocks])
    while True:
        p = Matrix([[rng.choice([0, 0, 1, -1, 2, Q(1, 2)]) for _ in range(b.rows)]
                    for _ in range(b.rows)])
        if p.det() != 0:
            return p * b * p.inverse(), mul(*[c for _, c, _ in blocks]), all(s for _, _, s in blocks)


def reference_factorizations(p):
    """(factorizations, irrational flag, p / x^k) by the Fraction references; none
    for nilpotent A, p = x^n."""
    q = Poly(p.coeffs[next(k for k, c in enumerate(p.coeffs) if c):])
    if q.degree == 0:
        return [], False, q
    divisors, irrational = reference_binomial_divisors(q)
    return [BinomialFactorization(t) for t in reference_enumerate(q, divisors)], irrational, q


@pytest.mark.parametrize("seed", SEEDS)
def test_every_factorization_has_a_certified_witness(seed):
    a, p, semisimple = corpus_entry(seed)
    assert char_poly(a) == p
    facts, irrational, q = reference_factorizations(p)
    analysis = analyze(a)
    assert list(analysis.factorizations) == facts
    nilpotent = q.degree == 0
    assert analysis.nilpotent == nilpotent
    if not nilpotent:
        assert (analysis.semisimple, analysis.irrational) == (semisimple, irrational)
    verdict = analysis.exists()
    if nilpotent:
        assert (verdict.status, analysis.count()) == ("yes", 1)
    elif not semisimple:
        assert (verdict.status, analysis.count()) == ("no", 0)
    else:
        assert analysis.count() == (None if irrational else len(facts))
        assert verdict.status == ("yes" if facts else "unknown-irrational" if irrational else "no")
    compiled = build(a).compiled
    for fact in [None] if nilpotent else facts if semisimple else []:
        witness = _witness_basis(a, fact)
        assert witness.rows == witness.cols == a.rows + 1
        assert check_nice(compiled.change_basis(witness))


def test_the_corpus_covers_the_cases():
    entries = [corpus_entry(seed) for seed in SEEDS]
    analyses = [analyze(a) for a, _, _ in entries]
    statuses = Counter(an.exists().status for an in analyses)
    assert statuses["yes"] >= 150 and statuses["no"] >= 30
    assert sum(not s for _, _, s in entries) >= 30
    assert any(len(an.factorizations) >= 4 for an in analyses)
    assert any(not an.nilpotent and an.a.rows > an.factorizations[0].degree
               for an in analyses if an.factorizations and an.semisimple)
    assert any(d == 1 for an in analyses for f in an.factorizations for d, r in f.factors
               if f.factors.count((d, r)) > 1)
