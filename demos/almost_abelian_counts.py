"""Existence and counting for almost abelian algebras R f + R^n.

Walks the reference 2x2 matrices, the 4x4 cyclic permutation, and the
indecomposable family whose member number n has exactly n nice bases.
"""

from nicebasis import analyze, build, count_nice, fixtures, indecomposable_family
from nicebasis.linalg import Matrix
from nicebasis.scalars import Q


def show(label, m):
    analysis = analyze(m)  # one analysis for existence, count and factorizations
    verdict = analysis.exists()
    print("%-22s exists=%-3s nu=%s" % (label, verdict.status, analysis.count()))
    if verdict.status == "yes":
        for f in analysis.factorizations:
            print("   factorization: %s" % f)


def main():
    show("diag(1,-1,-2,2)", Matrix.diagonal([Q(1), Q(-1), Q(-2), Q(2)]))
    show("4x4 cyclic", fixtures.matrix_cyclic(4))
    show("jordan block D", fixtures.matrix_d())
    show("complex pair", fixtures.matrix_complex_pair())
    show("nilpotent C", fixtures.matrix_c())
    print()
    for n in range(2, 6):
        fam = indecomposable_family(n)
        dim = fam.a.rows + 1
        print("family member n=%d: dim %d, nu=%d" % (n, dim, count_nice(fam.a)))
        assert build(fam.a).compiled.dim == dim


if __name__ == "__main__":
    main()
