"""Nilpotent algebras attached to graphs, and when they admit nice bases.

A graph with vertex set V and nilpotency class c yields the quotient of the
free class-c algebra on V by the ideal generated by brackets of non-edges.
Niceness depends only on (graph shape, c): any class up to 2 works, class 3
needs a triangle-free graph, class 4 a matching, class 5+ no edges at all.
"""

from nicebasis import (
    GraphSpec,
    PredicateFalse,
    check_nice,
    construct_nice_basis,
    graph_algebra,
    nice_predicate,
)

CASES = [
    ("path on 3 vertices", GraphSpec.of(3, [(0, 1), (1, 2)], 3)),
    ("same path, class 4", GraphSpec.of(3, [(0, 1), (1, 2)], 4)),
    ("triangle, class 3", GraphSpec.of(3, [(0, 1), (1, 2), (0, 2)], 3)),
    ("matching, class 4", GraphSpec.of(4, [(0, 1), (2, 3)], 4)),
    ("one edge, class 5", GraphSpec.of(2, [(0, 1)], 5)),
]


def main():
    for label, g in CASES:
        alg = graph_algebra(g)[0]
        ok, tag = nice_predicate(g)
        print("%-22s dim %3d  nice=%-5s (%s)" % (label, alg.dim, ok, tag))
        if ok:
            p = construct_nice_basis(g)
            assert check_nice(alg.change_basis(p))
            print("   nice basis verified (%dx%d change of basis)" % (p.rows, p.cols))
        else:
            try:
                construct_nice_basis(g)
            except PredicateFalse as exc:
                print("   construction refused: %s" % exc)


if __name__ == "__main__":
    main()
