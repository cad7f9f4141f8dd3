"""Self-contained verification battery for the library's headline results.

Each row is a check_* function declared once, by _row(name, bound): its body
returns the row's detail or raises a RuntimeError with it (_Fail, or a failed
library certificate's), and the declaration makes it return a (name, ok, detail,
seconds) row, timed once, and appends it to ALL_CHECKS.  run_all() runs them all;
the command line front end and the test suite both call into this module, the
single source of truth for what "reproduced" means.  Details hold no timings, so
name, ok and detail are deterministic; a passing row whose seconds reach bound fails.
"""

import functools
import time
from itertools import combinations

from .scalars import Q, rat, fmt
from .linalg import Matrix
from .lie import abelian, direct_sum
from .nice import check_nice, check_adapted
from .derivations import (
    pre_einstein_nice,
    pre_einstein_general_check,
    ln_closed_form,
    derivation_space,
    is_derivation,
)
from .almost_abelian import (
    build,
    exists_nice,
    count_nice,
    indecomposable_family,
)
from .graphs import (
    DimensionCapExceeded,
    GraphSpec,
    graph_algebra,
    nice_predicate,
    construct_nice_basis,
    free_nilpotent,
    witt_dimension,
)
from .catalog3 import catalog
from . import fixtures

ALL_CHECKS = []  # the declared rows, in definition order


class _Fail(RuntimeError):
    """A failing row, raised with its detail."""


def _row(name, bound=None):
    """Declare check as the row name, timed against bound seconds if given."""
    def declare(check):
        @functools.wraps(check)
        def row():
            t0 = time.perf_counter()
            try:
                ok, detail = True, check()
            except RuntimeError as fail:
                ok, detail = False, str(fail)
            dt = time.perf_counter() - t0
            if ok and bound is not None and dt >= bound:
                ok, detail = False, "too slow: %.2fs" % dt
            return name, ok, detail, dt

        ALL_CHECKS.append(row)
        return row
    return declare


@_row("filiform-pre-einstein-closed-form", bound=5)
def check_filiform_closed_form():
    """Pre-Einstein derivations of the filiform algebras L_n match the
    two-value closed form for n = 3..20."""
    for n in range(3, 21):
        # one L_n for both calls: the certification then finds the derivation
        # system that pre_einstein_nice left in _space's cache
        g = fixtures.standard_filiform(n)
        pe = pre_einstein_nice(g)
        diagonal = [pe.matrix[i, i] for i in range(n)]
        d1, d2 = ln_closed_form(n)
        if diagonal != [d1, d2] + [k * d1 + d2 for k in range(1, n - 1)]:
            raise _Fail("mismatch at n=%d" % n)
        ok, why = pre_einstein_general_check(g, diagonal)
        if not ok:
            raise _Fail("certification failed at n=%d: %s" % (n, why[0]))
    return "n=3..20 certified"


@_row("six-dim-certificate")
def check_n6_certificate():
    """The 6-dimensional example algebra certifies against the diagonal
    (9/32)(1,2,3,3,4,5), rejects the unscaled diagonal, and its defining
    basis fails niceness with shared-target violations."""
    g = fixtures.n6()
    good = [Q(9, 32) * k for k in (1, 2, 3, 3, 4, 5)]
    ok, why = pre_einstein_general_check(g, good)
    if not ok:
        raise _Fail("certification: %s" % why[0])
    bad = [rat(k) for k in (1, 2, 3, 3, 4, 5)]
    ok, why = pre_einstein_general_check(g, bad)
    if ok:
        raise _Fail("unscaled diagonal should fail the trace test")
    verdict = check_nice(g)
    if verdict.is_nice:
        raise _Fail("defining basis reported nice")
    kinds = {v["kind"] for v in verdict.violations}
    if "CONDITION_2" not in kinds:
        raise _Fail("expected a shared-target violation, got %s" % sorted(kinds))
    return "diagonal (9/32)(1,2,3,3,4,5) certified; basis violates condition 2"


@_row("filiform-spectra")
def check_filiform_spectra():
    """The spectrum of the six-dimensional example's distinguished
    diagonal is disjoint from every filiform spectrum for n = 3..50,
    and the second eigenvalue lies strictly between 27/32 and 9/8 for
    n >= 7."""
    six = {Q(9, 32) * k for k in (1, 2, 3, 4, 5)}
    for n in range(3, 51):
        d1, d2 = ln_closed_form(n)
        spec = {d1, d2} | {k * d1 + d2 for k in range(1, n - 1)}
        if six & spec:
            raise _Fail("overlap at n=%d" % n)
        if n >= 7 and not (Q(27, 32) < d2 < Q(9, 8)):
            raise _Fail("d2 out of range at n=%d: %s" % (n, fmt(d2)))
    return "disjoint from the six-dim spectrum for n=3..50; 27/32 < d2 < 9/8 for n>=7"


@_row("almost-abelian-counts", bound=10)
def check_almost_abelian_counts():
    """Reference almost abelian matrices produce the expected nice-basis
    counts, and the 2^(n-1)-cyclic family gives count n for n = 2..5."""
    expected = [
        (fixtures.matrix_cyclic(4), 3, "cyclic 2^3"),
        (Matrix.diagonal([rat(1), rat(-1), rat(-2), rat(2)]), 4,
         "diag(1,-1,-2,2)"),
        (fixtures.matrix_d(), 0, "nontrivial Jordan block"),
        (fixtures.matrix_complex_pair(), 0, "complex spectrum"),
        (fixtures.matrix_c(), 1, "nilpotent Jordan block"),
    ]
    for mat, want, label in expected:
        got = count_nice(mat)
        if got != want:
            raise _Fail("%s: expected %s, got %s" % (label, want, got))
    for n in range(2, 6):
        got = count_nice(indecomposable_family(n).a)
        if got != n:
            raise _Fail("family n=%d: expected %d, got %s" % (n, n, got))
    return "five reference counts plus family n=2..5"


@_row("cube-root-of-64-witness")
def check_root64_witness():
    """The 3x3 matrix with cube 64*I admits a nice basis, the constructed
    witness verifies, and the reference cyclic chain built from (0,2,1)
    is itself a verified witness."""
    a = fixtures.matrix_root64()
    alg = build(a)
    verdict = exists_nice(a)
    if verdict.status != "yes" or verdict.witness is None:
        raise _Fail("status %s" % verdict.status)
    conj = alg.compiled.change_basis(verdict.witness)
    if not check_nice(conj):
        raise _Fail("constructed witness not nice")
    w = (rat(0), rat(2), rat(1))
    chain = [w]
    for _ in range(2):
        chain.append(a.apply(chain[-1]))
    if chain[1:] != [(rat(6), rat(-4), rat(4)), (rat(-24), rat(-16), rat(16))]:
        raise _Fail("reference chain drifted")
    cols = [(rat(1),) + tuple(rat(0) for _ in range(3))]
    for v in chain:
        cols.append((rat(0),) + v)
    ref = Matrix.from_columns(cols)
    refconj = alg.compiled.change_basis(ref)
    if not check_nice(refconj):
        raise _Fail("reference witness not nice")
    return "constructed and reference cyclic witnesses both verify"


# nu of each three-dimensional real Lie algebra, as tabulated in the paper
CATALOG_NU = {
    "R^3": 1,
    "h3": 1,
    "aa(A_-1)": 2,
    "aa(A_lambda=-1/2)": 1,
    "aa(A_lambda=0)": 1,
    "aa(A_lambda=1/2)": 1,
    "aa(A_lambda=1)": 1,
    "aa(D)": 0,
    "aa(E_0)": 1,
    "aa(E_mu=1)": 0,
    "aa(E_mu=2)": 0,
    "sl2": 2,
    "so3": 1,
}


@_row("three-dim-catalog")
def check_catalog_counts():
    """Every entry of the three-dimensional catalog verifies (catalog()
    certifies each row as it builds it) and its count matches the paper's
    table."""
    rows = catalog()
    if sorted(e.name for e in rows) != sorted(CATALOG_NU):
        raise _Fail("catalog rows differ from the paper's table")
    for entry in rows:
        if entry.nu != CATALOG_NU[entry.name]:
            raise _Fail("%s: count %s, paper %s" % (entry.name, entry.nu, CATALOG_NU[entry.name]))
    return "; ".join("%s=%s" % (e.name, e.nu) for e in rows)


def _all_graphs(n):
    """All simple graphs on n labelled vertices, as edge sets."""
    all_pairs = [frozenset(p) for p in combinations(range(n), 2)]
    for bits in range(1 << len(all_pairs)):
        yield frozenset(p for i, p in enumerate(all_pairs) if bits >> i & 1)


@_row("graph-sweep", bound=60)
def check_graph_sweep():
    """For every simple graph on at most 5 labelled vertices and every
    nilpotency class in 2..5, the niceness predicate holds exactly when every
    weight space of the vertex torus (kept words of equal letter multiset)
    has dimension 1, and the constructive routine gives a nice basis when it
    holds; the path on three vertices gives dimensions 10 (class 3) and 20
    (class 4)."""
    checked = 0
    for n in range(1, 6):
        for edges in _all_graphs(n):
            multiplicity_one = True
            for c in (2, 3, 4, 5):
                g = GraphSpec.of(n, edges, c)
                # class c is class c + 1 modulo its top degree: once a weight
                # repeats it repeats at every higher class
                if multiplicity_one:
                    try:
                        words = graph_algebra(g)[1]
                    except DimensionCapExceeded:
                        # g has an edge, a clique block whose words are those
                        # of the one-edge graph; from class 5 weight (3,2) repeats
                        words = graph_algebra(GraphSpec.of(2, [(0, 1)], c))[1]
                    multiplicity_one = len({tuple(sorted(w)) for w in words}) == len(words)
                pred, tag = nice_predicate(g)
                if pred != multiplicity_one:
                    raise _Fail("disagreement: n=%d c=%d edges=%s (%s)"
                                % (n, c, sorted(map(sorted, edges)), tag))
                if pred:
                    construct_nice_basis(g)  # raises unless check_nice passes
                checked += 1
    path3 = frozenset({frozenset({0, 1}), frozenset({1, 2})})
    for c, want in ((3, 10), (4, 20)):
        alg = graph_algebra(GraphSpec.of(3, path3, c))[0]
        if alg.dim != want:
            raise _Fail("path graph class %d: dim %d, expected %d" % (c, alg.dim, want))
    return ("%d (graph, class) pairs agree with the weight multiplicities;"
            " path dims 10 and 20" % checked)


@_row("free-nilpotent-dimensions")
def check_free_dimensions():
    """Dimensions of free nilpotent algebras match the necklace-count
    formula for every (generators, class) pair with dimension <= 200."""
    checked = 0
    for d in range(1, 20):
        total = 0
        for c in range(1, 40):
            total += witt_dimension(d, c)
            if total > 200:
                break
            alg, _ = free_nilpotent(d, c)
            if alg.dim != total:
                raise _Fail("d=%d c=%d: dim %d, expected %d" % (d, c, alg.dim, total))
            checked += 1
    return "%d (generators, class) pairs match" % checked


@_row("structure-facts")
def check_structure_facts():
    """Nice bases of nilpotent algebras are adapted to both central
    series, diagonal parts of derivations are again derivations on a
    nice nilpotent algebra, and appending an abelian factor preserves
    the nice-basis count."""
    samples = [fixtures.heisenberg3(), fixtures.standard_filiform(4),
               fixtures.standard_filiform(6),
               direct_sum(fixtures.heisenberg3(), abelian(2))]
    for g in samples:
        if not check_nice(g):
            raise _Fail("sample not nice")
        ok, info = check_adapted(g)
        if not ok:
            raise _Fail("not adapted: %s" % (info,))
        space = derivation_space(g)
        for d in space.basis:
            diag = {(r, c): x for (r, c), x in d.items() if r == c}
            if not is_derivation(g, diag):
                raise _Fail("diagonal part is not a derivation")
    for base, nu in ((fixtures.matrix_cyclic(4), 3),
                     (fixtures.matrix_c(), 1)):
        k, h = base.rows, build(base).compiled
        for m in range(1, 4):
            # A + 0_m acts on R^(k+m): the algebra of A plus an abelian factor
            padded = Matrix.from_columns(base.columns + ({},) * m, k + m)
            if count_nice(padded) != nu:
                raise _Fail("abelian extension changed the count")
            g = direct_sum(h, abelian(m))
            if not check_adapted(g)[0] and h.is_nilpotent():
                raise _Fail("extension lost adaptedness")
    return "adaptedness, diagonal derivations, abelian extensions"


def run_all():
    """Run every check and return the list of (name, ok, detail, seconds) rows."""
    return [f() for f in ALL_CHECKS]
