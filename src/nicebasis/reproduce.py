"""Self-contained verification battery for the library's headline results.

Each check_* function returns a (name, ok, detail) triple. run_all() executes
the whole battery; the command line front end and the test suite both call
into this module so there is a single source of truth for what "reproduced"
means.
"""

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
    GraphSpec,
    graph_algebra,
    nice_predicate,
    construct_nice_basis,
    free_nilpotent,
    witt_dimension,
    PredicateFalse,
)
from .catalog3 import catalog
from . import fixtures


def check_filiform_closed_form():
    """Pre-Einstein derivations of the filiform algebras L_n match the
    two-value closed form for n = 3..20."""
    t0 = time.time()
    for n in range(3, 21):
        pe = pre_einstein_nice(fixtures.standard_filiform(n))
        d1, d2 = ln_closed_form(n)
        expect = (d1, d2) + tuple(k * d1 + d2 for k in range(1, n - 1))
        if tuple(pe.matrix[i, i] for i in range(n)) != expect:
            return ("filiform-pre-einstein-closed-form", False,
                    "mismatch at n=%d" % n)
        ok, why = pre_einstein_general_check(
            fixtures.standard_filiform(n),
            [pe.matrix[i, i] for i in range(n)])
        if not ok:
            return ("filiform-pre-einstein-closed-form", False,
                    "certification failed at n=%d: %s" % (n, why[0]))
    dt = time.time() - t0
    if dt >= 5.0:
        return ("filiform-pre-einstein-closed-form", False,
                "too slow: %.2fs" % dt)
    return ("filiform-pre-einstein-closed-form", True,
            "n=3..20 certified in %.2fs" % dt)


def check_n6_certificate():
    """The 6-dimensional example algebra certifies against the diagonal
    (9/32)(1,2,3,3,4,5), rejects the unscaled diagonal, and its defining
    basis fails niceness with shared-target violations."""
    g = fixtures.n6()
    good = [Q(9, 32) * k for k in (1, 2, 3, 3, 4, 5)]
    ok, why = pre_einstein_general_check(g, good)
    if not ok:
        return ("six-dim-certificate", False, "certification: %s" % why[0])
    bad = [rat(k) for k in (1, 2, 3, 3, 4, 5)]
    ok, why = pre_einstein_general_check(g, bad)
    if ok:
        return ("six-dim-certificate", False,
                "unscaled diagonal should fail the trace test")
    verdict = check_nice(g)
    if verdict.is_nice:
        return ("six-dim-certificate", False, "defining basis reported nice")
    kinds = {v["kind"] for v in verdict.violations}
    if "CONDITION_2" not in kinds:
        return ("six-dim-certificate", False,
                "expected a shared-target violation, got %s" % sorted(kinds))
    return ("six-dim-certificate", True,
            "diagonal (9/32)(1,2,3,3,4,5) certified; basis violates"
            " condition 2")


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
            return ("filiform-spectra", False, "overlap at n=%d" % n)
        if n >= 7 and not (Q(27, 32) < d2 < Q(9, 8)):
            return ("filiform-spectra", False,
                    "d2 out of range at n=%d: %s" % (n, fmt(d2)))
    return ("filiform-spectra", True,
            "disjoint from the six-dim spectrum for n=3..50;"
            " 27/32 < d2 < 9/8 for n>=7")


def check_almost_abelian_counts():
    """Reference almost abelian matrices produce the expected nice-basis
    counts, and the 2^(n-1)-cyclic family gives count n for n = 2..5."""
    t0 = time.time()
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
            return ("almost-abelian-counts", False,
                    "%s: expected %s, got %s" % (label, want, got))
    for n in range(2, 6):
        got = count_nice(indecomposable_family(n).a)
        if got != n:
            return ("almost-abelian-counts", False,
                    "family n=%d: expected %d, got %s" % (n, n, got))
    dt = time.time() - t0
    if dt >= 10.0:
        return ("almost-abelian-counts", False, "too slow: %.2fs" % dt)
    return ("almost-abelian-counts", True,
            "five reference counts plus family n=2..5 in %.2fs" % dt)


def check_root64_witness():
    """The 3x3 matrix with cube 64*I admits a nice basis, the constructed
    witness verifies, and the reference cyclic chain built from (0,2,1)
    is itself a verified witness."""
    a = fixtures.matrix_root64()
    alg = build(a)
    verdict = exists_nice(a)
    if verdict.status != "yes" or verdict.witness is None:
        return ("cube-root-of-64-witness", False,
                "status %s" % verdict.status)
    conj = alg.compiled.change_basis(verdict.witness)
    if not check_nice(conj):
        return ("cube-root-of-64-witness", False,
                "constructed witness not nice")
    w = (rat(0), rat(2), rat(1))
    chain = [w]
    for _ in range(2):
        chain.append(a.apply(chain[-1]))
    if chain[1] != (rat(6), rat(-4), rat(4)):
        return ("cube-root-of-64-witness", False, "reference chain drifted")
    if chain[2] != (rat(-24), rat(-16), rat(16)):
        return ("cube-root-of-64-witness", False, "reference chain drifted")
    cols = [(rat(1),) + tuple(rat(0) for _ in range(3))]
    for v in chain:
        cols.append((rat(0),) + v)
    ref = Matrix.from_columns(cols)
    refconj = alg.compiled.change_basis(ref)
    if not check_nice(refconj):
        return ("cube-root-of-64-witness", False,
                "reference witness not nice")
    return ("cube-root-of-64-witness", True,
            "constructed and reference cyclic witnesses both verify")


def check_catalog_counts():
    """Every entry of the three-dimensional catalog verifies: the listed
    count matches a recomputation and each listed basis is nice."""
    rows = catalog()
    names = []
    for entry in rows:
        try:
            entry.verify()
        except RuntimeError as err:
            return ("three-dim-catalog", False,
                    "%s: %s" % (entry.name, err))
        if entry.matrix is not None and count_nice(entry.matrix) != entry.nu:
            return ("three-dim-catalog", False,
                    "%s: recomputed count disagrees" % entry.name)
        names.append("%s=%s" % (entry.name, entry.nu))
    return ("three-dim-catalog", True, "; ".join(names))


def _all_graphs(n):
    """All simple graphs on n labelled vertices, as edge sets."""
    all_pairs = [frozenset(p) for p in combinations(range(n), 2)]
    for bits in range(1 << len(all_pairs)):
        yield frozenset(p for i, p in enumerate(all_pairs) if bits >> i & 1)


def check_graph_sweep():
    """For every simple graph on at most 5 labelled vertices
    and every nilpotency class in 2..5, the niceness predicate agrees
    with whether the constructive routine succeeds; the path on three
    vertices gives dimensions 10 (class 3) and 20 (class 4)."""
    t0 = time.time()
    checked = 0
    for n in range(1, 6):
        for edges in _all_graphs(n):
            for c in (2, 3, 4, 5):
                g = GraphSpec.of(n, edges, c)
                pred, tag = nice_predicate(g)
                try:
                    construct_nice_basis(g)
                    built = True
                except PredicateFalse:
                    built = False
                if pred != built:
                    return ("graph-sweep", False,
                            "disagreement: n=%d c=%d edges=%s (%s)"
                            % (n, c, sorted(map(sorted, edges)), tag))
                checked += 1
    path3 = frozenset({frozenset({0, 1}), frozenset({1, 2})})
    for c, want in ((3, 10), (4, 20)):
        alg, _, _ = graph_algebra(GraphSpec.of(3, path3, c))
        if alg.dim != want:
            return ("graph-sweep", False,
                    "path graph class %d: dim %d, expected %d"
                    % (c, alg.dim, want))
    dt = time.time() - t0
    if dt >= 60.0:
        return ("graph-sweep", False, "too slow: %.2fs" % dt)
    return ("graph-sweep", True,
            "%d (graph, class) pairs agree in %.2fs; path dims 10 and 20"
            % (checked, dt))


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
                return ("free-nilpotent-dimensions", False,
                        "d=%d c=%d: dim %d, expected %d"
                        % (d, c, alg.dim, total))
            checked += 1
    return ("free-nilpotent-dimensions", True,
            "%d (generators, class) pairs match" % checked)


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
            return ("structure-facts", False, "sample not nice")
        ok, info = check_adapted(g)
        if not ok:
            return ("structure-facts", False, "not adapted: %s" % (info,))
        space = derivation_space(g)
        for d in space.basis:
            diag = Matrix.diagonal([d[i, i] for i in range(g.dim)])
            if not is_derivation(g, diag):
                return ("structure-facts", False,
                        "diagonal part is not a derivation")
    for base, nu in ((fixtures.matrix_cyclic(4), 3),
                     (fixtures.matrix_c(), 1)):
        k = base.rows
        for m in range(1, 4):
            # A + 0_m acts on R^(k+m): the algebra of A plus an abelian factor
            padded = Matrix([list(row) + [0] * m for row in base.data]
                            + [[0] * (k + m)] * m)
            if count_nice(padded) != nu:
                return ("structure-facts", False,
                        "abelian extension changed the count")
            g = direct_sum(build(base).compiled, abelian(m))
            if not check_adapted(g)[0] and build(base).compiled.is_nilpotent():
                return ("structure-facts", False, "extension lost adaptedness")
    return ("structure-facts", True,
            "adaptedness, diagonal derivations, abelian extensions")


ALL_CHECKS = (
    check_filiform_closed_form,
    check_n6_certificate,
    check_filiform_spectra,
    check_almost_abelian_counts,
    check_root64_witness,
    check_catalog_counts,
    check_graph_sweep,
    check_free_dimensions,
    check_structure_facts,
)


def run_all():
    """Run every check and return the list of (name, ok, detail) rows."""
    return [f() for f in ALL_CHECKS]
