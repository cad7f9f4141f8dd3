"""The pre-Einstein certification against the code that it replaced.

pre_einstein_general_check runs the trace test on the derivations that
commute with N = diag(w), derivation_space(g, w), as one membership: the
functional Tr(ND) - Tr(D) lies in the row space of the eliminated system.
derivation_space assembles its equations from the unknowns and builds its
basis on first read, and is_derivation sums in ints.  The reference_*
functions below are the versions they replaced, kept verbatim apart from
their names and their Space result:
- reference_derivation_space, reference_is_derivation and
  reference_general_check: the full-space code over all n^2 entries, with
  an all-pairs is_derivation and the trace test on every derivation;
- reference_weighted_derivation_space, reference_sparse_is_derivation and
  reference_zero_weight_check: the pair-by-pair weighted assembly, the
  Fraction is_derivation and the trace loop over a basis of Der(g)_0.
Verdicts, counterexamples and bases are compared on the fixture algebras,
sign-rescaled filiform algebras and their sums, n6, abelian factors, graph
algebras and Hypothesis draws; Der(g)_0 is compared with the zero-weight
part of the full Der(g), cut out by linear algebra that does not use the
weight-block lemma.
"""

import glob
import math
import os
import random
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from nicebasis import derivations, fixtures
from nicebasis.almost_abelian import build, load_matrix
from nicebasis.derivations import (
    DerivationSpace,
    derivation_space,
    diagonal_derivations,
    is_derivation,
    ln_closed_form,
    pre_einstein_general_check,
    pre_einstein_nice,
    NotNiceBasis,
    PreEinstein,
)
from nicebasis.graphs import GraphSpec, graph_algebra, load_graph
from nicebasis.lie import LieAlgebra, abelian, direct_sum, load_lie
from nicebasis.linalg import (Matrix, Subspace, apply_columns, dense, is_positive_definite,
                              solve)
from nicebasis.nice import check_nice
from nicebasis.scalars import Q, ZERO, ONE
from test_integer_table import sparse_kernel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- the full-space references ----------------------------------------------

Space = namedtuple("Space", "dim basis")  # what the references return


def _entries(d):
    """A Matrix or a sparse {(row, col): value} map as the sparse map."""
    if isinstance(d, Matrix):
        return {(r, c): x for c, col in enumerate(d.columns) for r, x in col.items()}
    return d


def reference_derivation_space(g: LieAlgebra) -> Space:
    """Solve D[x,y] = [Dx,y] + [x,Dy] on all basis pairs.

    Unknowns are the n^2 entries of D (row-major); one sparse equation per
    (pair, output coordinate).  Only nonzero brackets contribute terms, so
    assembly costs O(n^2 + n nnz).  The system is homogeneous, so it is
    assembled from g.table and eliminated in ints.
    The basis is sparse_kernel's canonical one: a vector per free
    entry of D, in row-major order.
    """
    n = g.dim
    ad = g.table
    rows = []

    def term(eq, r, var, c):
        row = eq.setdefault(r, {})
        row[var] = row.get(var, 0) + c

    for i in range(n):
        adi = ad[i]
        for j in range(i + 1, n):
            adj = ad[j]
            eq = {}  # output coordinate r -> coefficients on D's entries
            # D[e_i, e_j]: sum_k c_k D e_k
            for k, c in adi.get(j, {}).items():
                for r in range(n):
                    term(eq, r, r * n + k, c)
            # -[D e_i, e_j] = [e_j, D e_i]: sum_m D[m][i] [e_j, e_m]
            for m, comps in adj.items():
                for r, c in comps.items():
                    term(eq, r, m * n + i, c)
            # -[e_i, D e_j]: -sum_m D[m][j] [e_i, e_m]
            for m, comps in adi.items():
                for r, c in comps.items():
                    term(eq, r, m * n + j, -c)
            rows.extend(eq.values())
    kernel = sparse_kernel(Subspace(n * n, rows))
    return Space(
        n, tuple({divmod(v, n): x for v, x in vec.items()} for vec in kernel)
    )


def reference_is_derivation(g: LieAlgebra, d) -> bool:
    """Does D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] hold on all basis pairs?

    d is a Matrix or a sparse {(row, col): value} map.
    """
    n = g.dim
    cols = [{} for _ in range(n)]
    for (r, c), x in _entries(d).items():
        cols[c][r] = x

    def add(out, vec, f=ONE):
        for k, x in vec.items():
            out[k] = out.get(k, ZERO) + f * x

    for i in range(n):
        for j in range(i + 1, n):
            diff = {}
            for k, c in g.brackets.get((i, j), {}).items():
                add(diff, cols[k], c)
            add(diff, g.bracket_sparse(cols[i], {j: ONE}), -ONE)
            add(diff, g.bracket_sparse({i: ONE}, cols[j]), -ONE)
            if any(diff.values()):
                return False
    return True


def reference_general_check(g: LieAlgebra, n_diag):
    """Certify a claimed diagonal pre-Einstein derivation.

    Returns (True, None) or (False, counterexample) where the counterexample
    is either ("not_derivation", N) or ("trace", D) with D a derivation
    violating Tr(ND) = Tr(D).
    """
    n_diag = [Q(x) for x in n_diag]
    if not reference_is_derivation(g, {(i, i): x for i, x in enumerate(n_diag) if x}):
        return False, ("not_derivation", Matrix.diagonal(n_diag))
    for d in reference_derivation_space(g).basis:
        trace = trace_nd = ZERO  # Tr(D) and Tr(N D), N diagonal
        for (r, c), x in d.items():
            if r == c:
                trace += x
                trace_nd += n_diag[r] * x
        if trace_nd != trace:
            return False, ("trace", d)
    return True, None


# --- the Der(g)_0 references ------------------------------------------------


def reference_weighted_derivation_space(g: LieAlgebra, weights=None) -> Space:
    """Solve D[x,y] = [Dx,y] + [x,Dy] on all basis pairs.

    Unknowns are the n^2 entries of D or, given weights w, those D[m][i]
    with w_m = w_i (Der(g)_0, the derivations commuting with diag(w)),
    numbered densely in row-major order; one sparse equation per (pair,
    output coordinate).  Only nonzero brackets contribute terms, so assembly
    costs O(n^2 + n nnz).  The system is homogeneous, so it is assembled from
    g's int table and eliminated in ints.  The basis is sparse_kernel's
    canonical one: a vector per free unknown, in row-major order.
    """
    n = g.dim
    ad = g.table
    weights = [ZERO] * n if weights is None else weights
    same = {}  # weight -> indices of that weight, increasing
    for i, w in enumerate(weights):
        same.setdefault(w, []).append(i)
    unknowns = [(m, i) for m in range(n) for i in same[weights[m]]]
    var = {e: v for v, e in enumerate(unknowns)}
    rows = []

    def term(eq, r, e, c):
        v = var.get(e)
        if v is not None:
            row = eq.setdefault(r, {})
            row[v] = row.get(v, 0) + c

    for i in range(n):
        adi = ad[i]
        for j in range(i + 1, n):
            adj = ad[j]
            eq = {}  # output coordinate r -> coefficients on D's entries
            # D[e_i, e_j]: sum_k c_k D e_k
            for k, c in adi.get(j, {}).items():
                for r in same[weights[k]]:
                    term(eq, r, (r, k), c)
            # -[D e_i, e_j] = [e_j, D e_i]: sum_m D[m][i] [e_j, e_m]
            for m, comps in adj.items():
                for r, c in comps.items():
                    term(eq, r, (m, i), c)
            # -[e_i, D e_j]: -sum_m D[m][j] [e_i, e_m]
            for m, comps in adi.items():
                for r, c in comps.items():
                    term(eq, r, (m, j), -c)
            rows.extend(eq.values())
    kernel = sparse_kernel(Subspace(len(unknowns), rows))
    return Space(n, tuple({unknowns[v]: x for v, x in vec.items()} for vec in kernel))


def reference_sparse_is_derivation(g: LieAlgebra, d) -> bool:
    """Does D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] hold on all basis pairs?

    d is a Matrix or a sparse {(row, col): value} map.  The differences are
    summed from the nonzero brackets and columns of D only: O(nnz) if diagonal.
    Both terms are read off g's int table: one common scale, one zero test.
    """
    t = g.table
    cols = {}
    for (r, c), x in _entries(d).items():
        cols.setdefault(c, {})[r] = x
    diff = {}  # (i, j) with i < j -> D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j]

    def add(i, j, vec, f):
        if i > j:  # the difference of (j, i) is minus that of (i, j)
            i, j, f = j, i, -f
        out = diff.setdefault((i, j), {})
        for k, x in vec.items():
            out[k] = out.get(k, ZERO) + f * x

    for i, j in g.brackets:
        for k, c in t[i][j].items():
            if k in cols:
                add(i, j, cols[k], c)
    for i, col in cols.items():
        for m, x in col.items():
            for j, comps in t[m].items():  # -D[m][i] [e_m, e_j]
                if j != i:
                    add(i, j, comps, -x)
    return not any(any(out.values()) for out in diff.values())


def reference_zero_weight_check(g: LieAlgebra, n_diag):
    """Certify a claimed diagonal pre-Einstein derivation.

    Returns (True, None) or (False, counterexample) where the counterexample
    is either ("not_derivation", N) or ("trace", D) with D a derivation
    violating Tr(ND) = Tr(D).

    The trace test runs on Der(g)_0 = derivation_space(g, w) only.  Lemma:
    if N = diag(w) is a derivation, every nonzero c_ij^k has w_k = w_i + w_j,
    so each equation (i, j, r) of Der(g) involves only unknowns D[m][i] (and
    D[m][j]) of one weight w_m - w_i = w_r - w_i - w_j.  So Der(g) is the
    direct sum of its weight blocks, and Tr(D), Tr(ND) read only diagonal
    entries, of weight 0: Tr(ND) = Tr(D) holds on Der(g) iff on Der(g)_0
    (the ad_N grading of Nikolayevsky, Trans. AMS 363, 2011).
    """
    n_diag = [Q(x) for x in n_diag]
    if not reference_sparse_is_derivation(g, {(i, i): x for i, x in enumerate(n_diag) if x}):
        return False, ("not_derivation", Matrix.diagonal(n_diag))
    for d in reference_weighted_derivation_space(g, n_diag).basis:
        trace = trace_nd = ZERO  # Tr(D) and Tr(N D), N diagonal
        for (r, c), x in d.items():
            if r == c:
                trace += x
                trace_nd += n_diag[r] * x
        if trace_nd != trace:
            return False, ("trace", d)
    return True, None


def reference_fraction_pre_einstein(g: LieAlgebra) -> PreEinstein:
    """pre_einstein_nice as it stepped N in Fractions from the Gram solve to the
    certificate, here reference_zero_weight_check: N's diagonal is the sparse
    product of the int kernel vectors with the Fraction solution."""
    if not check_nice(g):
        raise NotNiceBasis("defining basis is not nice")
    diag = derivation_space(g, range(g.dim)).system.int_kernel()
    gram = Matrix([[sum(x * b.get(i, 0) for i, x in a.items()) for b in diag] for a in diag])
    if not is_positive_definite(gram):
        raise RuntimeError("trace Gram matrix is not positive definite")
    coeffs = solve(gram, [sum(v.values()) for v in diag])  # Tr(Dg(v)) = sum of entries
    n_diag = dense(apply_columns(diag, dict(enumerate(coeffs))), g.dim)
    ok, bad = reference_zero_weight_check(g, n_diag)
    if not ok:
        raise RuntimeError(f"trace certification failed: {bad!r}")
    return PreEinstein(Matrix.diagonal(n_diag), tuple(sorted(n_diag)))


# --- the algebras -------------------------------------------------------------


def signed_filiform(sizes, seed):
    """L_a + L_b + ... with its basis rescaled by seeded signs."""
    rng = random.Random(seed)
    signs = [1] + [rng.choice((1, -1)) for _ in range(sum(sizes) - 1)]
    table, offset = {}, 0
    for n in sizes:
        for i in range(offset + 1, offset + n - 1):
            table[(offset, i)] = {i + 1: signs[offset] * signs[i] * signs[i + 1]}
        offset += n
    return LieAlgebra(offset, table)


def load_fixture(path):
    if path.endswith(".lie"):
        return load_lie(path)
    if path.endswith(".graph"):
        return graph_algebra(load_graph(path))[0]
    return build(load_matrix(path)).compiled


FIXTURES = {os.path.basename(p): (lambda p=p: load_fixture(p))
            for p in sorted(glob.glob(os.path.join(ROOT, "fixtures", "*")))}
FILIFORM = {
    **{f"L{n}": (lambda n=n: signed_filiform((n,), n)) for n in range(3, 15)},
    **{f"L{a}+L{b}": (lambda a=a, b=b: signed_filiform((a, b), a * b))
       for a, b in ((3, 4), (4, 4), (4, 5), (5, 7), (6, 6), (3, 9))},
}
ABELIAN = {
    "R1": lambda: abelian(1),
    "R4": lambda: abelian(4),
    "h3+R2": lambda: direct_sum(fixtures.heisenberg3(), abelian(2)),
    "L5+R1": lambda: direct_sum(fixtures.standard_filiform(5), abelian(1)),
}
GRAPHS = {
    "path3-class3": lambda: graph_algebra(GraphSpec.of(3, [(0, 1), (1, 2)], 3))[0],
    "square-class2": lambda: graph_algebra(
        GraphSpec.of(4, [(0, 1), (1, 2), (2, 3), (3, 0)], 2))[0],
    "star4-class3": lambda: graph_algebra(GraphSpec.of(4, [(0, 1), (0, 2), (0, 3)], 3))[0],
    "path4-class3": lambda: graph_algebra(GraphSpec.of(4, [(0, 1), (1, 2), (2, 3)], 3))[0],
    "edge+vertex-class4": lambda: graph_algebra(GraphSpec.of(3, [(0, 1)], 4))[0],
}
ALGEBRAS = {**FIXTURES, **FILIFORM, **ABELIAN, **GRAPHS}


def candidates(g):
    """Diagonals to certify: the pre-Einstein one when the basis is nice, its
    double, each diagonal derivation, their sum, zero, and all ones."""
    n = g.dim
    diag = [list(v) for v in diagonal_derivations(g)]
    out = diag + [[Q(0)] * n, [Q(1)] * n]
    if diag:
        out.append([sum(col, ZERO) for col in zip(*diag)])
    try:
        pe = pre_einstein_nice(g)
    except NotNiceBasis:
        return out
    n_diag = [pe.matrix[i, i] for i in range(n)]
    return out + [n_diag, [2 * x for x in n_diag]]


def assert_same_verdict(g, n_diag):
    ok, why = pre_einstein_general_check(g, n_diag)
    ref_ok, ref_why = reference_general_check(g, n_diag)
    assert ok == ref_ok
    if ok:
        assert why is None
        return
    assert why[0] == ref_why[0]
    if why[0] == "not_derivation":
        assert why[1] == ref_why[1]
        return
    d = why[1]
    assert reference_is_derivation(g, d)
    assert all(n_diag[r] == n_diag[c] for r, c in d)
    trace = sum((x for (r, c), x in d.items() if r == c), ZERO)
    trace_nd = sum((n_diag[r] * x for (r, c), x in d.items() if r == c), ZERO)
    assert trace != trace_nd


class TestSameVerdict:
    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_candidates(self, name):
        g = ALGEBRAS[name]()
        for n_diag in candidates(g):
            assert_same_verdict(g, n_diag)

    @pytest.mark.parametrize("scale, ok", [(Q(9, 32), True), (ONE, False)])
    def test_n6_repeated_weights(self, scale, ok):
        g = fixtures.n6()
        n_diag = [scale * k for k in (1, 2, 3, 3, 4, 5)]
        assert pre_einstein_general_check(g, n_diag)[0] is ok
        assert_same_verdict(g, n_diag)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_abelian_weights_all_equal(self, k):
        # N = cI: every entry has weight 0, so Der(g)_0 is all of Der(g) = gl(k)
        g = abelian(k)
        for c in (ONE, Q(2), Q(-1, 3)):
            assert derivation_space(g, [c] * k) == derivation_space(g)
            assert_same_verdict(g, [c] * k)
        assert pre_einstein_general_check(g, [ONE] * k) == (True, None)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(set(ALGEBRAS) - {"p3_c5.graph"})),
           st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    min_size=1, max_size=5),
           st.integers(0, 1))
    def test_random_diagonal_derivations(self, name, coeffs, with_pe):
        g = ALGEBRAS[name]()
        diag = [list(v) for v in diagonal_derivations(g)]
        n_diag = [sum((c * v[i] for c, v in zip(coeffs, diag)), ZERO) for i in range(g.dim)]
        if with_pe and g.dim:
            try:
                pe = pre_einstein_nice(g)
            except NotNiceBasis:
                pass
            else:
                n_diag = [x + pe.matrix[i, i] for i, x in enumerate(n_diag)]
        assert is_derivation(g, {(i, i): x for i, x in enumerate(n_diag) if x})
        assert_same_verdict(g, n_diag)


def zero_weight_part(g, weights):
    """Der(g) cut down to the entries D[r][c] with w_r = w_c, by solving for
    the combinations of the full basis that vanish on every other entry."""
    n = g.dim
    full = reference_derivation_space(g).basis
    off = {(r, c) for r in range(n) for c in range(n) if weights[r] != weights[c]}
    rows = [{j: d[e] for j, d in enumerate(full) if e in d} for e in off]
    vectors = []
    for combo in sparse_kernel(Subspace(len(full), rows)):
        v = {}
        for j, a in combo.items():
            for (r, c), x in full[j].items():
                v[r * n + c] = v.get(r * n + c, ZERO) + a * x
        vectors.append({k: x for k, x in v.items() if x})
    return Subspace(n * n, vectors)


class TestZeroWeightSpace:
    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_spans_the_zero_weight_part(self, name):
        g = ALGEBRAS[name]()
        n = g.dim
        for weights in candidates(g):
            space = derivation_space(g, weights)
            same = sum(weights[r] == weights[c] for r in range(n) for c in range(n))
            assert isinstance(space, DerivationSpace) and len(space.unknowns) == same
            assert space.system.ambient == same
            assert all(x and weights[r] == weights[c]
                       for d in space.basis for (r, c), x in d.items())
            mine = Subspace(n * n, [{r * n + c: x for (r, c), x in d.items()}
                                    for d in space.basis])
            assert mine.dim == space.dim
            assert mine == zero_weight_part(g, weights)

    @pytest.mark.parametrize("name", sorted(FILIFORM))
    def test_no_weights_is_the_full_space(self, name):
        g = FILIFORM[name]()
        assert derivation_space(g).basis == reference_derivation_space(g).basis


class TestSparseIsDerivation:
    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_full_basis_and_its_perturbations(self, name):
        g = ALGEBRAS[name]()
        n = g.dim
        rng = random.Random(n)
        for d in reference_derivation_space(g).basis[:12]:
            assert is_derivation(g, d)
            bent = dict(d)
            e = (rng.randrange(n), rng.randrange(n))
            bent[e] = bent.get(e, ZERO) + 1
            assert is_derivation(g, bent) == reference_is_derivation(g, bent)
            m = Matrix([[bent.get((r, c), ZERO) for c in range(n)] for r in range(n)])
            assert is_derivation(g, m) == reference_is_derivation(g, m)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(set(ALGEBRAS) - {"p3_c5.graph"})), st.data())
    def test_random_sparse_maps(self, name, data):
        g = ALGEBRAS[name]()
        n = g.dim
        index = st.integers(0, n - 1)
        entries = data.draw(st.dictionaries(
            st.tuples(index, index), st.fractions(min_value=-2, max_value=2, max_denominator=3),
            max_size=6))
        basis = reference_derivation_space(g).basis
        if basis and data.draw(st.booleans()):  # a derivation, perhaps bent
            d = dict(basis[data.draw(st.integers(0, len(basis) - 1))])
            for e, x in entries.items():
                d[e] = d.get(e, ZERO) + x
            entries = d
        assert is_derivation(g, entries) == reference_is_derivation(g, entries)


# --- the row-space trace test and the int code against the Der(g)_0 references


def ordered(d):
    """A sparse map's items in key order, so that equality checks the order too."""
    return list(d.items())


class TestSameAsZeroWeightReference:
    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_bases_equal_in_value_and_order(self, name):
        g = ALGEBRAS[name]()
        for weights in [None] + candidates(g):
            space = derivation_space(g, weights)
            ref = reference_weighted_derivation_space(g, weights).basis
            assert [ordered(d) for d in space.basis] == [ordered(d) for d in ref]
            assert space.dim == len(ref)

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_verdicts_and_counterexamples_equal(self, name):
        g = ALGEBRAS[name]()
        for n_diag in candidates(g):
            got = pre_einstein_general_check(g, n_diag)
            want = reference_zero_weight_check(g, n_diag)
            assert got == want
            if not got[0] and got[1][0] == "trace":
                assert ordered(got[1][1]) == ordered(want[1][1])


class BasisBuilt(AssertionError):
    pass


def refuse_basis(self):
    raise BasisBuilt("the kernel basis was built")


def closed_form_diagonal(n):
    d1, d2 = ln_closed_form(n)
    return [d1, d2] + [k * d1 + d2 for k in range(1, n - 1)]


GUARDED = {
    "L28": lambda: (signed_filiform((28,), 28), closed_form_diagonal(28)),
    "n6": lambda: (fixtures.n6(), [Q(9, 32) * k for k in (1, 2, 3, 3, 4, 5)]),
}


class TestCertificationBuildsNoBasis:
    """A certification that succeeds decides the trace test by the residue alone."""

    @pytest.mark.parametrize("name", sorted(GUARDED))
    def test_certifies_with_the_kernel_basis_refused(self, name, monkeypatch):
        g, w = GUARDED[name]()
        monkeypatch.setattr(DerivationSpace, "basis", property(refuse_basis))
        assert pre_einstein_general_check(g, w) == (True, None)
        if name == "L28":  # nice: the Gram solve reads int kernel vectors only
            assert pre_einstein_nice(g).spectrum == tuple(sorted(w))
        # 2w fails the trace test, and only then is the basis built
        with pytest.raises(BasisBuilt):
            pre_einstein_general_check(g, [2 * x for x in w])

    @pytest.mark.parametrize("name", sorted(GUARDED))
    def test_double_has_a_zero_weight_counterexample(self, name):
        g, w = GUARDED[name]()
        w2 = [2 * x for x in w]
        ok, (kind, d) = pre_einstein_general_check(g, w2)
        assert (ok, kind) == (False, "trace")
        assert d and all(w2[r] == w2[c] for r, c in d)
        assert reference_is_derivation(g, d)
        assert sum((w2[r] - 1) * x for (r, c), x in d.items() if r == c) != 0
        assert (ok, (kind, d)) == reference_zero_weight_check(g, w2)


def as_matrix(d, n):
    return Matrix([[d.get((r, c), ZERO) for c in range(n)] for r in range(n)])


class TestIntIsDerivation:
    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_ints_mixed_denominators_matrices_and_the_empty_map(self, name):
        g = ALGEBRAS[name]()
        n = g.dim
        rng = random.Random(n)
        assert is_derivation(g, {}) and is_derivation(g, Matrix.zeros(n, n))
        basis = reference_derivation_space(g).basis[:8]
        maps = [dict(d) for d in basis]
        if len(basis) >= 2:  # a derivation with mixed denominators
            mixed = {}
            for d, f in zip(basis, (Q(1, 2), Q(-2, 3), Q(5, 7), Q(1, 11))):
                for e, x in d.items():
                    mixed[e] = mixed.get(e, ZERO) + f * x
            maps.append({e: x for e, x in mixed.items() if x})
        for d in maps:
            den = math.lcm(*[x.denominator for x in d.values()])
            ints = {e: x.numerator * (den // x.denominator) for e, x in d.items()}
            assert all(type(x) is int for x in ints.values())
            e = (rng.randrange(n), rng.randrange(n))
            bent = {**d, e: d.get(e, ZERO) + Q(1, rng.choice((2, 3, 5)))}
            bent_ints = {**ints, e: ints.get(e, 0) + 1}
            for m in (d, ints, bent, bent_ints):
                want = reference_sparse_is_derivation(g, m)
                assert want == reference_is_derivation(g, m)
                assert is_derivation(g, m) == want
                assert is_derivation(g, as_matrix(m, n)) == want
            assert is_derivation(g, d) and is_derivation(g, ints)


# --- one Der(g)_0 system per pre-Einstein request ------------------------------

def builds():
    return derivations._space.cache_info().misses


class TestOneSystemPerRequest:
    """derivation_space keeps its last space, keyed by (g, weight blocks)."""

    @pytest.mark.parametrize("n", range(4, 11))
    def test_simple_spectrum_builds_one(self, n, monkeypatch):
        calls, equations = [], derivations._equations
        monkeypatch.setattr(derivations, "_equations", lambda *a: calls.append(a) or equations(*a))
        g = fixtures.standard_filiform(n)
        pe = pre_einstein_nice(g)
        assert len(set(pe.spectrum)) == n
        assert builds() == 1  # the diagonal system is Der(g)_0 for N
        w = [pe.matrix[i, i] for i in range(n)]
        assert pre_einstein_general_check(g, w) == (True, None)
        assert builds() == 1
        assert len(calls) == 1  # the derivation test of N reads the roots, not _equations

    def test_repeated_value_builds_two(self):
        g = direct_sum(fixtures.standard_filiform(10), fixtures.standard_filiform(12))
        pe = pre_einstein_nice(g)
        assert len(set(pe.spectrum)) < g.dim
        assert builds() == 2

    @pytest.mark.parametrize("name", ["n6", "L8"])
    def test_a_wrong_diagonal_fails_after_a_hit(self, name):
        if name == "n6":  # not nice: the right diagonal, certified, then unscaled
            g, w = fixtures.n6(), [Q(9, 32) * k for k in (1, 2, 3, 3, 4, 5)]
            assert pre_einstein_general_check(g, w) == (True, None)
            wrong = [k * 32 / 9 for k in w]
        else:
            g = fixtures.standard_filiform(8)
            pe = pre_einstein_nice(g)
            wrong = [2 * pe.matrix[i, i] for i in range(8)]
        hits = derivations._space.cache_info().hits
        got = pre_einstein_general_check(g, wrong)
        assert derivations._space.cache_info().hits == hits + 1 and builds() == 1
        want = reference_zero_weight_check(g, wrong)
        assert got[0] is False and got[1][0] == "trace"
        assert got == want and ordered(got[1][1]) == ordered(want[1][1])

    def test_a_diagonal_that_is_no_derivation_builds_nothing(self):
        # the derivation test runs before Der(g)_0 is built, so the kept space stays
        g = fixtures.standard_filiform(20)
        pre_einstein_nice(g)
        assert builds() == 1
        ok, (kind, n) = pre_einstein_general_check(g, [2] * 20)
        assert (ok, kind, n) == (False, "not_derivation", Matrix.diagonal([2] * 20))
        assert builds() == 1
        assert derivations._space.cache_info().currsize == 1
        w = [pre_einstein_nice(g).matrix[i, i] for i in range(20)]
        assert builds() == 1  # the diagonal system is still the one kept
        assert pre_einstein_general_check(g, w) == (True, None)
        assert builds() == 1


# --- N in int weights over one denominator, against the Fraction path ----------

PRE_EINSTEIN = {
    **{f"L{n}": (lambda n=n: signed_filiform((n,), 7 * n)) for n in range(3, 31)},
    **{f"L{a}+L{b}": (lambda a=a, b=b: signed_filiform((a, b), a + b))
       for a, b in ((3, 3), (3, 4), (4, 5), (5, 7), (6, 6), (3, 9), (10, 12))},
    **{name: FIXTURES[name] for name in FIXTURES if name.endswith(".lie")},
}


class TestIntPreEinstein:
    """pre_einstein_nice keeps N as int weights over one den from the Gram solve
    through the int certificate; what a caller reads is the Fraction path's."""

    @pytest.mark.parametrize("name", sorted(PRE_EINSTEIN))
    def test_matrix_and_spectrum_equal_the_fraction_path(self, name):
        g = PRE_EINSTEIN[name]()
        try:
            want = reference_fraction_pre_einstein(g)
        except NotNiceBasis:
            with pytest.raises(NotNiceBasis):
                pre_einstein_nice(g)
            return
        got = pre_einstein_nice(g)
        assert got == want and (got.matrix.num, got.matrix.den) == (want.matrix.num,
                                                                     want.matrix.den)
        assert repr(got) == repr(want)
        n_diag = [got.matrix[i, i] for i in range(g.dim)]
        assert pre_einstein_general_check(g, n_diag) == reference_zero_weight_check(g, n_diag)

    def test_the_lie_fixtures_reach_both_outcomes(self):
        nice = {name for name in PRE_EINSTEIN if name.endswith(".lie") and
                check_nice(PRE_EINSTEIN[name]())}
        assert "n7_extension.lie" in nice and "n6.lie" in set(PRE_EINSTEIN) - nice

    @pytest.mark.parametrize("name", ["L10", "L10+L12"])
    def test_scaled_weights_hit_the_same_space(self, name):
        # a positive scale keeps the weight blocks, so the int certificate on (k w, k den)
        # is served the space that (w, den) built, and decides alike
        g = PRE_EINSTEIN[name]()
        pe = pre_einstein_nice(g)
        simple = len(set(pe.spectrum)) == g.dim
        assert builds() == (1 if simple else 2)
        den, w = pe.matrix.den, [pe.matrix.num[i].get(i, 0) for i in range(g.dim)]
        space = derivation_space(g, w)
        for k in (1, 2, 7):
            assert derivation_space(g, [k * x for x in w]) is space
            assert derivations._certify(g, [k * x for x in w], k * den) == (True, None)
            assert derivations._certify(g, [2 * k * x for x in w], k * den)[1][0] == "trace"
        assert builds() == (1 if simple else 2)

    @pytest.mark.parametrize("name", ["L5", "L10+L12", "n7_extension.lie"])
    def test_a_doubled_solution_fails_the_certificate(self, name, monkeypatch):
        # 2N is a derivation that fails Tr(2N D) = Tr(D) at D = N, so a certificate
        # that is skipped or weakened lets it through
        g = PRE_EINSTEIN[name]()
        real = derivations._solve

        def doubled(rows, rhs, n):
            x, den = real(rows, rhs, n)
            return {p: 2 * v for p, v in x.items()}, den
        monkeypatch.setattr(derivations, "_solve", doubled)
        with pytest.raises(RuntimeError, match=r"^trace certification failed: \('trace', "):
            pre_einstein_nice(g)
