"""The integer-row Subspace against the Fraction Subspace it replaced.

FractionSubspace is the previous echelon core, kept verbatim as the oracle:
it eliminates over Q with Fraction rows scaled to pivot 1.  Both are driven
with the same vectors; after every add the canonical rows, pivots,
residues and kernels must agree.  The rows and kernel vectors are
primitive ints, the oracle's over their pivot and free entries, and the int
residue (w, d) of Subspace.residue must be the oracle's residue times d.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nicebasis.linalg import Subspace, dense
from nicebasis.scalars import Q, ZERO, ONE
from test_integer_table import q_rows, sparse_kernel


class FractionSubspace:
    """Span of vectors in Q^ambient, kept in fully reduced echelon form."""

    def __init__(self, ambient, vectors=()):
        self.ambient = ambient
        self.rows = {}
        self._occ = {}
        for v in vectors:
            self.add(v)

    def reduce(self, vector):
        if isinstance(vector, dict):
            items = vector.items()
        elif len(vector) == self.ambient:
            items = enumerate(vector)
        else:
            raise ValueError("vector length mismatch")
        v = {c: x if isinstance(x, Q) else Q(x) for c, x in items if x}
        rows = self.rows
        for p in [c for c in v if c in rows]:
            f = v.pop(p)
            for c, x in rows[p].items():
                if c != p:
                    y = v.get(c, ZERO) - f * x
                    if y:
                        v[c] = y
                    else:
                        del v[c]
        return v

    def add(self, vector):
        v = self.reduce(vector)
        if not v:
            return False
        p = min(v)
        if v[p] != 1:
            inv = 1 / v[p]
            v = {c: x * inv for c, x in v.items()}
        occ = self._occ
        for q in occ.pop(p, ()):
            row = self.rows[q]
            f = row.pop(p)
            for c, x in v.items():
                if c == p:
                    continue
                y = row.get(c, ZERO) - f * x
                if not y:
                    del row[c]
                    holders = occ[c]
                    holders.discard(q)
                    if not holders:
                        del occ[c]
                else:
                    if c not in row:
                        occ.setdefault(c, set()).add(q)
                    row[c] = y
        for c in v:
            if c != p:
                occ.setdefault(c, set()).add(p)
        self.rows[p] = v
        return True

    @property
    def pivots(self):
        return sorted(self.rows)

    def sparse_kernel(self):
        rows, occ = self.rows, self._occ
        out = []
        for f in range(self.ambient):
            if f not in rows:
                v = {p: -rows[p][f] for p in sorted(occ.get(f, ()))}
                v[f] = ONE
                out.append(v)
        return out


BIG = 10**30

small = st.integers(-3, 3)
huge = st.integers(-BIG, BIG)
entries = st.one_of(
    small,
    huge,
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, 10**6)),
    st.builds(Fraction, small, st.integers(1, 7)),
)


@st.composite
def vector_lists(draw):
    """Dense and sparse vectors, some of them combinations of earlier ones."""
    n = draw(st.integers(1, 7))
    vectors = []
    for _ in range(draw(st.integers(1, 9))):
        if len(vectors) >= 2 and draw(st.booleans()):
            u, v = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            a, b = draw(entries), draw(entries)
            du, dv = dense(as_sparse(u), n), dense(as_sparse(v), n)
            vec = [a * x + b * y for x, y in zip(du, dv)]
        else:
            zero_rate = draw(st.sampled_from([0, 0.5, 0.8]))
            vec = [0 if draw(st.floats(0, 1)) < zero_rate else draw(entries)
                   for _ in range(n)]
        if draw(st.booleans()):
            vec = {i: x for i, x in enumerate(vec) if x or draw(st.booleans())}
        vectors.append(vec)
    probes = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=3))
    return n, vectors, probes


def as_sparse(v):
    return v if isinstance(v, dict) else {i: x for i, x in enumerate(v) if x}


def all_fractions(values):
    return all(type(x) is Fraction for x in values)


def assert_same(s, ref, probes):
    for p, row in s.rows.items():  # primitive integer rows, pivot positive
        assert all(type(x) is int for x in row.values())
        assert math.gcd(*row.values()) == 1 and row[p] > 0
    assert q_rows(s) == ref.rows
    assert list(s.rows) == list(ref.rows)  # pivots in the order they arrived
    assert all(all_fractions(row.values()) for row in q_rows(s).values())
    assert s.pivots == ref.pivots
    assert s.dim == len(ref.rows)
    kernel = sparse_kernel(s)
    assert kernel == ref.sparse_kernel()
    assert [list(v) for v in kernel] == [list(v) for v in ref.sparse_kernel()]
    assert all(all_fractions(v.values()) for v in kernel)
    for probe in [*probes, *ref.sparse_kernel(), *ref.rows.values()]:
        w, d = s.residue(probe)
        assert type(d) is int and d > 0
        assert all(type(x) is int and x for x in w.values())
        assert {c: Q(x, d) for c, x in w.items()} == ref.reduce(probe)


class TestAgainstFractionSubspace:
    @settings(max_examples=300, deadline=None)
    @given(vector_lists())
    def test_every_add(self, case):
        n, vectors, probes = case
        s, ref = Subspace(n), FractionSubspace(n)
        for v in vectors:
            assert s.add(v) == ref.add(v)
            assert_same(s, ref, probes)

    @settings(max_examples=100, deadline=None)
    @given(vector_lists())
    def test_copy_is_independent(self, case):
        n, vectors, probes = case
        half = len(vectors) // 2
        s = Subspace(n, vectors[:half])
        before = {p: dict(row) for p, row in s.rows.items()}
        t = s.copy()
        ref = FractionSubspace(n, vectors[:half])
        for v in vectors[half:]:
            t.add(v)
            ref.add(v)
        assert_same(t, ref, probes)
        assert s.rows == before
        assert s == Subspace(n, vectors[:half])

    def test_rows_are_the_primitive_int_rows(self):
        s = Subspace(3, [{0: 2, 1: 4}])
        assert s.rows == {0: {0: 1, 1: 2}}
        assert not s.add({0: Q(1, 3), 1: Q(2, 3)})
        assert s.add({1: 3, 2: -6})
        assert s.rows == {0: {0: 1, 2: 4}, 1: {1: 1, 2: -2}}
        assert all(type(x) is int for row in s.rows.values() for x in row.values())

    def test_residue_of_entries_without_a_pivot(self):
        s = Subspace(3, [(1, 2, 0)])
        assert s.residue({1: 5, 2: Q(1, 2)}) == ({1: 10, 2: 1}, 2)  # (0, 5, 1/2)
        assert s.residue((3, 0, 7)) == ({1: -6, 2: 7}, 1)

    def test_residue_in_ints(self):
        s = Subspace(3, [(2, 3, 0)])
        w, d = s.residue({0: 1, 1: Q(1, 2), 2: 0})
        assert (w, d) == ({1: -2}, 2)  # (1, 1/2, 0) - (1/2)(2, 3, 0) = (0, -1, 0)
        assert s.residue({0: 1, 1: Q(1, 2)}) == ({1: -2}, 2)
        assert s.residue((4, 6, 0)) == ({}, 1)
        assert s.residue({1: 5}) == ({1: 5}, 1)
