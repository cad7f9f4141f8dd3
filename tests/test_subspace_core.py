"""The two layers of Subspace: the public doors and the int core behind them.

residue and add read a vector (dense or sparse, ints or Fractions), check it
and clear it to ints once, then call the int cores _reduce and _add, which
builders call directly on the int vectors they hold: free_nilpotent's table
rows in the graph quotient and in LieAlgebra.quotient, and the int columns
of p.num in change_basis.  The core must give what the door gives, and it
must copy its vector: _add stores the reduced vector as a row and later
back-substitutes into it, so a core that kept the caller's dict would
rewrite the cached free table or p.num.
"""

import copy
import itertools
import random

import pytest

from nicebasis import graphs
from nicebasis.graphs import GraphSpec, free_nilpotent, graph_algebra
from nicebasis.lie import LieAlgebra
from nicebasis.linalg import Matrix, Subspace
from nicebasis.scalars import Q
from test_integer_table import SEEDED_GRAPHS


def int_vectors(rng, n, count):
    """count sparse int vectors in Q^n without zeros, entries in -6..6, so that
    pivot entries other than 1 arise."""
    out = []
    for _ in range(count):
        support = rng.sample(range(n), rng.randint(1, min(n, 4)))
        out.append({k: rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]) for k in support})
    return out


@pytest.mark.parametrize("seed", range(40))
def test_core_gives_what_the_door_gives(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    door, core = Subspace(n), Subspace(n)
    for v in int_vectors(rng, n, rng.randint(1, 2 * n)):
        probe = int_vectors(rng, n, 1)[0]
        assert door.residue(probe) == core._reduce(probe)
        assert door.add(v) == core._add(v)
        assert door.rows == core.rows
    for probe in int_vectors(rng, n, 10):
        assert door.residue(probe) == core._reduce(probe)
        w, d = core._reduce(probe)
        # a Fraction vector at the door is the core's int vector over its lcm, 7,
        # as no entry is a multiple of 7
        assert door.residue({k: Q(x, 7) for k, x in probe.items()}) == (w, 7 * d)


def test_the_seeded_rows_have_pivot_entries_other_than_one():
    # the corpus above reaches the scaled branches of _reduce and _add
    pivots = set()
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        s = Subspace(n, int_vectors(rng, n, rng.randint(1, 2 * n)))
        pivots |= {row[p] for p, row in s.rows.items()}
    assert pivots - {1}


@pytest.mark.parametrize("seed", range(20))
def test_the_core_keeps_and_changes_no_vector_it_is_given(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    s = Subspace(n)
    given = int_vectors(rng, n, 2 * n)
    snapshot = copy.deepcopy(given)
    for v in given:
        w, _ = s._reduce(v)
        assert w is not v
        s._add(v)  # later adds back-substitute into the stored rows
    assert given == snapshot
    assert not any(row is v for row in s.rows.values() for v in given)


def test_free_tables_are_not_changed_by_graph_quotients():
    rng = random.Random(44)
    specs = [GraphSpec.of(n, edges, c) for n, edges, c in SEEDED_GRAPHS]
    for _ in range(30):
        d, c = rng.randint(2, 6), rng.randint(2, 4)
        pairs = list(itertools.combinations(range(d), 2))
        specs.append(GraphSpec.of(d, rng.sample(pairs, rng.randint(1, len(pairs))), c))
    specs = [g for g in specs if sum(graphs.witt_dimension(g.vertex_count, m)
                                     for m in range(1, g.c + 1)) <= 120]
    snapshots = {}
    for g in specs:
        free = free_nilpotent(g.vertex_count, g.c)[0]
        snapshots.setdefault((g.vertex_count, g.c), (free, copy.deepcopy(free.table)))
    for g in specs:
        graphs._quotient.cache_clear()
        graph_algebra(g)
    for free, table in snapshots.values():
        assert free.table == table


def test_free_table_is_not_changed_by_its_quotient():
    free = free_nilpotent(3, 3)[0]
    table = copy.deepcopy(free.table)
    ideal = Subspace(free.dim, [{k: 1} for k in range(3, free.dim)])  # the derived algebra
    quotient, _ = free.quotient(ideal)
    assert quotient.dim == 3 and not quotient.pairs
    assert free.table == table


def sheared(n, pairs):
    """The identity with e_a added to column b for each (a, b): not monomial."""
    cols = [{j: 1} for j in range(n)]
    for a, b in pairs:
        cols[b][a] = cols[b].get(a, 0) + 1
    return Matrix.from_columns(cols, n)


@pytest.mark.parametrize("make, tagged", [
    # [e1, e2] = e3 in the basis e1, e2, e3 + e1: the image e3 is no multiple of a
    # column, so the tagged Subspace is built
    (lambda: (LieAlgebra(3, {(0, 1): {2: 1}}), sheared(3, [(0, 2)])), True),
    (lambda: (LieAlgebra(3, {(0, 1): {2: Q(1, 2)}}),
              Matrix([[2, 0, 1], [0, -3, 0], [0, 1, Q(1, 2)]])), True),
    (lambda: (lambda g: (g, sheared(g.dim, [(0, 1), (3, g.dim - 1)])))(
        graph_algebra(GraphSpec.of(4, [(0, 1), (1, 2), (2, 3)], 3))[0]), True),
], ids=["h3-miss", "h3-fractional", "path-graph"])
def test_change_basis_changes_no_column_of_p(monkeypatch, make, tagged):
    alg, p = make()
    num, table = copy.deepcopy(p.num), copy.deepcopy(alg.table)
    ambients, reduce = [], Subspace._reduce

    def recording(self, v):
        ambients.append(self.ambient)
        return reduce(self, v)

    monkeypatch.setattr(Subspace, "_reduce", recording)
    alg.change_basis(p)
    monkeypatch.undo()
    assert (2 * alg.dim in ambients) == tagged
    assert p.num == num and alg.table == table
