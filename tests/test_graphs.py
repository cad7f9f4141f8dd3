"""Graph-attached nilpotent algebras and the free-nilpotent machinery."""

import itertools
import random
from pathlib import Path

import pytest
import sympy

from nicebasis import (
    DimensionCapExceeded,
    GraphSpec,
    PredicateFalse,
    check_nice,
    construct_nice_basis,
    free_nilpotent,
    graph_algebra,
    graphs,
    load_graph,
    lyndon_words,
    nice_predicate,
    parse_graph,
    standard_factorization,
    witt_dimension,
)
from nicebasis.linalg import Subspace
from nicebasis.scalars import DIMENSION_CAP
from test_integer_table import (SEEDED_GRAPHS, assert_rebuilds, assert_same_algebra,
                                reference_graph_algebra)

FIX = Path(__file__).resolve().parent.parent / "fixtures"


def is_lyndon(w):
    return all(w < w[i:] for i in range(1, len(w)))


class TestLyndon:
    def test_small_alphabet(self):
        words = lyndon_words(2, 3)
        assert words == [(0,), (1,), (0, 1), (0, 0, 1), (0, 1, 1)]

    @pytest.mark.parametrize("d,c", [(2, 6), (3, 4), (4, 3), (0, 3)])
    def test_all_lyndon_and_complete(self, d, c):
        words = lyndon_words(d, c)
        assert len(set(words)) == len(words)
        assert all(is_lyndon(w) for w in words)
        # brute force: every Lyndon word of length <= c shows up
        brute = sum(
            1
            for l in range(1, c + 1)
            for w in itertools.product(range(d), repeat=l)
            if is_lyndon(w)
        )
        assert len(words) == brute

    @pytest.mark.parametrize("d,l", [(2, k) for k in range(1, 9)] + [(3, 5), (5, 4), (0, 3)])
    def test_witt_counts_lyndon_words(self, d, l):
        by_len = sum(1 for w in lyndon_words(d, l) if len(w) == l)
        assert witt_dimension(d, l) == by_len

    @pytest.mark.parametrize("d,l", [(2, 12), (3, 7), (7, 3), (0, 3)])
    def test_witt_mobius_formula(self, d, l):
        expect = sum(
            sympy.mobius(l // e) * d**e for e in sympy.divisors(l)
        ) // l
        assert witt_dimension(d, l) == expect

    @pytest.mark.parametrize("call,message", [
        (lambda: lyndon_words(-1, 2), "alphabet size -1 is below 0"),
        (lambda: witt_dimension(-2, 3), "alphabet size -2 is below 0"),
        (lambda: witt_dimension(2, 0), "length 0 is below 1"),  # was ZeroDivisionError
        (lambda: witt_dimension(2, -1), "length -1 is below 1"),
    ], ids=["lyndon-negative-d", "witt-negative-d", "witt-length-0", "witt-negative-length"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_standard_factorization(self):
        u, v = standard_factorization((0, 1, 1))
        assert (u, v) == ((0, 1), (1,))
        for w in lyndon_words(3, 5):
            if len(w) < 2:
                continue
            u, v = standard_factorization(w)
            assert u + v == w
            assert is_lyndon(u) and is_lyndon(v)
            # v is the lexicographically least proper suffix
            assert v == min(w[i:] for i in range(1, len(w)))


class TestFreeNilpotent:
    @pytest.mark.parametrize(
        "d,c,dim",
        [(1, 5, 1), (2, 2, 3), (2, 3, 5), (2, 4, 8), (3, 2, 6), (5, 4, 205)],
    )
    def test_dimensions(self, d, c, dim):
        alg, basis = free_nilpotent(d, c)
        assert alg.dim == dim
        assert len(basis.words) == dim
        assert alg.dim == sum(witt_dimension(d, l) for l in range(1, c + 1))

    def test_heisenberg_is_free(self):
        alg, basis = free_nilpotent(2, 2)
        assert alg.brackets.get((0, 1), {}) == {2: 1}
        assert alg.lower_central_series()[-1].dim == 0

    def test_nilpotency_class(self):
        alg, _ = free_nilpotent(2, 4)
        series = alg.lower_central_series()
        assert len(series) == 5  # g down to g^5 = 0
        assert series[-1].dim == 0

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapExceeded, match=r"^dimension exceeds 256 at class 5$"):
            free_nilpotent(5, 5)
        # summing stops at the class that passes the cap
        with pytest.raises(DimensionCapExceeded, match=r"^dimension exceeds 256 at class 11$"):
            free_nilpotent(2, 10**6)

    @pytest.mark.parametrize(
        "d,c,ok",
        [(1, 9, True), (2, 2, True), (2, 4, True), (2, 5, False),
         (3, 2, True), (3, 3, False), (4, 5, False)],
    )
    def test_complete_graph(self, d, c, ok):
        # the free class-c algebra on d generators is the algebra of K_d
        k = GraphSpec.of(d, itertools.combinations(range(d), 2), c)
        assert nice_predicate(k)[0] is ok
        if sum(witt_dimension(d, m) for m in range(1, c + 1)) > DIMENSION_CAP:
            with pytest.raises(DimensionCapExceeded):
                graph_algebra(k)
            return
        alg, free = graph_algebra(k)[0], free_nilpotent(d, c)[0]
        assert (alg.dim, alg.brackets, alg.names) == (free.dim, free.brackets, free.names)


def commutator(p, q):
    """pq - qp in the free associative algebra, for int polynomials {word: coeff}."""
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
            out[w2 + w1] = out.get(w2 + w1, 0) - c1 * c2
    return {w: x for w, x in out.items() if x}


def expansion_free_nilpotent(d, c):
    """(rows, words): free_nilpotent's table {(i, j): coords} as the associative
    expansion builds it, on the Lyndon words found by brute force.  The expansion of
    a Lyndon word w is w plus greater words of its length (Chen-Fox-Lyndon), so the
    least word of a commutator is a Lyndon word whose coordinate is its coefficient:
    greedy extraction reads the coordinates off in increasing word index."""
    words = sorted((w for m in range(1, c + 1) for w in itertools.product(range(d), repeat=m)
                    if is_lyndon(w)), key=lambda w: (len(w), w))
    index = {w: i for i, w in enumerate(words)}
    expansion = {}
    for w in words:
        u, v = standard_factorization(w) if len(w) > 1 else (None, None)
        expansion[w] = {w: 1} if u is None else commutator(expansion[u], expansion[v])
    rows = {}
    for (i, u), (j, v) in itertools.combinations(enumerate(words), 2):
        if len(u) + len(v) <= c:
            poly, coords = commutator(expansion[u], expansion[v]), {}
            while poly:
                w = min(poly)
                coeff = coords[index[w]] = poly[w]
                poly = {x: z for x in poly.keys() | expansion[w].keys()
                        if (z := poly.get(x, 0) - coeff * expansion[w].get(x, 0))}
            if coords:
                rows[(i, j)] = coords
    return rows, words


def oracle_sizes():
    """(d, c) with d <= 7 under DIMENSION_CAP; d = 1 has one word at every class."""
    for d in range(1, 8):
        for c in range(1, 11):
            if sum(witt_dimension(d, m) for m in range(1, c + 1)) <= DIMENSION_CAP:
                yield d, c


class TestFreeNilpotentMatchesExpansion:
    def test_oracle_sizes(self):
        sizes = list(oracle_sizes())
        assert len(sizes) == 40
        assert {(2, 10), (3, 6), (4, 4), (5, 4), (6, 3), (7, 3)} <= set(sizes)

    @pytest.mark.parametrize("d,c", list(oracle_sizes()))
    def test_same_table_in_component_order(self, d, c):
        alg, basis = free_nilpotent(d, c)
        rows, words = expansion_free_nilpotent(d, c)
        assert basis.words == tuple(words)
        assert basis.supports == tuple(sum(1 << a for a in set(w)) for w in words)
        assert alg.names == [f"v{w[0] + 1}" if len(w) == 1 else
                             "w" + "".join(str(a + 1) for a in w) for w in words]
        assert (alg.dim, alg.den, alg.pairs) == (len(words), 1, tuple(rows))
        assert [list(alg.table[i][j].items()) for i, j in alg.pairs] == \
            [list(coords.items()) for coords in rows.values()]

    @pytest.mark.parametrize("d,c", [(2, 10), (3, 6)])
    def test_antisymmetric_jacobi_and_below_the_larger_word(self, d, c):
        alg, basis = free_nilpotent(d, c)
        t, words = alg.table, basis.words
        for i, row in enumerate(t):
            assert i not in row
            for j, coords in row.items():
                assert t[j][i] == {k: -x for k, x in coords.items()}
                # the module docstring's bound: every word of [u, v] lies below max(u, v)
                assert all(words[k] < max(words[i], words[j]) for k in coords)

        def bracket_with(vector, k):
            out = {}
            for a, x in vector.items():
                for b, y in t[a].get(k, {}).items():
                    out[b] = out.get(b, 0) + x * y
            return {b: x for b, x in out.items() if x}

        triples = 0
        for i, j, k in itertools.combinations(range(alg.dim), 3):
            if len(words[i]) + len(words[j]) + len(words[k]) <= c:
                total = {}
                for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                    for x, y in bracket_with(t[a].get(b, {}), e).items():
                        total[x] = total.get(x, 0) + y
                assert not any(total.values()), (i, j, k)
                triples += 1
        assert triples


def spec(n, edges, c):
    return GraphSpec.of(n, edges, c)


class TestGraphAlgebra:
    @pytest.mark.parametrize(
        "g,dim",
        [
            (spec(3, [(0, 1), (1, 2)], 3), 10),
            (spec(3, [(0, 1), (1, 2)], 4), 20),
            (spec(3, [(0, 1), (1, 2), (0, 2)], 3), 14),
            (spec(2, [(0, 1)], 4), 8),  # one edge: the whole free algebra
            (spec(4, [], 6), 4),  # edgeless: abelian
        ],
    )
    def test_dimensions(self, g, dim):
        alg, words = graph_algebra(g)
        assert alg.dim == dim
        assert len(words) == dim

    def test_edge_brackets_survive(self):
        g = spec(3, [(0, 1)], 2)
        alg = graph_algebra(g)[0]
        assert alg.brackets.get((0, 1), {}) != {}
        assert alg.brackets.get((0, 2), {}) == {}
        assert alg.brackets.get((1, 2), {}) == {}


def graph_classes(v):
    """One edge list per isomorphism class of graphs on v labelled vertices."""
    pairs = list(itertools.combinations(range(v), 2))
    perms = list(itertools.permutations(range(v)))
    seen, reps = set(), []
    for bits in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
        form = min(tuple(sorted(tuple(sorted((s[a], s[b]))) for a, b in edges)) for s in perms)
        if form not in seen:
            seen.add(form)
            reps.append(edges)
    return reps


# one graph per isomorphism class on at most 5 vertices, at classes 2..4
REPRESENTATIVES = [spec(v, edges, c) for v in range(1, 6) for edges in graph_classes(v)
                   for c in (2, 3, 4)]
FIXTURE_GRAPHS = sorted(FIX.glob("*.graph"))


def label(g):
    return f"v{g.vertex_count}-c{g.c}-" + "".join(
        f"[{a + 1}{b + 1}]" for a, b in sorted(tuple(sorted(e)) for e in g.edges))


def connected(g, vertices):
    """Whether the subgraph of g induced on a nonempty vertex set is connected."""
    seen, todo = set(), [min(vertices)]
    while todo:
        a = todo.pop()
        seen.add(a)
        todo += [b for b in vertices if b not in seen and g.has_edge(a, b)]
    return seen == set(vertices)


def independence_polynomial(g):
    """Coefficients of I_G(x): the number of independent vertex sets of each size."""
    n = g.vertex_count
    return [sum(1 for s in itertools.combinations(range(n), r)
                if not any(g.has_edge(a, b) for a, b in itertools.combinations(s, 2)))
            for r in range(n + 1)]


class TestGradedDimensionOracle:
    """prod_k (1 - t^k)^l_k = I_G(-t) for the free partially commutative Lie
    algebra of G, l_k its dimension in degree k (the PBW basis of its
    enveloping algebra, the partially commutative monoid algebra, whose
    Hilbert series is 1 / I_G(-t)); the class-c quotient agrees with it in
    degrees up to c.  Nothing here reads how graph_algebra builds it."""

    def test_representatives_cover_every_class(self):
        assert [len(graph_classes(v)) for v in range(1, 6)] == [1, 2, 4, 11, 34]

    @pytest.mark.parametrize("g", [pytest.param(g, id=label(g)) for g in REPRESENTATIVES]
                             + [pytest.param(load_graph(p), id=p.stem) for p in FIXTURE_GRAPHS])
    def test_kept_lengths_match_the_independence_polynomial(self, g):
        c = g.c
        product = [1] + [0] * c
        for w in graph_algebra(g)[1]:
            k = len(w)  # multiply by 1 - t^k, mod t^(c + 1)
            product = [x - (product[m - k] if m >= k else 0) for m, x in enumerate(product)]
        indep = independence_polynomial(g) + [0] * c
        assert product == [(-1) ** m * indep[m] for m in range(c + 1)]

    def test_fixtures_are_all_read(self):
        assert len(FIXTURE_GRAPHS) == 5


@pytest.mark.parametrize("g", [pytest.param(g, id=label(g)) for g in REPRESENTATIVES]
                         + [pytest.param(load_graph(p), id=p.stem) for p in FIXTURE_GRAPHS])
def test_int_table_is_the_validating_constructors(g):
    assert_rebuilds(graph_algebra(g)[0])


class TestBlockLemma:
    """The kept words of graph_algebra against the lemma it is built on: a
    word on a disconnected vertex set lies in the ideal, one on a clique
    meets it in 0."""

    @pytest.mark.parametrize("g", REPRESENTATIVES, ids=label)
    def test_no_kept_word_has_a_disconnected_support(self, g):
        assert all(connected(g, set(w)) for w in graph_algebra(g)[1])

    @pytest.mark.parametrize("g", REPRESENTATIVES, ids=label)
    def test_every_clique_word_is_kept(self, g):
        kept = set(graph_algebra(g)[1])
        clique = [w for w in lyndon_words(g.vertex_count, g.c)
                  if all(g.has_edge(a, b) for a, b in itertools.combinations(set(w), 2))]
        assert set(clique) <= kept


def reference_kind(edges, vertices):
    """(connected, clique) for a nonempty vertex list: a clique test on every pair,
    then a breadth-first search from the first vertex."""
    adj = {frozenset(e) for e in edges}
    if all(frozenset(p) in adj for p in itertools.combinations(vertices, 2)):
        return True, True
    seen, queue = {vertices[0]}, [vertices[0]]
    for a in queue:
        for b in vertices:
            if b not in seen and frozenset((a, b)) in adj:
                seen.add(b)
                queue.append(b)
    return len(seen) == len(vertices), False


def neighbours(d, edges):
    nbr = [0] * d
    for a, b in edges:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    return nbr


def assert_kinds(d, edges, supports):
    connected, cliques = graphs._vertex_sets(supports, neighbours(d, edges))
    assert cliques <= connected <= supports
    for s in supports:
        vertices = [a for a in range(d) if s >> a & 1]
        assert (s in connected, s in cliques) == reference_kind(edges, vertices), (edges, vertices)


# eight seeded graphs on each of 2..8 vertices, with any number of edges, at
# every class 2..5 whose free algebra fits under DIMENSION_CAP
KIND_GRAPHS = {d: [sorted(rng.sample(list(itertools.combinations(range(d), 2)), m))
                   for m in [rng.randint(0, d * (d - 1) // 2) for _ in range(8)]]
               for d in range(2, 9) for rng in [random.Random(700 + d)]}
KIND_SIZES = [(d, c) for d in KIND_GRAPHS for c in range(2, 6)
              if sum(witt_dimension(d, m) for m in range(1, c + 1)) <= DIMENSION_CAP]


class TestKinds:
    """graphs._vertex_sets decides connectedness and cliques by one recurrence over
    sets that drop a vertex; each verdict must be the one a clique test on every
    pair and a breadth-first search give."""

    @pytest.mark.parametrize("d,c", KIND_SIZES)
    def test_every_support_of_the_free_algebra(self, d, c):
        supports = set(free_nilpotent(d, c)[1].supports)
        # the vertex sets of at most c letters, closed under dropping a vertex
        assert supports == {s for s in range(1, 1 << d) if s.bit_count() <= c}
        for edges in KIND_GRAPHS[d]:
            assert_kinds(d, edges, supports)

    @pytest.mark.parametrize("d,edges,kind", [
        (4, [(0, 1), (1, 2), (2, 3)], (True, False)),  # path
        (4, [(0, 1), (0, 2), (0, 3)], (True, False)),  # star
        (4, [(0, 1), (1, 2), (0, 2)], (False, False)),  # triangle and a lone vertex
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)], (True, False)),  # path
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)], (True, False)),  # star
        (5, [(0, 1), (1, 2), (0, 2), (3, 4)], (False, False)),  # triangle beside an edge
        (5, [(0, 1), (1, 2), (2, 3), (0, 3)], (False, False)),  # 4-cycle and a lone vertex
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], (True, False)),  # 5-cycle
        (5, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], (False, False)),  # K4 less an edge, lone
        (5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], (True, False)),  # triangle with a tail
        (5, list(itertools.combinations(range(4), 2)), (False, False)),  # K4 and a lone vertex
        # K4 less an edge, with a tail
        (5, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4)], (True, False)),
    ])
    def test_middle_band(self, d, edges, kind):
        # between k - 1 and (k - 1)(k - 2) / 2 edges: the count alone decides
        # neither connectedness nor its absence
        assert d - 1 <= len(edges) <= (d - 1) * (d - 2) // 2
        assert reference_kind(edges, list(range(d))) == kind
        assert_kinds(d, edges, set(range(1, 1 << d)))

    @pytest.mark.parametrize("d", range(1, 6))
    def test_every_graph_and_vertex_set(self, d):
        pairs = list(itertools.combinations(range(d), 2))
        for m in range(1 << len(pairs)):
            assert_kinds(d, [p for t, p in enumerate(pairs) if m >> t & 1], set(range(1, 1 << d)))


class TestQuotientMemo:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Count quotient builds: each one reads the free algebra once."""
        calls = []
        real = graphs.free_nilpotent

        def counted(d, c):
            calls.append((d, c))
            return real(d, c)

        monkeypatch.setattr(graphs, "free_nilpotent", counted)
        return calls

    def test_nice_basis_reuses_the_quotient(self, builds):
        g = spec(4, [(0, 1), (1, 2), (2, 3)], 3)
        alg = graph_algebra(g)[0]
        basis = construct_nice_basis(g)
        assert builds == [(4, 3)]
        assert graph_algebra(spec(4, [(2, 3), (0, 1), (1, 2)], 3))[0] is alg
        assert builds == [(4, 3)]
        assert check_nice(alg.change_basis(basis))

    @pytest.mark.parametrize("other", [
        spec(4, [(0, 1), (1, 2), (2, 3)], 4),  # another class
        spec(4, [(0, 1), (1, 2)], 3),  # one edge fewer
        spec(4, [(0, 1), (1, 2), (2, 3), (0, 3)], 3),  # one edge more
        spec(4, [(0, 1), (1, 2), (1, 3)], 3),  # one edge moved
    ])
    def test_another_spec_builds_its_own(self, builds, other):
        g = spec(4, [(0, 1), (1, 2), (2, 3)], 3)
        alg = graph_algebra(g)[0]
        got = graph_algebra(other)[0]
        assert len(builds) == 2 and got is not alg
        assert got.brackets != alg.brackets
        # the memo now holds the other spec, so g is built again
        assert graph_algebra(g)[0] is not alg
        assert len(builds) == 3


class TestQuotientWork:
    """The eliminations graph_algebra makes, counted at the int core of Subspace:
    _reduce runs once per _add of the ideal closure and once per kept pair whose
    joint vertex set is undecided (connected, no clique), on its free bracket
    itself, and never on a clique pair, whose bracket the ideal cannot meet."""

    @staticmethod
    def kept_pairs(g, words):
        """The free algebra, and the free pairs of kept words split by the kind of
        their joint vertex set: (clique pairs, undecided pairs)."""
        free, basis = free_nilpotent(g.vertex_count, g.c)
        index = {w: i for i, w in enumerate(basis.words)}
        kept = {index[w] for w in words}
        clique, undecided = [], []
        for i, j in free.pairs:
            s = set(basis.words[i]) | set(basis.words[j])
            if i in kept and j in kept and connected(g, s):
                is_clique = all(g.has_edge(a, b) for a, b in itertools.combinations(s, 2))
                (clique if is_clique else undecided).append((i, j))
        return free, clique, undecided

    @pytest.mark.parametrize("n,edges,c", SEEDED_GRAPHS)
    def test_residues_only_on_undecided_pairs(self, monkeypatch, n, edges, c):
        g = spec(n, edges, c)
        free_nilpotent(n, c)  # built, and cached, before the count
        graphs._quotient.cache_clear()
        residues, adds = [], []
        residue, add = Subspace._reduce, Subspace._add

        def counted_residue(self, vector):
            residues.append(vector)
            return residue(self, vector)

        def counted_add(self, vector):
            adds.append(vector)
            return add(self, vector)

        monkeypatch.setattr(Subspace, "_reduce", counted_residue)
        monkeypatch.setattr(Subspace, "_add", counted_add)
        alg, words = graph_algebra(g)
        monkeypatch.undo()
        free, clique, undecided = self.kept_pairs(g, words)
        assert clique
        assert len(residues) == len(adds) + len(undecided)
        direct = [v for v in residues if not any(v is a for a in adds)]
        assert all(v is free.table[i][j] for v, (i, j) in zip(direct, undecided, strict=True))
        ref, ref_words = reference_graph_algebra(g)
        assert words == ref_words
        assert_same_algebra(alg, ref)


class TestNicePredicate:
    cases = [
        (spec(3, [(0, 1), (1, 2), (0, 2)], 2), True, "class-at-most-2"),
        (spec(3, [(0, 1), (1, 2), (0, 2)], 3), False, "contains-3-cycle"),
        (spec(4, [(0, 1), (1, 2)], 3), True, "triangle-free"),
        (spec(4, [(0, 1), (2, 3)], 4), True, "matching"),
        (spec(3, [(0, 1), (1, 2)], 4), False, "contains-path-on-3-vertices"),
        (spec(2, [(0, 1)], 5), False, "has-edge-in-class-5-or-more"),
        (spec(3, [], 9), True, "edgeless"),
        (spec(3, [(0, 2), (1, 2)], 3), True, "triangle-free"),  # the path 0-2-1
    ]

    @pytest.mark.parametrize("g,ok,tag", cases)
    def test_tags(self, g, ok, tag):
        assert nice_predicate(g) == (ok, tag)

    @pytest.mark.parametrize("g,ok,tag", cases)
    def test_construction_agrees(self, g, ok, tag):
        if ok:
            p = construct_nice_basis(g)
            alg = graph_algebra(g)[0]
            assert p.rows == p.cols == alg.dim
            assert check_nice(alg.change_basis(p))
        else:
            with pytest.raises(PredicateFalse):
                construct_nice_basis(g)

    def test_identity_is_returned_only_after_check_nice(self, monkeypatch):
        # a predicate that accepts the triangle at class 3, where weight (1,1,1) repeats
        monkeypatch.setattr(graphs, "nice_predicate", lambda g: (True, "wrong"))
        with pytest.raises(RuntimeError, match="^defining basis is not nice"):
            construct_nice_basis(spec(3, [(0, 1), (1, 2), (0, 2)], 3))


class TestGraphIO:
    def test_round_trip(self):
        g = spec(4, [(0, 2), (1, 3)], 4)
        assert parse_graph("vertices 4\nclass 4\nedge 1 3\nedge 2 4\n") == g

    def test_one_based_format(self):
        g = parse_graph("vertices 3\nclass 3\nedge 1 2\nedge 2 3\n")
        assert g == spec(3, [(0, 1), (1, 2)], 3)

    def test_bad_vertex_rejected(self):
        with pytest.raises(ValueError):
            parse_graph("vertices 2\nclass 2\nedge 1 3\n")
