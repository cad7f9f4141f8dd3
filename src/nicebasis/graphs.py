"""Free nilpotent Lie algebras on Lyndon-word bases and graph quotients.

The free class-c nilpotent algebra F on d generators has a basis indexed by
the Lyndon words of length at most c, w = uv standing for [u, v], (u, v) its
standard factorization.  Lemma (Reutenauer, Free Lie Algebras, 5.1): for
Lyndon words u < v, [u, v] is the word uv when u is a letter or when u's
standard factorization u1 u2 has u2 >= v; otherwise [u, v] = [u1, [u2, v]] -
[u2, [u1, v]] by Jacobi, with [x, y] = -[y, x].  The recursion terminates and
every word of [u, v] lies below v, by induction on |u| + |v|, then on the
larger argument in lexicographic order: uv lies below its proper suffix v; the
inner brackets are shorter, so their words lie below v; the outer ones, of
length |u| + |v|, have both arguments below v (u1 < u < v, u2 < v).  Brackets
are memoized on word pairs; table rows list their coordinates in increasing
word index, the order in which graph quotients reduce them.

The algebra of a graph G on the vertices 0..d-1 is F/I, I the ideal
generated by the brackets [v_a, v_b] of non-adjacent vertices.  F and I are
graded by multidegree, the multiset alpha of letters of a word, and I is
spanned by the iterated brackets [v_x, [v_y, .., [v_a, v_b]]] of generators
with a non-edge bracket, since ad_[x,y] = [ad_x, ad_y].  Lemma (after
Duchamp and Krob, Adv. Math. 95, 1992): if alpha has the vertex set S,
- G[S] disconnected: I_alpha = F_alpha.  Split S into A and B with no edge
  between them.  In F/I each v_a (a in A) commutes with each v_b (b in B),
  so the centralizer of the v_b, a subalgebra, holds the subalgebra L_A
  generated by the v_a, and then the centralizer of L_A holds L_B.  So
  L_A + L_B is the subalgebra generated by the v_s (s in S), and it holds
  the image of F_alpha.  But it lives in multidegrees with letters in A
  only or in B only, and alpha has both.
- S a clique: I_alpha = 0.  Each spanning bracket of I has the letters a
  and b of a non-edge, so its vertex set is no clique.
- otherwise: I_alpha is the sum over a of [v_a, I_(alpha - e_a)], e_a the
  multidegree of v_a, for the same spanning set; S then has at least three
  vertices, so |alpha| >= 3 and no relator lies in degree alpha.
graph_algebra builds the quotient by this lemma; the last quotient built is
kept for the next request on an equal graph.  The vertex sets of words, the
sets of at most c vertices, are decided in one increasing pass by two facts,
t a vertex of S: S is a clique iff S - t is one and t is adjacent to all of
it; S is connected iff it is one vertex, or for some t, S - t is connected
and t has a neighbour in it (a leaf of a spanning tree is such a t).
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .scalars import DIMENSION_CAP, lines, parse_int
from .lie import LieAlgebra
from .linalg import Matrix, Subspace
from .nice import check_nice


class DimensionCapExceeded(ValueError):
    pass


class PredicateFalse(ValueError):
    pass


class GraphSpec(NamedTuple):
    vertex_count: int
    edges: frozenset  # frozenset of frozenset pairs {i, j}, 0-based
    c: int

    @staticmethod
    def of(vertex_count, edges, c):
        norm = set()
        for e in edges:
            a, b = sorted(e)
            if a == b:
                raise ValueError("loops are not allowed")
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError("edge endpoint out of range")
            norm.add(frozenset((a, b)))
        if c < 1:
            raise ValueError("class must be at least 1")
        return GraphSpec(vertex_count, frozenset(norm), c)

    def has_edge(self, a, b):
        return frozenset((a, b)) in self.edges


class LyndonBasis(NamedTuple):
    words: tuple  # tuple of tuples of letters, ordered by (length, lex)
    supports: tuple  # the vertex bitmask of the letters of each word


def lyndon_words(d, c):
    """All Lyndon words over 0..d-1 of length 1..c, by Duval's generation."""
    if d < 0:
        raise ValueError(f"alphabet size {d} is below 0")
    words = []
    w = [0] if d else []
    while w:
        if len(w) <= c:
            words.append(tuple(w))
        # extend periodically to length c, then increment
        ext = [w[i % len(w)] for i in range(c)]
        while ext and ext[-1] == d - 1:
            ext.pop()
        if ext:
            ext[-1] += 1
            w = ext
        else:
            break
    return sorted(words, key=lambda t: (len(t), t))


def standard_factorization(w):
    """w = u v with v the longest proper Lyndon suffix (= lex least suffix)."""
    assert len(w) >= 2
    best = min(range(1, len(w)), key=lambda i: w[i:])
    return w[:best], w[best:]


@functools.cache
def free_nilpotent(d, c):
    """(LieAlgebra, LyndonBasis) for the free class-c algebra on d generators."""
    if d < 1 or c < 1:
        raise ValueError("need d >= 1 and c >= 1")
    total = 0
    for m in range(1, c + 1):
        total += witt_dimension(d, m)
        if total > DIMENSION_CAP:
            raise DimensionCapExceeded(f"dimension exceeds {DIMENSION_CAP} at class {m}")
    words = lyndon_words(d, c)
    index = {w: i for i, w in enumerate(words)}
    split = {w: standard_factorization(w) for w in words if len(w) > 1}
    known = {}  # (u, v) -> [u, v] for Lyndon words u < v

    def product(u, v):
        """[u, v] as {word index: int}, indices rising, for |u| + |v| <= c."""
        if u >= v:
            return {t: -x for t, x in product(v, u).items()} if u > v else {}
        if (u, v) not in known:
            if len(u) == 1 or split[u][1] >= v:
                known[u, v] = {index[u + v]: 1}
            else:
                u1, u2 = split[u]
                out = {}
                for p, q, sign in ((u1, u2, 1), (u2, u1, -1)):
                    for k, x in product(q, v).items():
                        for t, y in product(p, words[k]).items():
                            out[t] = out.get(t, 0) + sign * x * y
                known[u, v] = {t: x for t, x in sorted(out.items()) if x}
        return known[u, v]

    # words are sorted by (length, word): end[m] is one past the last of length m
    end = {len(w): t + 1 for t, w in enumerate(words)}
    table = {}
    for i, u in enumerate(words):
        for j in range(i + 1, end.get(c - len(u), 0)):
            coords = product(u, words[j])
            if coords:
                table[(i, j)] = coords, 1
    names = [_word_name(w) for w in words]
    alg = LieAlgebra._from_table(len(words), table, 1, names, check=True)
    supports = tuple(sum(1 << a for a in set(w)) for w in words)
    return alg, LyndonBasis(tuple(words), supports)


def _word_name(w):
    if len(w) == 1:
        return f"v{w[0]+1}"
    return "w" + "".join(str(l + 1) for l in w)


def witt_dimension(d, length):
    """Number of Lyndon words of length n over d letters, by d^n = sum_(m | n) m W(d, m)."""
    if d < 0 or length < 1:
        raise ValueError(f"alphabet size {d} is below 0" if d < 0
                         else f"length {length} is below 1")
    return (d**length - sum(m * witt_dimension(d, m)
                            for m in range(1, length) if length % m == 0)) // length


def _vertex_sets(supports, nbr):
    """(connected, cliques): the vertex bitmasks s in supports, which must be closed
    under dropping a vertex, with G[s] connected, and those with G[s] a clique;
    nbr[a] is the bitmask of a's neighbours.  One increasing pass by the module's
    two facts, t the lowest vertex of s for the clique test; a clique is connected."""
    connected, cliques = set(), set()
    for s in sorted(supports):
        low = s & -s
        if nbr[low.bit_length() - 1] & s == s ^ low and (s == low or s ^ low in cliques):
            cliques.add(s)
            connected.add(s)
            continue
        r = s
        while r:  # b runs over the vertex bits of s
            b = r & -r
            r ^= b
            if nbr[b.bit_length() - 1] & s and s ^ b in connected:
                connected.add(s)
                break
    return connected, cliques


def graph_algebra(g: GraphSpec):
    """(LieAlgebra, kept Lyndon words) of the graph quotient, by the lemma and the two
    vertex-set facts of the module docstring.

    Edgeless graphs short-circuit to the abelian algebra (the ideal is
    everything past degree 1) so high classes stay cheap.  The result is
    shared with the next call on an equal spec: read-only.

    The Lyndon words are grouped by their vertex set S, disjoint sets of
    coordinates, and the lemma decides each group (block), so the reduced
    echelon of I is the sum of the per-block echelons: the unit rows of the
    disconnected blocks and the rows of one Subspace that holds only the
    undecided blocks, filled degree by degree from the previous degree's ideal
    vectors (unit vectors of disconnected blocks, vectors added for undecided
    ones) bracketed with each v_a.  Kept are the clique blocks and the
    non-pivots of the undecided ones.  Kept pairs, walked along each kept word's
    table row, bracket to 0 if their joint set is disconnected, to the free
    bracket if it is a clique, else to its residue by the Subspace's int core.
    Only the vertex sets of words are decided, never all 2^d subsets.
    """
    if not g.edges or g.c == 1:
        words = tuple((v,) for v in range(g.vertex_count))
        names = [_word_name(w) for w in words]
        return LieAlgebra(g.vertex_count, {}, names=names), words
    return _quotient(g)


@functools.lru_cache(maxsize=1)  # construct_nice_basis(g) reuses graph_algebra(g)'s
def _quotient(g: GraphSpec):
    """graph_algebra(g) for a graph with an edge, at class >= 2."""
    d, c = g.vertex_count, g.c
    free, basis = free_nilpotent(d, c)
    nbr = [0] * d
    for a, b in g.edges:
        nbr[a], nbr[b] = nbr[a] | 1 << b, nbr[b] | 1 << a
    support, words = basis.supports, basis.words
    connected, cliques = _vertex_sets(set(support), nbr)  # the sets of at most c vertices
    apart = [[] for _ in range(c)]  # apart[m]: the disconnected words of length m < c
    for i, w in enumerate(words):
        if len(w) < c and support[i] not in connected:
            apart[len(w)].append((support[i], {i: 1}))
    ideal = Subspace(free.dim)
    added = []  # (support, int vector) added to ideal in the previous degree
    for k in range(3, c + 1):
        gens, added = apart[k - 1] + added, []
        for s, v in gens:
            for a in range(d):
                t = s | 1 << a  # no clique: it holds s, which is none
                if t in connected and (w := free.bracket_int(a, v)) and ideal._add(w):
                    added.append((t, w))
    keep = [i for i, s in enumerate(support) if s in connected and i not in ideal.rows]
    pos = [None] * free.dim  # pos[i]: the index of kept word i in the quotient
    for t, i in enumerate(keep):
        pos[i] = t
    rows = {}  # in free.pairs order: row i of free.table ends with its j > i, rising
    for i in itertools.takewhile(lambda i: 2 * len(words[i]) <= c, keep):  # longer: no j > i
        for j, v in free.table[i].items():
            if j > i and pos[j] is not None and (joint := support[i] | support[j]) in connected:
                w, e = (v, 1) if joint in cliques else ideal._reduce(v)
                if w:
                    rows[(pos[i], pos[j])] = {pos[t]: x for t, x in w.items()}, e
    names = [free.names[i] for i in keep]
    return LieAlgebra._from_table(len(keep), rows, free.den, names), tuple(words[i] for i in keep)


def nice_predicate(g: GraphSpec):
    """(nice: bool, reason tag) by the class-dependent graph criteria."""
    if g.c <= 2:
        return True, "class-at-most-2"
    if g.c == 3:
        for a, b, cc in itertools.combinations(range(g.vertex_count), 3):
            if g.has_edge(a, b) and g.has_edge(b, cc) and g.has_edge(a, cc):
                return False, "contains-3-cycle"
        return True, "triangle-free"
    if g.c == 4:
        if len({v for e in g.edges for v in e}) == 2 * len(g.edges):  # no shared endpoint
            return True, "matching"
        return False, "contains-path-on-3-vertices"
    if g.edges:
        return False, "has-edge-in-class-5-or-more"
    return True, "edgeless"


def construct_nice_basis(g: GraphSpec) -> Matrix:
    """Change-of-basis matrix (columns) making graph_algebra(g) nice: the identity.

    Lemma: the kept Lyndon words are weight vectors of the vertex torus (v_a
    scaled by t_a), the weight of a word its letter multiset.  If every weight
    space has dimension 1, the defining basis is nice.  [e_i, e_j] lies in the
    weight space of weight(i) + weight(j), of dimension 1: condition 1.  If
    [e_i, e_j] and [e_i, e_l] both meet e_k, then weight(j) = weight(k) -
    weight(i) = weight(l), so j = l: condition 2.

    The graphs that nice_predicate accepts have multiplicity 1; at class <= 2
    and without edges this is plain.  By the module's lemma only words with a
    connected vertex set are kept.  A connected set of 3 vertices that is no
    clique is a path a-b-c: the free multidegree e_a + e_b + e_c has dimension
    2, and I meets it in [v_b, [v_a, v_c]].  An edge is a clique block, where
    the free multidegrees (2,1), (3,1) and (2,2) have dimension 1.  So a
    triangle-free graph at class 3 and a matching at class 4 qualify.  Whether
    multiplicity >= 2 rules out every nice basis is not proven here.

    Verified by check_nice before returning.  Raises PredicateFalse when
    nice_predicate fails.
    """
    ok, reason = nice_predicate(g)
    if not ok:
        raise PredicateFalse(reason)
    alg = graph_algebra(g)[0]
    verdict = check_nice(alg)
    if not verdict:
        raise RuntimeError(f"defining basis is not nice: {verdict.violations}")
    return Matrix.identity(alg.dim)


# --- graph file format ---
#
#   vertices 3
#   class 4
#   edge 1 2
#   edge 2 3


def parse_graph(text: str) -> GraphSpec:
    header = {}  # 'vertices' and 'class' -> value
    edges = []  # (line number, endpoint, endpoint), 0-based endpoints
    for lineno, (kw, *args) in lines(text):
        arity = {"vertices": 1, "class": 1, "edge": 2}.get(kw)
        if arity is None:
            raise ValueError(f"line {lineno}: unknown keyword {kw!r}")
        if len(args) != arity:
            raise ValueError(f"line {lineno}: {kw} needs {arity} value(s)")
        if kw == "edge":
            edges.append((lineno, *(parse_int(t, "edge endpoint", lineno) - 1 for t in args)))
            continue
        if kw in header:
            raise ValueError(f"line {lineno}: duplicate {kw}")
        header[kw] = parse_int(args[0], kw, lineno, low=0 if kw == "vertices" else 1)
    if len(header) < 2:
        raise ValueError("graph file needs 'vertices' and 'class' lines")
    n = header["vertices"]
    for lineno, a, b in edges:
        if a == b:
            raise ValueError(f"line {lineno}: loops are not allowed")
        if bad := [t + 1 for t in (a, b) if not 0 <= t < n]:
            raise ValueError(f"line {lineno}: edge endpoint {bad[0]} out of range 1..{n}")
    return GraphSpec.of(n, [e[1:] for e in edges], header["class"])


def load_graph(path) -> GraphSpec:
    with open(path) as fh:
        return parse_graph(fh.read())
