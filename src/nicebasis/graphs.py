"""Free nilpotent Lie algebras on Lyndon-word bases and graph quotients.

The free class-c nilpotent algebra on d generators has a basis indexed by
Lyndon words of length at most c; structure constants come from expanding
bracketed words in the truncated free associative algebra and decomposing
back (the expansion of a Lyndon bracketing starts with the word itself,
coefficient 1, so greedy extraction of the smallest word terminates).  The
algebra of a graph is the quotient by the ideal generated by the brackets of
non-adjacent vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .scalars import ZERO, ONE
from .lie import LieAlgebra, abelian
from .linalg import Matrix, Subspace, _divisors, dense
from .nice import check_nice


DIMENSION_CAP = 256


class DimensionCapExceeded(ValueError):
    pass


class PredicateFalse(ValueError):
    pass


@dataclass(frozen=True)
class GraphSpec:
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

    def degree(self, v):
        return sum(1 for e in self.edges if v in e)


@dataclass(frozen=True)
class LyndonBasis:
    words: tuple  # tuple of tuples of letters, ordered by (length, lex)
    factorization: dict  # word -> (left word, right word), len >= 2 only


def lyndon_words(d, c):
    """All Lyndon words over 0..d-1 of length 1..c, by Duval's generation."""
    words = []
    w = [0]
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


def _word_mul(p1, p2, c):
    out = {}
    for w1, c1 in p1.items():
        for w2, c2 in p2.items():
            if len(w1) + len(w2) > c:
                continue
            w = w1 + w2
            out[w] = out.get(w, ZERO) + c1 * c2
            if out[w] == 0:
                del out[w]
    return out


def _poly_sub(p1, p2):
    out = dict(p1)
    for w, c in p2.items():
        out[w] = out.get(w, ZERO) - c
        if out[w] == 0:
            del out[w]
    return out


_free_cache = {}


def free_nilpotent(d, c):
    """(LieAlgebra, LyndonBasis) for the free class-c algebra on d generators."""
    if d < 1 or c < 1:
        raise ValueError("need d >= 1 and c >= 1")
    if (d, c) in _free_cache:
        return _free_cache[(d, c)]
    dims = [witt_dimension(d, m) for m in range(1, c + 1)]
    if sum(dims) > DIMENSION_CAP:
        raise DimensionCapExceeded(f"dimension {sum(dims)} exceeds {DIMENSION_CAP}")
    words = lyndon_words(d, c)
    index = {w: i for i, w in enumerate(words)}
    fact = {}
    expansion = {}
    for w in words:
        if len(w) == 1:
            expansion[w] = {w: ONE}
        else:
            u, v = standard_factorization(w)
            fact[w] = (u, v)
            expansion[w] = _poly_sub(
                _word_mul(expansion[u], expansion[v], c),
                _word_mul(expansion[v], expansion[u], c),
            )

    def decompose(poly):
        # greedy: smallest word present is Lyndon with its exact coefficient
        coords = {}
        poly = dict(poly)
        while poly:
            w = min(poly, key=lambda t: (len(t), t))
            coeff = poly[w]
            coords[index[w]] = coeff
            poly = _poly_sub(poly, {u: coeff * x for u, x in expansion[w].items()})
        return coords

    table = {}
    n = len(words)
    for i in range(n):
        for j in range(i + 1, n):
            if len(words[i]) + len(words[j]) > c:
                continue
            comm = _poly_sub(
                _word_mul(expansion[words[i]], expansion[words[j]], c),
                _word_mul(expansion[words[j]], expansion[words[i]], c),
            )
            coords = decompose(comm)
            if coords:
                table[(i, j)] = coords
    names = [_word_name(w) for w in words]
    alg = LieAlgebra(n, table, names=names)
    result = (alg, LyndonBasis(tuple(words), fact))
    _free_cache[(d, c)] = result
    return result


def _word_name(w):
    if len(w) == 1:
        return f"v{w[0]+1}"
    return "w" + "".join(str(l + 1) for l in w)


def witt_dimension(d, length):
    """Number of Lyndon words of given length over d letters (necklace count)."""
    total = 0
    for m in _divisors(length):
        total += _mobius(m) * d ** (length // m)
    return total // length


def _mobius(n):
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def graph_algebra(g: GraphSpec):
    """(LieAlgebra, kept Lyndon words, projection) of the graph quotient.

    projection maps a coordinate vector of the free algebra to quotient
    coordinates.  Edgeless graphs short-circuit to the abelian algebra (the
    ideal is everything past degree 1) so high classes stay cheap.
    """
    d, c = g.vertex_count, g.c
    if not g.edges or c == 1:
        alg = abelian(d)
        words = tuple((v,) for v in range(d))

        def project_abelian(vec):
            return tuple(vec[:d])

        return alg, words, project_abelian
    free, basis = free_nilpotent(d, c)
    non_edges = [
        (a, b)
        for a in range(d)
        for b in range(a + 1, d)
        if not g.has_edge(a, b)
    ]
    ideal = Subspace(free.dim)
    queue = []
    for a, b in non_edges:
        gen = free.bracket_basis(a, b)
        if gen and ideal.add(gen):
            queue.append(gen)
    # ad of the d generators suffices: they generate the algebra and
    # ad_[x,y] = [ad_x, ad_y], so a subspace stable under each generator's ad
    # is stable under every ad, i.e. an ideal
    while queue:
        v = queue.pop()
        for x in range(d):
            w = free.bracket_sparse({x: ONE}, v)
            if w and ideal.add(w):
                queue.append(w)
    keep = [i for i in range(free.dim) if i not in ideal.rows]
    pos = {orig: t for t, orig in enumerate(keep)}

    def project(vec):
        res = ideal.reduce(vec)
        return tuple(res.get(i, ZERO) for i in keep)

    table = {}
    for a in range(len(keep)):
        for b in range(a + 1, len(keep)):
            res = ideal.reduce(free.brackets.get((keep[a], keep[b]), {}))
            if res:
                table[(a, b)] = {pos[k]: x for k, x in res.items()}
    words = tuple(basis.words[i] for i in keep)
    names = [_word_name(w) for w in words]
    alg = LieAlgebra(len(keep), table, names=names, check=False)
    return alg, words, project


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
        if all(g.degree(v) <= 1 for v in range(g.vertex_count)):
            return True, "matching"
        return False, "contains-path-on-3-vertices"
    if g.edges:
        return False, "has-edge-in-class-5-or-more"
    return True, "edgeless"


def construct_nice_basis(g: GraphSpec) -> Matrix:
    """Change-of-basis matrix (columns) making graph_algebra(g) nice.

    Verified by check_nice before returning.  Raises PredicateFalse when no
    nice basis exists.
    """
    ok, reason = nice_predicate(g)
    if not ok:
        raise PredicateFalse(reason)
    alg, words, _ = graph_algebra(g)
    index = {w: i for i, w in enumerate(words)}
    n = alg.dim
    br = alg.bracket_sparse

    if g.c == 3 and g.edges:
        verts = [{index[(v,)]: ONE} for v in range(g.vertex_count)]
        edges = sorted(tuple(sorted(e)) for e in g.edges)
        cols = list(verts)
        pair_bracket = {}
        for a, b in edges:
            pair_bracket[(a, b)] = br(verts[a], verts[b])
            cols.append(pair_bracket[(a, b)])
        # [v_i, [v_j, v_k]] with i < k, i not in {j, k}, both {i,j}, {j,k}
        # edges; j > k is allowed, the inner bracket is then computed as is
        for a, b in edges:
            for j, k in ((a, b), (b, a)):
                inner = br(verts[j], verts[k])
                for i in range(g.vertex_count):
                    if i < k and i not in (j, k) and g.has_edge(i, j):
                        cols.append(br(verts[i], inner))
        for a, b in edges:
            cols.append(br(verts[a], pair_bracket[(a, b)]))
            cols.append(br(verts[b], pair_bracket[(a, b)]))
        basis = Matrix.from_columns([dense(col, n) for col in cols])
    else:  # class at most 2, edgeless, or a matching at class 4
        basis = Matrix.identity(n)
    conj = alg.change_basis(basis)
    verdict = check_nice(conj)
    if not verdict:
        raise RuntimeError(f"constructed basis is not nice: {verdict.violations}")
    return basis


def free_nice_predicate(d, c):
    """Does the free class-c algebra on d generators have a nice basis?"""
    if d == 1:
        return True
    return c <= 2 or (d == 2 and c <= 4)


def carnot_check(g: LieAlgebra):
    """Build the associated graded algebra of the lower central series.

    Returns (ok, car_algebra_or_info): checks layer dimensions against the
    central-series quotients and validates the Jacobi identity on the graded
    bracket.
    """
    series = g.lower_central_series()
    if series[-1].dim != 0:
        return False, {"error": "not nilpotent"}
    layers = []
    for i in range(len(series) - 1):
        upper = series[i + 1].rows
        layers.append([
            dense(series[i].rows[p], g.dim) for p in series[i].pivots if p not in upper
        ])
    expected = [series[i].dim - series[i + 1].dim for i in range(len(series) - 1)]
    if [len(l) for l in layers] != expected:
        return False, {"error": "layer dimension mismatch", "expected": expected}
    reps = [tuple(v) for layer in layers for v in layer]
    p = Matrix.from_columns(reps)
    graded = g.change_basis(p)
    # layer index of each new basis vector
    layer_of = []
    for li, layer in enumerate(layers):
        layer_of.extend([li] * len(layer))
    offsets = []
    acc = 0
    for layer in layers:
        offsets.append(acc)
        acc += len(layer)
    table = {}
    for (i, j), comps in graded.brackets.items():
        target_layer = layer_of[i] + layer_of[j] + 1
        if target_layer >= len(layers):
            continue
        lo = offsets[target_layer]
        hi = lo + len(layers[target_layer])
        entry = {k: c for k, c in comps.items() if lo <= k < hi}
        if entry:
            table[(i, j)] = entry
    try:
        car = LieAlgebra(g.dim, table)
    except ValueError as exc:
        return False, {"error": f"graded bracket fails Jacobi: {exc}"}
    car_layer_dims = [len(l) for l in layers]
    return True, {"car": car, "layer_dims": car_layer_dims}


# --- graph file format ---
#
#   vertices 3
#   class 4
#   edge 1 2
#   edge 2 3


def parse_graph(text: str) -> GraphSpec:
    vertices = None
    klass = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kw, *args = line.split()
        arity = {"vertices": 1, "class": 1, "edge": 2}.get(kw)
        if arity is None:
            raise ValueError(f"line {lineno}: unknown keyword {kw!r}")
        if len(args) != arity:
            raise ValueError(f"line {lineno}: {kw} needs {arity} value(s)")
        if kw == "vertices":
            vertices = int(args[0])
        elif kw == "class":
            klass = int(args[0])
        else:
            edges.append((int(args[0]) - 1, int(args[1]) - 1))
    if vertices is None or klass is None:
        raise ValueError("graph file needs 'vertices' and 'class' lines")
    return GraphSpec.of(vertices, edges, klass)


def serialize_graph(g: GraphSpec) -> str:
    lines = [f"vertices {g.vertex_count}", f"class {g.c}"]
    for e in sorted(tuple(sorted(e)) for e in g.edges):
        lines.append(f"edge {e[0]+1} {e[1]+1}")
    return "\n".join(lines) + "\n"


def load_graph(path) -> GraphSpec:
    with open(path) as fh:
        return parse_graph(fh.read())


def save_graph(g: GraphSpec, path):
    with open(path, "w") as fh:
        fh.write(serialize_graph(g))
