"""Finite dimensional Lie algebras with exact rational structure constants.

A LieAlgebra stores its bracket table sparsely: brackets[(i, j)] for i < j is
a dict {k: c} meaning [e_i, e_j] = sum c * e_k.  ad_table[i][j] holds the
same dict for both index orders, and every structural routine evaluates
brackets of sparse {index: coefficient} vectors through it.  integer_ad()
is the same table cleared of denominators, for the questions that a common
scale does not change: spans, kernels, the Jacobi identity.  Indices are
0-based in code; the text file format is 1-based.  The Jacobi identity and
antisymmetry are enforced at construction time.
"""

from __future__ import annotations

import math

from .scalars import Q, ZERO, ONE, fmt, parse_int, rat
from .linalg import Matrix, Subspace, dense, kernel_of, sparse, sparse_columns

# Largest dimension (matrix size, graph vertex count or class) any input
# file or constructed algebra may have; larger inputs are refused up front.
DIMENSION_CAP = 256


class LieAlgebra:
    def __init__(self, dim, brackets, names=None, check=True):
        self.dim = dim
        table = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index out of range: ({i}, {j})")
            if i >= j:
                raise ValueError(f"bracket keys must have i < j, got ({i}, {j})")
            clean = {k: q for k, c in comps.items() if (q := Q(c)) != 0}
            for k in clean:
                if not 0 <= k < dim:
                    raise ValueError(f"bracket target out of range: {k}")
            if clean:
                table[(i, j)] = clean
        self.brackets = table
        self.ad_table = [{} for _ in range(dim)]
        for (i, j), comps in table.items():
            self.ad_table[i][j] = comps
            self.ad_table[j][i] = {k: -c for k, c in comps.items()}
        self._iad = None
        self.names = list(names) if names else [f"e{i+1}" for i in range(dim)]
        if len(self.names) != dim:
            raise ValueError("wrong number of basis names")
        if check:
            bad = self.jacobi_failures(limit=1)
            if bad:
                i, j, k = bad[0]
                raise ValueError(f"Jacobi identity fails on basis triple ({i+1}, {j+1}, {k+1})")

    # --- bracket evaluation ---

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a sparse dict, any index order."""
        return dict(self.ad_table[i].get(j, {}))

    def bracket_sparse(self, x, y):
        """[x, y] for sparse {index: coefficient} vectors; returns a sparse dict."""
        out = {}
        for i, a in x.items():
            row = self.ad_table[i]
            for j in row.keys() & y.keys():
                f = a * y[j]
                for k, c in row[j].items():
                    out[k] = out.get(k, ZERO) + f * c
        return {k: c for k, c in out.items() if c}

    def integer_ad(self):
        """ad_table times the lcm of its denominators, as ints.

        Built on first use and shared by every caller: read-only."""
        if self._iad is None:
            den = math.lcm(*[
                c.denominator for comps in self.brackets.values() for c in comps.values()
            ])
            self._iad = [
                {m: {r: c.numerator * (den // c.denominator) for r, c in comps.items()}
                 for m, comps in row.items()}
                for row in self.ad_table
            ]
        return self._iad

    def bracket_int(self, i, v):
        """[e_i, v] times the scale of integer_ad(), for a sparse int vector v.

        Pairs are visited as in bracket_sparse, so a closure run on either
        adds its vectors to a Subspace in the same order."""
        row = self.integer_ad()[i]
        out = {}
        for j in row.keys() & v.keys():
            f = v[j]
            for k, c in row[j].items():
                out[k] = out.get(k, 0) + f * c
        return {k: c for k, c in out.items() if c}

    def bracket(self, x, y):
        """[x, y] for coefficient vectors x, y; returns a dense tuple."""
        return dense(self.bracket_sparse(sparse(x), sparse(y)), self.dim)

    def ad(self, x):
        """Matrix of ad_x: y -> [x, y] in the given basis."""
        xs = sparse(x)
        return Matrix.from_columns(
            [dense(self.bracket_sparse(xs, {j: ONE}), self.dim) for j in range(self.dim)]
        )

    def jacobi_failures(self, limit=None):
        """Basis triples violating the Jacobi identity.

        A triple can fail only if some [[e_x, e_y], e_z] in it is nonzero:
        (x, y) in the bracket support, z in the row of a component of
        [e_x, e_y].  Only those triples are checked, and failures are listed
        in the order of a scan of support pairs against every third index.
        The cyclic sum is read off integer_ad(): it is homogeneous of degree
        2 in the constants, so scaling them all by one factor leaves its zero
        set unchanged.
        """
        iad = self.integer_ad()
        rank = {pair: n for n, pair in enumerate(self.brackets)}
        reachable = {tuple(sorted((i, j, z))) for (i, j), comps in self.brackets.items()
                     for k in comps for z in iad[k] if z != i and z != j}
        bad = []
        for trip in reachable:
            a, b, c = trip
            # [[e_a, e_b], e_c] + [[e_b, e_c], e_a] + [[e_c, e_a], e_b]
            total = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for k, f in iad[x].get(y, {}).items():
                    for t, d in iad[k].get(z, {}).items():
                        total[t] = total.get(t, 0) + f * d
            if any(total.values()):
                bad.append(trip)

        def first_visit(t):  # (support pair's rank, third index), least first
            a, b, c = t
            return min((rank[p], m) for p, m in (((a, b), c), ((a, c), b), ((b, c), a))
                       if p in rank)

        bad.sort(key=first_visit)
        return bad[:limit] if limit else bad

    # --- structural subspaces ---

    def derived_subalgebra(self):
        return Subspace(self.dim, self.brackets.values())

    def lower_central_series(self):
        """[g, g^1, g^2, ...] as Subspaces, ending at the first repeat."""
        series = [Subspace(self.dim, ({i: ONE} for i in range(self.dim)))]
        while True:
            prev = series[-1]
            nxt = Subspace(self.dim)
            for v in prev.rows.values():
                for i in range(self.dim):
                    nxt.add(self.bracket_sparse({i: ONE}, v))
            series.append(nxt)
            if nxt.dim == prev.dim:
                return series[:-1]
            if nxt.dim == 0:
                return series

    def is_nilpotent(self):
        return self.lower_central_series()[-1].dim == 0

    def center(self):
        return self._preimage_of_center(Subspace(self.dim))

    def upper_central_series(self):
        """[0, Z(g), Z_2(g), ...] ending at the first repeat."""
        series = [Subspace(self.dim)]
        while True:
            prev = series[-1]
            nxt = self._preimage_of_center(prev)
            if nxt.dim == prev.dim:
                return series
            series.append(nxt)
            if nxt.dim == self.dim:
                return series

    def _preimage_of_center(self, z: Subspace) -> Subspace:
        # {x : [x, e_j] in z for all j}: the residues of [e_i, e_j] modulo z,
        # over all j, must combine to zero
        return kernel_of([
            {(j, k): c for j, comps in row.items() for k, c in z.reduce(comps).items()}
            for row in self.ad_table
        ])

    def centralizer(self, vectors):
        """{x : [x, v] = 0 for all v in vectors} as a Subspace."""
        vs = [v if isinstance(v, dict) else sparse(v) for v in vectors]
        return kernel_of([
            {(t, k): c for t, v in enumerate(vs)
             for k, c in self.bracket_sparse({i: ONE}, v).items()}
            for i in range(self.dim)
        ])

    def ideal_closure(self, vectors):
        """Smallest ideal containing the given vectors.

        Each vector is scaled to integers by the lcm of its denominators, which
        leaves its span alone, and then bracketed through the integer table.
        """
        s = Subspace(self.dim)
        queue = []
        for v in vectors:
            v = v if isinstance(v, dict) else sparse(v)
            den = math.lcm(*[x.denominator for x in v.values()])
            v = {k: x.numerator * (den // x.denominator) for k, x in v.items() if x}
            if v and s.add(v):
                queue.append(v)
        while queue:
            v = queue.pop()
            for i in range(self.dim):
                w = self.bracket_int(i, v)
                if w and s.add(w):
                    queue.append(w)
        return s

    def quotient(self, ideal: Subspace):
        """Quotient algebra by an ideal.

        Returns (algebra, project) where project maps an ambient vector to
        its coordinates in the quotient basis (images of the standard basis
        vectors whose index is not an echelon pivot of the ideal).
        """
        if not self._is_ideal(ideal):
            raise ValueError("subspace is not an ideal")
        keep = sorted(set(range(self.dim)).difference(ideal.pivots))
        pos = {orig: t for t, orig in enumerate(keep)}

        def project(vector):
            res = ideal.reduce(vector)
            return tuple(res.get(i, ZERO) for i in keep)

        # only nonzero brackets of two kept vectors survive, keyed in order
        table = {}
        for (i, j), comps in sorted(self.brackets.items()):
            if i in pos and j in pos:
                res = ideal.reduce(comps)
                if res:
                    table[(pos[i], pos[j])] = {pos[k]: res[k] for k in sorted(res)}
        names = [self.names[i] for i in keep]
        return LieAlgebra(len(keep), table, names=names), project

    def _is_ideal(self, s: Subspace):
        return all(
            s.contains(self.bracket_sparse({i: ONE}, v))
            for v in s.rows.values()
            for i in range(self.dim)
        )

    def killing_form(self):
        """Matrix B with B[i][j] = Tr(ad_{e_i} ad_{e_j})."""
        t = self.ad_table

        def trace(i, j):
            # sum over m, k of [e_i, e_m]_k * [e_j, e_k]_m
            return sum(
                (c * t[j].get(k, {}).get(m, ZERO)
                 for m, comps in t[i].items() for k, c in comps.items()),
                ZERO,
            )

        return Matrix([[trace(i, j) for j in range(self.dim)] for i in range(self.dim)])

    def change_basis(self, p: Matrix):
        """Structure constants in the basis of p's columns.  Column j is tagged with
        coordinate n + j in one Subspace: w = sum x_j p_j reduces to -sum x_j e_(n+j).
        [e_a, e_b] reaches [p_i, p_j] only if p_ai, p_bj != 0: no zero pair is formed."""
        n = self.dim
        if (p.rows, p.cols) != (n, n):  # first: rows past n would land on the tag columns
            raise ValueError("change of basis needs an invertible n x n matrix")
        cols = sparse_columns(p)
        tagged = Subspace(2 * n, ({**c, n + j: ONE} for j, c in enumerate(cols)))
        if tagged.pivots != list(range(n)):
            raise ValueError("change of basis needs an invertible n x n matrix")
        occ = [sparse(row).items() for row in p.data]  # row a -> (j, p_aj) over its nonzeros
        images = {}
        for (a, b), comps in self.brackets.items():
            for i, x in occ[a]:
                for j, y in occ[b]:
                    if i != j:
                        f, key = (x * y, (i, j)) if i < j else (-x * y, (j, i))
                        img = images.setdefault(key, {})
                        for k, c in comps.items():
                            img[k] = img.get(k, ZERO) + f * c
        table = {key: {t - n: -r[t] for t in sorted(r)} for key in sorted(images)
                 if (r := tagged.reduce(images[key]))}
        return LieAlgebra(n, table, check=False)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.brackets)})"


def direct_sum(*algebras, names=None):
    dim = sum(g.dim for g in algebras)
    table = {}
    offset = 0
    for g in algebras:
        for (i, j), comps in g.brackets.items():
            table[(i + offset, j + offset)] = {k + offset: c for k, c in comps.items()}
        offset += g.dim
    return LieAlgebra(dim, table, names=names, check=False)


def abelian(dim):
    return LieAlgebra(dim, {})


# --- text format ---
#
#   dim 6
#   names X1 X2 X3 X4 X5 X6
#   bracket 1 2 4 1
#
# means dim 6 with [e_1, e_2] = 1 * e_4.  Indices 1-based, i < j required,
# '#' starts a comment.


def parse_lie(text: str) -> LieAlgebra:
    dim = None
    names = None
    table = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "dim":
            if dim is not None:
                raise ValueError(f"line {lineno}: duplicate dim")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: dim needs one value")
            dim = parse_int(parts[1], "dim", lineno)
            if not 0 <= dim <= DIMENSION_CAP:
                raise ValueError(f"line {lineno}: dim must be between 0 and {DIMENSION_CAP}")
        elif kw == "names":
            names = parts[1:]
        elif kw == "bracket":
            if dim is None:
                raise ValueError(f"line {lineno}: bracket before dim")
            if len(parts) != 5:
                raise ValueError(f"line {lineno}: bracket needs i j k value")
            i, j, k = (parse_int(t, "bracket index", lineno) - 1 for t in parts[1:4])
            if bad := [t + 1 for t in (i, j, k) if not 0 <= t < dim]:
                raise ValueError(f"line {lineno}: bracket index {bad[0]} out of range 1..{dim}")
            if not i < j:
                raise ValueError(f"line {lineno}: need i < j")
            try:
                c = rat(parts[4])
            except ValueError as err:
                raise ValueError(f"line {lineno}: {err}") from None
            entry = table.setdefault((i, j), {})
            if k in entry:
                raise ValueError(f"line {lineno}: duplicate component")
            entry[k] = c
        else:
            raise ValueError(f"line {lineno}: unknown keyword {kw!r}")
    if dim is None:
        raise ValueError("missing dim line")
    return LieAlgebra(dim, table, names=names)


def serialize_lie(g: LieAlgebra) -> str:
    lines = [f"dim {g.dim}", "names " + " ".join(g.names)]
    for (i, j) in sorted(g.brackets):
        for k in sorted(g.brackets[(i, j)]):
            lines.append(f"bracket {i+1} {j+1} {k+1} {fmt(g.brackets[(i, j)][k])}")
    return "\n".join(lines) + "\n"


def load_lie(path) -> LieAlgebra:
    with open(path) as fh:
        return parse_lie(fh.read())


def save_lie(g: LieAlgebra, path):
    with open(path, "w") as fh:
        fh.write(serialize_lie(g))
