"""Finite dimensional Lie algebras with exact rational structure constants.

A LieAlgebra stores its bracket table sparsely: brackets[(i, j)] for i < j is
a dict {k: c} meaning [e_i, e_j] = sum c * e_k.  ad_table[i][j] holds the
same dict for both index orders, and every structural routine evaluates
brackets of sparse {index: coefficient} vectors through it.  Indices are
0-based in code; the text file format is 1-based.  The Jacobi identity and
antisymmetry are enforced at construction time.
"""

from __future__ import annotations

from .scalars import Q, ZERO, ONE, rat, fmt
from .linalg import Matrix, Subspace, dense, sparse


class LieAlgebra:
    def __init__(self, dim, brackets, names=None, check=True):
        self.dim = dim
        table = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index out of range: ({i}, {j})")
            if i >= j:
                raise ValueError(f"bracket keys must have i < j, got ({i}, {j})")
            clean = {k: Q(c) for k, c in comps.items() if Q(c) != 0}
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

        Only triples whose first two slots touch the bracket support can
        fail, so we iterate support pairs against every third index instead
        of all dim**3 triples, working on sparse components throughout.
        """

        def double(i, j, m):
            # [[e_i, e_j], e_m] as a sparse dict
            out = {}
            for k, c in self.bracket_basis(i, j).items():
                for t, d in self.bracket_basis(k, m).items():
                    out[t] = out.get(t, ZERO) + c * d
            return out

        seen = set()
        bad = []
        for (i, j) in self.brackets:
            for m in range(self.dim):
                trip = tuple(sorted((i, j, m)))
                if len(set(trip)) < 3 or trip in seen:
                    continue
                seen.add(trip)
                a, b, c = trip
                total = double(a, b, c)
                for t, d in double(b, c, a).items():
                    total[t] = total.get(t, ZERO) + d
                for t, d in double(c, a, b).items():
                    total[t] = total.get(t, ZERO) + d
                if any(x != 0 for x in total.values()):
                    bad.append(trip)
                    if limit and len(bad) >= limit:
                        return bad
        return bad

    # --- structural subspaces ---

    def _kernel(self, images):
        """Subspace of x with sum_i x_i * images[i] = 0.

        images[i] is a sparse dict over any hashable coordinates; one
        equation per coordinate.
        """
        eqs = {}
        for i, img in enumerate(images):
            for r, c in img.items():
                eqs.setdefault(r, {})[i] = c
        return Subspace(self.dim, Subspace(self.dim, eqs.values()).kernel())

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
        return self._kernel([
            {(j, k): c for j, comps in row.items() for k, c in z.reduce(comps).items()}
            for row in self.ad_table
        ])

    def centralizer(self, vectors):
        """{x : [x, v] = 0 for all v in vectors} as a Subspace."""
        vs = [v if isinstance(v, dict) else sparse(v) for v in vectors]
        return self._kernel([
            {(t, k): c for t, v in enumerate(vs)
             for k, c in self.bracket_sparse({i: ONE}, v).items()}
            for i in range(self.dim)
        ])

    def ideal_closure(self, vectors):
        """Smallest ideal containing the given vectors."""
        s = Subspace(self.dim, vectors)
        queue = [dict(row) for row in s.rows.values()]
        while queue:
            v = queue.pop()
            for i in range(self.dim):
                w = self.bracket_sparse({i: ONE}, v)
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
        keep = [i for i in range(self.dim) if i not in ideal.rows]
        pos = {orig: t for t, orig in enumerate(keep)}

        def project(vector):
            res = ideal.reduce(vector)
            return tuple(res.get(i, ZERO) for i in keep)

        table = {}
        for a, i in enumerate(keep):
            for b in range(a + 1, len(keep)):
                res = ideal.reduce(self.ad_table[i].get(keep[b], {}))
                if res:
                    table[(a, b)] = {pos[k]: res[k] for k in sorted(res)}
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
        """Structure constants in the basis given by the columns of p."""
        n = self.dim
        cols = [sparse(p.column(j)) for j in range(n)]
        pinv = [sparse(col) for col in zip(*p.inverse().data)]
        table = {}
        for i in range(n):
            for j in range(i + 1, n):
                w = {}
                for k, x in self.bracket_sparse(cols[i], cols[j]).items():
                    for t, y in pinv[k].items():
                        w[t] = w.get(t, ZERO) + x * y
                entry = {t: w[t] for t in sorted(w) if w[t]}
                if entry:
                    table[(i, j)] = entry
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
            dim = int(parts[1])
        elif kw == "names":
            names = parts[1:]
        elif kw == "bracket":
            if dim is None:
                raise ValueError(f"line {lineno}: bracket before dim")
            if len(parts) != 5:
                raise ValueError(f"line {lineno}: bracket needs i j k value")
            i, j, k = int(parts[1]) - 1, int(parts[2]) - 1, int(parts[3]) - 1
            if not i < j:
                raise ValueError(f"line {lineno}: need i < j")
            c = rat(parts[4])
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
