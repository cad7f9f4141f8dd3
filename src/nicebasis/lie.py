"""Finite dimensional Lie algebras with exact rational structure constants.

A LieAlgebra is built from one int table: table[i][j] = den * [e_i, e_j] as a
sparse dict {k: int}, for both index orders, den the lcm of the reduced
denominators, and pairs lists the (i, j), i < j, of the nonzero brackets in the
order they were given, unsorted: parse_lie keeps the file's order, direct_sum
its summands'.  check_nice, quotient and serialize_lie sort them; nice.roots and
jacobi_failures keep this order.  The constructor clears each bracket's values
once by linalg._cleared, which refuses floats; the builders (free_nilpotent,
graph_algebra, quotient, change_basis) hand over ints; the one setup puts them
all over one lcm; change_basis checks p invertible (a monomial p is as it stands) for its
core _rebased, which re-indexes the table for a monomial p, else looks up each image that
is a multiple of one column; _witness_basis, whose span proves its p invertible, calls the
core itself.
Every structural routine (central series, the upper one starting at the center,
centralizers, quotients) reads the table; brackets, {(i, j): {k: c}} over Q, is
a view for output (serialize_lie), built when first read.  Indices are 0-based
in code, 1-based in the text format, and checked at construction; the Jacobi
identity is checked by default.
"""

from __future__ import annotations

import functools
import math

from .scalars import Q, ONE, fmt, lines, parse_int, parse_rat
from .linalg import Matrix, Subspace, _cleared, _preimage_chain, _vector, dense, kernel_of


class LieAlgebra:
    def __init__(self, dim, brackets, names=None, check=True):
        self._setup(dim, {key: _cleared(comps, "structure constant")
                          for key, comps in brackets.items()}, 1, names, check)

    @classmethod
    def _from_table(cls, dim, rows, den, names=None, check=False):
        """The algebra that _setup makes of rows and den, for the builders."""
        g = cls.__new__(cls)
        g._setup(dim, rows, den, names, check)
        return g

    def _setup(self, dim, rows, den, names, check):
        """The one setup: [e_i, e_j] = w / (d den) for rows[(i, j)] = (w, d), w a sparse
        int vector, d a nonzero int.  Puts the w over the lcm of the d, checks the
        indices, keeps the nonzero rows as the table, in rows' order, and divides den and
        the entries by their gcd: den is the lcm of the reduced denominators, however
        cleared.  The keys and targets are checked in bulk; only a table that fails is
        scanned row by row, for its first offender in rows' order."""
        ws, ds = zip(*rows.values()) if rows else ((), ())
        lcm = math.lcm(*ds)
        if any(d != lcm for d in ds):  # d may be negative, so lcm == 1 is not enough
            ws = [w if d == lcm else {k: x * (lcm // d) for k, x in w.items()}
                  for w, d in zip(ws, ds)]
        targets = set().union(*ws)
        if not (all(0 <= i < j < dim for i, j in rows)
                and (not targets or 0 <= min(targets) and max(targets) < dim)):
            _refuse(dim, zip(rows, ws))
        den *= lcm
        f = den if den == 1 else math.gcd(den, *[x for w in ws for x in w.values()])
        self.dim, self.den, self.table = dim, den // f, [{} for _ in range(dim)]
        pairs = []
        for (i, j), w in zip(rows, ws):
            if w:
                row = w if f == 1 else {k: x // f for k, x in w.items()}
                self.table[i][j], self.table[j][i] = row, {k: -x for k, x in row.items()}
                pairs.append((i, j))
        self.pairs = tuple(pairs)
        self.names = [f"e{i+1}" for i in range(dim)] if names is None else list(names)
        if isinstance(names, str) or not all(isinstance(x, str) for x in self.names):
            raise ValueError("basis names must be a sequence of strings")
        if len(self.names) != dim:
            raise ValueError("wrong number of basis names")
        if len(set(self.names)) != dim:
            raise ValueError("repeated basis name")
        if check:
            bad = self.jacobi_failures(limit=1)
            if bad:
                i, j, k = bad[0]
                raise ValueError(f"Jacobi identity fails on basis triple ({i+1}, {j+1}, {k+1})")

    @functools.cached_property
    def brackets(self):
        """{(i, j): {k: c}} for i < j, [e_i, e_j] = sum c e_k over Q: the table over
        den, in pairs order.  Read-only; built on first read."""
        t, den = self.table, self.den
        return {(i, j): {k: Q(x, den) for k, x in t[i][j].items()} for i, j in self.pairs}

    # --- bracket evaluation ---

    def bracket_sparse(self, x, y):
        """[x, y] for vectors of ints or Q as _vector takes them, each cleared to ints
        x / dx and y / dy: sum x_i bracket_int(i, y) / (den dx dy), a sparse dict."""
        x, dx = _cleared(_vector(x, self.dim, "the algebra dimension"), "vector entry")
        y, dy = _cleared(_vector(y, self.dim, "the algebra dimension"), "vector entry")
        out = {}
        for i, a in x.items():
            for k, c in self.bracket_int(i, y).items():
                out[k] = out.get(k, 0) + a * c
        return {k: Q(c, self.den * dx * dy) for k, c in out.items() if c}

    def bracket_int(self, i, v):
        """den * [e_i, v] for a sparse vector v of ints or Q, in v's type."""
        row = self.table[i]
        out = {}
        for j in row.keys() & v.keys():
            f = v[j]
            for k, c in row[j].items():
                out[k] = out.get(k, 0) + f * c
        return {k: c for k, c in out.items() if c}

    def bracket(self, x, y):
        """[x, y] for coefficient vectors x, y; returns a dense tuple."""
        return dense(self.bracket_sparse(x, y), self.dim)

    def jacobi_failures(self, limit=None):
        """Basis triples violating the Jacobi identity.

        A triple can fail only if some [[e_x, e_y], e_z] in it is nonzero:
        (x, y) in the bracket support, z in the row of a component of
        [e_x, e_y].  Only those triples are checked, and failures are listed
        in the order of a scan of support pairs against every third index.
        The cyclic sum is read off the int table: it is homogeneous of degree
        2 in the constants, so scaling them all by one factor leaves its zero
        set unchanged.
        """
        iad = self.table
        rank = {pair: n for n, pair in enumerate(self.pairs)}
        reachable = {tuple(sorted((i, j, z))) for i, j in self.pairs
                     for k in iad[i][j] for z in iad[k] if z != i and z != j}
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
        return Subspace(self.dim, (self.table[i][j] for i, j in self.pairs))

    def lower_central_series(self):
        """[g, g^1, g^2, ...] as Subspaces, ending at the first repeat."""
        series = [Subspace(self.dim, ({i: ONE} for i in range(self.dim)))]
        while True:
            prev = series[-1]
            nxt = Subspace(self.dim)
            for v in prev.rows.values():
                for i in range(self.dim):
                    nxt.add(self.bracket_int(i, v))
            series.append(nxt)
            if nxt.dim == prev.dim:
                return series[:-1]
            if nxt.dim == 0:
                return series

    def is_nilpotent(self):
        return self.lower_central_series()[-1].dim == 0

    def upper_central_series(self):
        """[0, Z(g), Z_2(g), ...] ending at the first repeat: Z_(k+1)(g) is the preimage
        {x : [x, e_j] in Z_k(g) for all j} of the int table rows."""
        return _preimage_chain(self.table)

    def centralizer(self, vectors):
        """{x : [x, v] = 0 for all v in vectors} as a Subspace."""
        vs = [_cleared(_vector(v, self.dim, "the algebra dimension"), "vector entry")[0]
              for v in vectors]  # a positive scale of v leaves the kernel as it is
        return kernel_of([
            {(t, k): c for t, v in enumerate(vs)
             for k, c in self.bracket_int(i, v).items()}
            for i in range(self.dim)
        ])

    def quotient(self, ideal: Subspace):
        """Quotient algebra by an ideal: (algebra, project), project mapping an ambient
        vector to its coordinates on the kept indices, those that are no echelon pivot
        of the ideal.  The nonzero brackets of two kept indices, walked by kept i, survive,
        reduced by the int core Subspace._reduce, in key order."""
        if ideal.ambient != self.dim:
            raise ValueError(f"ideal lies in Q^{ideal.ambient}, not Q^{self.dim}")
        if not self._is_ideal(ideal):
            raise ValueError("subspace is not an ideal")
        keep = sorted(set(range(self.dim)).difference(ideal.pivots))
        pos = {orig: t for t, orig in enumerate(keep)}
        residues = {(pos[i], pos[j]): ({pos[k]: x for k, x in w.items()}, d)
                    for i in keep for j in sorted(self.table[i]) if j > i and j in pos
                    for w, d in [ideal._reduce(self.table[i][j])] if w}

        def project(vector):
            w, d = ideal.residue(vector)
            return tuple(Q(w.get(i, 0), d) for i in keep)

        names = [self.names[i] for i in keep]
        return LieAlgebra._from_table(len(keep), residues, self.den, names, check=True), project

    def _is_ideal(self, s: Subspace):
        return all(
            s.contains(self.bracket_int(i, v))
            for v in s.rows.values()
            for i in range(self.dim)
        )

    def killing_form(self):
        """Matrix B with B[i][j] = Tr(ad_{e_i} ad_{e_j})."""
        t = self.table

        def trace(i, j):
            # sum over m, k of [e_i, e_m]_k * [e_j, e_k]_m; both factors carry den
            return Q(sum(c * t[j].get(k, {}).get(m, 0)
                         for m, comps in t[i].items() for k, c in comps.items()), self.den**2)

        return Matrix([[trace(i, j) for j in range(self.dim)] for i in range(self.dim)])

    def change_basis(self, p: Matrix):
        """Structure constants in the basis of p's columns, in ints throughout, by _rebased.
        p must be n x n and invertible: a monomial p, P_j = x_j e_s(j) (P = p.num) with the s(j)
        distinct, is so as it stands; any other is shown so by one int-core elimination of P."""
        n, cols = self.dim, p.num
        monomial = len({a for col in cols if len(col) == 1 for a in col}) == n
        if (p.rows, p.cols) != (n, n) or not (monomial or all(map(Subspace(n)._add, cols))):
            raise ValueError("change of basis needs an invertible n x n matrix")
        return self._rebased(p)

    def _rebased(self, p: Matrix):
        """change_basis for an invertible n x n p = P / D, unchecked.  A monomial p, P_j = x_j
        e_s(j), is re-indexed: for t = s^-1, den [e_a, e_b] goes to (t a, t b) times x_ta x_tb
        and c_k e_k to c_k / x_tk on column t k.  Otherwise den D^2 [p_i, p_j] = den D sum c_k
        P_k, summed over the pairs p_ai p_bj != 0 of the int table, is looked up by its
        primitive form if it is a multiple of one P_k, as in a nice basis, and else reduced
        to -den D sum c_k e_(n+k) in one Subspace of the P_j tagged with n + j."""
        n, cols = self.dim, p.num
        t = {a: j for j, col in enumerate(cols) for a in col if len(col) == 1}
        if len(t) == n:  # each P_j is x_j e_s(j)
            x, rows = [v for col in cols for v in col.values()], {}
            for a, b in self.pairs:
                i, j, comps = t[a], t[b], self.table[a][b]
                f, m = x[i] * x[j] * (1 if i < j else -1), math.lcm(*[x[t[k]] for k in comps])
                row = {t[k]: f * c * (m // x[t[k]]) for k, c in comps.items()}
                rows[min(i, j), max(i, j)] = dict(sorted(row.items())), m
            return LieAlgebra._from_table(n, dict(sorted(rows.items())), self.den * p.den)
        occ = [[] for _ in range(n)]  # occ[a]: the (j, D p_aj) with p_aj != 0, by j
        for j, col in enumerate(cols):
            for a, x in col.items():
                occ[a].append((j, x))
        images = {}
        for a, b in self.pairs:
            comps = self.table[a][b]
            for i, x in occ[a]:
                for j, y in occ[b]:
                    if i != j:
                        f, key = (x * y, (i, j)) if i < j else (-x * y, (j, i))
                        img = images.setdefault(key, {})
                        for k, c in comps.items():
                            img[k] = img.get(k, 0) + f * c
        single = {form: (k, g) for k, col in enumerate(cols) for form, g in [_form(col)]}
        rows, tagged = {}, None
        for key in sorted(images):
            if img := {k: x for k, x in images[key].items() if x}:
                form, h = _form(img)
                if form in single:  # img = h / g P_k; unique, as p is invertible
                    k, g = single[form]
                    rows[key] = {k: h}, g
                else:
                    if tagged is None:
                        tagged = Subspace(2 * n)
                        for j, col in enumerate(cols):
                            tagged._add({**col, n + j: 1})
                    w, d = tagged._reduce(img)
                    rows[key] = {t - n: -w[t] for t in sorted(w)}, d
        return LieAlgebra._from_table(n, rows, self.den * p.den)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.pairs)})"


def _refuse(dim, rows):
    """Raise for the first offending (key, row) of rows: its indices out of range, else
    its keys out of order, else a target out of range."""
    for (i, j), w in rows:
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"bracket index out of range: ({i}, {j})")
        if i >= j:
            raise ValueError(f"bracket keys must have i < j, got ({i}, {j})")
        if bad := [k for k in w if not 0 <= k < dim]:
            raise ValueError(f"bracket target out of range: {bad[0]}")


def _form(v):
    """(form, g), v = g form for a nonzero int vector v and the primitive form > 0 first."""
    g = math.gcd(*v.values()) * (1 if v[min(v)] > 0 else -1)
    return frozenset((k, x // g) for k, x in v.items()), g


def direct_sum(*algebras, names=None):
    den, offset, rows = math.lcm(*[g.den for g in algebras]), 0, {}
    for g in algebras:
        for i, j in g.pairs:
            row = {k + offset: x * (den // g.den) for k, x in g.table[i][j].items()}
            rows[(i + offset, j + offset)] = row, 1
        offset += g.dim
    return LieAlgebra._from_table(offset, rows, den, names)


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
    names = names_line = None
    table = {}
    for lineno, parts in lines(text):
        kw = parts[0]
        if kw == "dim":
            if dim is not None:
                raise ValueError(f"line {lineno}: duplicate dim")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: dim needs one value")
            dim = parse_int(parts[1], "dim", lineno, low=0)
        elif kw == "names":
            if names_line:
                raise ValueError(f"line {lineno}: duplicate names")
            names_line, names = lineno, parts[1:]
            if dup := next((x for i, x in enumerate(names) if x in names[:i]), None):
                raise ValueError(f"line {lineno}: duplicate basis name {dup}")
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
            c = parse_rat(parts[4], lineno)
            entry = table.setdefault((i, j), {})
            if k in entry:
                raise ValueError(f"line {lineno}: duplicate component")
            entry[k] = c
        else:
            raise ValueError(f"line {lineno}: unknown keyword {kw!r}")
    if dim is None:
        raise ValueError("missing dim line")
    if names is not None and len(names) != dim:
        raise ValueError(f"line {names_line}: wrong number of basis names")
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
