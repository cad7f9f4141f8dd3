"""Rational matrices, the sparse echelon core, and rational polynomials.

Matrices are immutable row-major tuples of exact rationals.  Every echelon
computation goes through Subspace, which keeps sparse integer rows in fully
reduced form; that form is canonical, so identical input always yields
identical output, which keeps golden-file tests stable.  Polynomials are
stored dense, lowest degree first; their roots are found on integer
coefficient lists (primitive pseudo-remainders, integer Sturm chains).
"""

from __future__ import annotations

import itertools
import math

from .scalars import Q, ZERO, ONE, factor_int, fmt


class Matrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries):
        data = tuple(
            tuple([x if isinstance(x, Q) else Q(x) for x in row]) for row in entries
        )
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @staticmethod
    def zeros(rows, cols):
        return Matrix([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n):
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(values):
        vals = [Q(v) for v in values]
        n = len(vals)
        return Matrix([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(columns):
        cols = [list(c) for c in columns]
        n = len(cols[0])
        return Matrix([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return "Matrix([%s])" % ", ".join(
            "[%s]" % ", ".join(fmt(x) for x in row) for row in self.data
        )

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            bt = list(zip(*other.data))
            return Matrix(
                [[_dot(row, col) for col in bt] for row in self.data]
            )
        return Matrix([[a * Q(other) for a in row] for row in self.data])

    __rmul__ = __mul__

    def __neg__(self):
        return self * Q(-1)

    def __pow__(self, k):
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def transpose(self):
        return Matrix(list(zip(*self.data))) if self.data else self

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def row(self, i):
        return self.data[i]

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def is_square(self):
        return self.rows == self.cols

    def apply(self, vector):
        """Matrix-vector product as a tuple."""
        v = [Q(x) for x in vector]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(_dot(row, v) for row in self.data)

    def det(self):
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        return (-1) ** self.rows * char_poly(self).coeffs[0]

    def inverse(self):
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = Subspace(2 * n, ({**sparse(row), n + i: ONE} for i, row in enumerate(self.data)))
        if aug.pivots != list(range(n)):
            raise ValueError("singular matrix")
        return Matrix([[aug.rows[i].get(n + j, ZERO) for j in range(n)] for i in range(n)])


def _dot(a, b):
    s = ZERO
    for x, y in zip(a, b):
        if x and y:
            s += x * y
    return s


def sparse(vector):
    """Nonzero entries of a dense vector as a {index: value} dict."""
    return {i: x for i, x in enumerate(vector) if x}


def dense(vec, n):
    """Dense tuple of length n from a sparse {index: value} dict."""
    return tuple(vec.get(i, ZERO) for i in range(n))


def sparse_columns(m: Matrix):
    """m's columns as sparse dicts, the operand of apply_columns."""
    return [sparse(c) for c in zip(*m.data)]  # a Matrix with no rows has no columns


def apply_columns(cols, vec):
    """m vec as a sparse dict, for cols = sparse_columns(m) and sparse vec.

    Costs one multiply per nonzero of the columns vec selects, where
    Matrix.apply costs rows x cols.
    """
    out = {}
    for j, x in vec.items():
        for i, y in cols[j].items():
            s = out.get(i, ZERO) + x * y
            if s:
                out[i] = s
            else:
                del out[i]
    return out


class Subspace:
    """Span of vectors in Q^ambient, kept in fully reduced echelon form.

    Inside, each row is a primitive integer vector {col: int}: its entries
    have gcd 1, its pivot entry is positive, and every other pivot column is
    zero in it.  Divided by its pivot entry it is a row of the unique reduced
    row echelon form of the span, so the rows are canonical.  Elimination is
    fraction-free (v <- a v - f row, then division by the gcd content, the
    simplest form of Bareiss, Math. Comp. 1968); a vector, dense (a sequence
    of length ambient) or sparse (a dict), is scaled to integers once by the
    lcm of its denominators, so its entries must be ints or Q.  Q appears
    only at the boundary: rows, reduce, basis and the kernels.

    _occ is the column index of the rows: it maps each non-pivot column to
    the set of pivots whose row is nonzero there, so a new pivot is
    eliminated from exactly the rows that hold it.
    """

    __slots__ = ("ambient", "_rows", "_occ", "_view")

    def __init__(self, ambient, vectors=()):
        self.ambient = ambient
        self._rows = {}
        self._occ = {}
        self._view = None
        for v in vectors:
            self.add(v)

    def copy(self):
        """An independent Subspace with the same rows, built without arithmetic."""
        s = Subspace(self.ambient)
        s._rows = {p: dict(row) for p, row in self._rows.items()}
        s._occ = {c: set(holders) for c, holders in self._occ.items()}
        s._view = self._view
        return s

    @property
    def rows(self):
        """The reduced rows over Q, {pivot: {col: value}} with pivot entry 1.

        Read-only; built on first use after the span last grew.
        """
        if self._view is None:
            self._view = {
                p: {c: Q(x, row[p]) for c, x in row.items()} for p, row in self._rows.items()
            }
        return self._view

    def _entries(self, vector):
        """The (col, value) pairs of a dense or sparse vector."""
        if isinstance(vector, dict):
            return vector.items()
        if len(vector) == self.ambient:
            return enumerate(vector)
        raise ValueError("vector length mismatch")

    def _residue(self, v, hits):
        """(w, den): the residue of v modulo the span is w / den, w integer.

        v maps columns to nonzero ints or Q, and hits lists its pivot
        columns.  Rows vanish on each other's pivots, so one pass over the
        hits clears them all and creates no new ones.
        """
        den = math.lcm(*[x.denominator for x in v.values()])
        if den == 1:
            w = {c: x.numerator for c, x in v.items()}
        else:
            w = {c: x.numerator * (den // x.denominator) for c, x in v.items()}
        rows = self._rows
        for p in hits:
            row = rows[p]
            a, f = row[p], w.pop(p)
            if a != 1:
                g = math.gcd(a, f)
                a, f = a // g, f // g
                if a != 1:
                    den *= a
                    for c in w:
                        w[c] *= a
            for c, x in row.items():
                if c != p:
                    y = w.get(c, 0) - f * x
                    if y:
                        w[c] = y
                    else:
                        del w[c]
        return w, den

    def reduce(self, vector):
        """Residue of vector modulo the span, sparse over Q (empty iff contained)."""
        # the hot call of graph_algebra's projections, mostly on vectors that
        # hold no pivot: a dict skips _entries, and Q(x) skips Q(x, 1)'s gcd
        if isinstance(vector, dict):
            items = vector.items()
        else:
            items = self._entries(vector)
        v = {c: x if isinstance(x, Q) else Q(x) for c, x in items if x}
        rows = self._rows
        hits = [c for c in v if c in rows]
        if not hits:
            return v
        w, den = self._residue(v, hits)
        if den == 1:
            return {c: Q(x) for c, x in w.items()}
        return {c: Q(x, den) for c, x in w.items()}

    def add(self, vector):
        """Add a vector to the span; returns True if the dimension grew."""
        v = {c: x for c, x in self._entries(vector) if x}
        rows = self._rows
        w, _ = self._residue(v, [c for c in v if c in rows])
        if not w:
            return False
        p = min(w)
        g = math.gcd(*w.values())
        if w[p] < 0:
            g = -g
        if g != 1:
            w = {c: x // g for c, x in w.items()}
        a = w[p]
        occ = self._occ
        for q in occ.pop(p, ()):
            row = rows[q]
            f = row.pop(p)
            if a != 1:
                g = math.gcd(a, f)
                m, f = a // g, f // g
                if m != 1:
                    for c in row:
                        row[c] *= m
            for c, x in w.items():
                if c == p:
                    continue
                y = row.get(c, 0) - f * x
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
            # the content divides the pivot entry, so a pivot of 1 means none
            if row[q] != 1:
                g = math.gcd(*row.values())
                if g != 1:
                    for c in row:
                        row[c] //= g
        for c in w:
            if c != p:
                occ.setdefault(c, set()).add(p)
        rows[p] = w
        self._view = None
        return True

    def contains(self, vector):
        return not self.reduce(vector)

    @property
    def dim(self):
        return len(self._rows)

    @property
    def pivots(self):
        return sorted(self._rows)

    def basis(self):
        """The reduced rows as dense tuples, by increasing pivot."""
        rows = self.rows
        return [dense(rows[p], self.ambient) for p in self.pivots]

    def kernel(self):
        """Canonical basis of {x : row . x = 0 for every row}, dense.

        One vector per free (non-pivot) column f, ordered by f, with x_f = 1
        and x_p = -row_p[f] on the pivots (row_p scaled to pivot entry 1).
        """
        return [dense(v, self.ambient) for v in self.sparse_kernel()]

    def sparse_kernel(self):
        """kernel() as sparse dicts, each keyed by increasing pivot, then f.

        The pivots p with row_p[f] != 0 are read off the column index, and
        all lie below f.
        """
        rows, occ = self._rows, self._occ
        out = []
        for f in range(self.ambient):
            if f not in rows:
                v = {p: Q(-rows[p][f], rows[p][p]) for p in sorted(occ.get(f, ()))}
                v[f] = ONE
                out.append(v)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim} in R^{self.ambient})"


def nullspace(m: Matrix):
    """Canonical kernel basis of m (column vectors as tuples)."""
    return Subspace(m.cols, m.data).kernel()


def solve(m: Matrix, rhs):
    """One exact solution of m x = rhs, or None if inconsistent."""
    n = m.cols
    aug = Subspace(n + 1, ({**sparse(row), n: Q(b)} for row, b in zip(m.data, rhs)))
    if n in aug.rows:
        return None
    x = [ZERO] * n
    for p, row in aug.rows.items():
        x[p] = row.get(n, ZERO)
    return tuple(x)


def kernel_of(images) -> Subspace:
    """Subspace of x in Q^len(images) with sum_i x_i * images[i] = 0.

    images[i] is a sparse dict over any hashable coordinates; one equation
    per coordinate.
    """
    eqs = {}
    for i, img in enumerate(images):
        for r, c in img.items():
            eqs.setdefault(r, {})[i] = c
    n = len(images)
    return Subspace(n, Subspace(n, eqs.values()).sparse_kernel())


def kernel_chain(m: Matrix):
    """[0, ker m, ker m^2, ...] as Subspaces, ending at the first repeat.

    ker m^(k+1) is the preimage of ker m^k: the x whose image sum_j x_j m_j
    reduces to zero modulo ker m^k.  Reducing the sparse columns m_j once
    per term gives its equations, so no power of m is formed.
    """
    if not m.is_square():
        raise ValueError("kernel chain of non-square matrix")
    cols = sparse_columns(m)
    chain = [Subspace(m.rows)]
    while True:
        nxt = kernel_of([chain[-1].reduce(c) for c in cols])
        if nxt.dim == chain[-1].dim:
            return chain
        chain.append(nxt)


def char_poly(m: Matrix) -> "Poly":
    """Characteristic polynomial det(xI - m), monic, in O(n^3) for every m.

    m is brought to upper Hessenberg form h by exact similarity, each row
    operation paired with the inverse column operation; the leading
    principal minors of xI - h then follow a recurrence (Cohen, A Course in
    Computational Algebraic Number Theory, 2.2).
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    h = [list(row) for row in m.data]
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k]), None)
        if piv is None:
            continue
        h[piv], h[k + 1] = h[k + 1], h[piv]
        for row in h:
            row[piv], row[k + 1] = row[k + 1], row[piv]
        top = h[k + 1]
        for i in range(k + 2, n):
            f = h[i][k] / top[k]
            if not f:
                continue
            # row_i -= f * row_{k+1}, then col_{k+1} += f * col_i
            for j in range(k, n):
                if top[j]:
                    h[i][j] -= f * top[j]
            for row in h:
                if row[i]:
                    row[k + 1] += f * row[i]
    ps = [Poly([ONE])]
    for k in range(1, n + 1):
        p = Poly([-h[k - 1][k - 1], ONE]) * ps[k - 1]
        prod = ONE
        for i in range(k - 1, 0, -1):
            prod *= h[i][i - 1]
            if prod == 0:
                break
            if h[i - 1][k - 1] != 0:
                p = p - ps[i - 1] * (prod * h[i - 1][k - 1])
        ps.append(p)
    return ps[n]


def is_positive_definite(m: Matrix) -> bool:
    """Is the symmetric matrix m positive definite?

    A symmetric matrix has only real eigenvalues, so by Descartes' rule of
    signs they are all positive exactly when the coefficients of char_poly(m)
    strictly alternate in sign.  Raises ValueError if m is not symmetric.
    """
    if m != m.transpose():
        raise ValueError("definiteness of a non-symmetric matrix")
    n = m.rows
    return all(c * (-1) ** (n - k) > 0 for k, c in enumerate(char_poly(m).coeffs))


def is_nilpotent(m: Matrix):
    """(nilpotent?, index) read off kernel_chain(m).

    index is the least k at which ker m^k stops growing; for nilpotent m
    that is the least k with m**k = 0.
    """
    chain = kernel_chain(m)
    return chain[-1].dim == m.rows, len(chain) - 1


class Poly:
    """Univariate polynomial over the rationals, coefficients lowest first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Q) else Q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def binomial(degree, constant):
        """x**degree - constant (the constant 1 - constant at degree 0)."""
        cs = [-Q(constant)] + [ZERO] * degree
        cs[degree] += ONE
        return Poly(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(fmt(c))
            else:
                xk = "x" if k == 1 else f"x^{k}"
                terms.append(xk if c == 1 else f"{fmt(c)}*{xk}")
        return "Poly(%s)" % " + ".join(terms)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly([(a[i] if i < len(a) else ZERO) + (b[i] if i < len(b) else ZERO) for i in range(n)])

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly([(a[i] if i < len(a) else ZERO) - (b[i] if i < len(b) else ZERO) for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly([])
            out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
            return Poly(out)
        return Poly([c * Q(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __neg__(self):
        return self * Q(-1)

    def derivative(self):
        return Poly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])

    def divmod(self, other):
        """(quotient, remainder) with deg(remainder) < deg(other)."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        q = [ZERO] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.coeffs[-1]
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k] == 0:
                continue
            f = rem[k] / lead
            q[k - d] = f
            for j, b in enumerate(other.coeffs):
                rem[k - d + j] -= f * b
        return Poly(q), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly([])
    return ((a * b) // poly_gcd(a, b)).monic()


def primitive(coeffs) -> list:
    """The primitive integer multiple of rational coefficients, lowest first:
    denominators cleared and the content divided out, sign kept; [] for 0."""
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    den = math.lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = math.gcd(*ints) or 1
    return [x // g for x in ints]


def int_prem(a, b) -> list:
    """Primitive part of the remainder of |lc(b)|^k a by b (int lists, b
    nonzero): a positive multiple of a mod b, so its signs are kept."""
    r, n, scale = list(a), len(b) - 1, abs(b[-1])
    while len(r) > n:
        f = r.pop() if b[-1] > 0 else -r.pop()
        if f:
            off = len(r) - n
            if scale != 1:
                r = [scale * x for x in r]
            for j in range(n):
                r[off + j] -= f * b[j]
    return primitive(r)


def int_gcd(a, b) -> list:
    """Primitive gcd, up to sign, of two polynomials (rational or int
    coefficients, lowest first) by the primitive remainder sequence."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, int_prem(a, b)
    return a


def _deflate(c, num, den):
    """c / (den x - num) if exact in Z[x], which for coprime num, den (by
    Gauss's lemma) is when num/den is a root; else None, at the first
    inexact step."""
    q, acc = [0] * (len(c) - 1), 0
    for k in range(len(c) - 1, 0, -1):
        acc, rem = divmod(c[k] + num * acc, den)
        if rem:
            return None
        q[k - 1] = acc
    return q if c[0] + num * acc == 0 else None


def rational_roots(p: Poly):
    """All rational roots of p with multiplicities, as [(root, mult)].

    With denominators cleared, the candidates are ±num/den for num | a_0 and
    den | a_n, num outermost; each is tested and divided out by exact integer
    synthetic division by den·x - num.  Sorted by denominator, then value.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root set")
    scale = math.lcm(*(x.denominator for x in p.coeffs))
    c = [x.numerator * (scale // x.denominator) for x in p.coeffs]
    k = next(i for i, x in enumerate(c) if x)  # x^k: the root 0
    roots, c = [(ZERO, k)] if k else [], c[k:]
    if len(c) > 1:
        for num, den, s in itertools.product(_divisors(c[0]), _divisors(c[-1]), (1, -1)):
            if len(c) == 1:
                break
            mult = 0
            while (q := _deflate(c, s * num, den)) is not None:
                c, mult = q, mult + 1
            if mult:
                roots.append((Q(s * num, den), mult))
    roots.sort(key=lambda t: (t[0].denominator, t[0]))
    return roots


def count_real_roots(p: Poly) -> int:
    """Number of distinct real roots of p, by Sturm's theorem in integers:
    the squarefree part (through int_gcd with p'), its derivative, then
    negated sign-preserving pseudo-remainders down to a constant; the count
    is the sign variations at -inf less those at +inf."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    c, g = primitive(p.coeffs), int_gcd(p.coeffs, p.derivative().coeffs)
    if len(g) > 1:  # exact: c and g are primitive, so c / g is in Z[x]
        r, n, c = c, len(g) - 1, [0] * (len(c) - len(g) + 1)
        for k in range(len(c) - 1, -1, -1):
            c[k] = r[k + n] // g[-1]
            for j in range(n):
                r[k + j] -= c[k] * g[j]
    chain = [c, [k * x for k, x in enumerate(c) if k]]
    while len(chain[-1]) > 1:
        chain.append([-x for x in int_prem(chain[-2], chain[-1])])
    signs = [(q[-1] > 0, (q[-1] > 0) == (len(q) % 2 == 1)) for q in chain if q]
    return sum((m != m2) - (s != s2) for (s, m), (s2, m2) in zip(signs, signs[1:]))


def minimal_polynomial(m: Matrix) -> Poly:
    """Monic minimal polynomial: lcm of the local ones of the unit vectors.

    The Krylov vectors v_k = m^k e_i, each stepped from the last through m's
    sparse columns, go into one Subspace, each tagged with a tracking
    coordinate n + k.  The first v_k whose residue vanishes on
    the first n coordinates depends on v_0..v_(k-1), and the residue's
    tracking coordinates are the coefficients of the monic local minimal
    polynomial of e_i, x^k included.
    """
    if not m.is_square():
        raise ValueError("minimal polynomial of non-square matrix")
    n = m.rows
    cols = sparse_columns(m)
    result = Poly([ONE])
    for i in range(n):
        krylov = Subspace(2 * n + 1)
        v = {i: ONE}
        k = 0
        while True:
            r = krylov.reduce({**v, n + k: ONE})
            if min(r) >= n:
                break
            krylov.add(r)
            v = apply_columns(cols, v)
            k += 1
        result = poly_lcm(result, Poly([r.get(n + j, ZERO) for j in range(k + 1)]))
        if result.degree == n:
            break
    return result


def similar(a: Matrix, b: Matrix):
    """Exact rational similarity test: True, False or None (unknown).

    Beyond equal characteristic and minimal polynomials, a and b must have
    the same kernel-chain dimensions of m - root for every rational root;
    those count the Jordan blocks of each size.  That is complete when the
    rational roots make up the whole spectrum, and for size <= 3 (where the
    two polynomials pin down the invariant factors); otherwise a pass is
    reported as None.
    """
    if a.rows != b.rows or not a.is_square() or not b.is_square():
        return False
    phi = char_poly(a)
    if phi != char_poly(b) or minimal_polynomial(a) != minimal_polynomial(b):
        return False
    n = a.rows
    roots = rational_roots(phi)
    for root, _ in roots:
        shift = Matrix.identity(n) * root
        dims_a = [k.dim for k in kernel_chain(a - shift)]
        if dims_a != [k.dim for k in kernel_chain(b - shift)]:
            return False
    if n <= 3 or sum(mult for _, mult in roots) == n:
        return True
    return None


def _divisors(n):
    """Sorted positive divisors of |n| ([1] for 0), from factor_int."""
    n = abs(int(n))
    if n == 0:
        return [1]
    out = [1]
    for p, e in factor_int(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


# --- integer linear systems (used by the monomial-equivalence search) ---


def smith_normal_form(a):
    """Smith normal form of an integer matrix.

    Returns (d, u, v) with u*a*v = d, u and v unimodular, d diagonal with
    d[i][i] | d[i+1][i+1].  Plain lists of ints; sizes here are tiny.
    """
    a = [list(map(int, row)) for row in a]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    def diagonalize():
        t = 0
        while t < min(m, n):
            piv = None
            for i in range(t, m):
                for j in range(t, n):
                    if a[i][j] != 0:
                        piv = (i, j)
                        break
                if piv:
                    break
            if piv is None:
                break
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            while True:
                done = True
                for i in range(t + 1, m):
                    if a[i][t] % a[t][t] != 0:
                        add_row(t, i, -(a[i][t] // a[t][t]))
                        swap_rows(t, i)
                        done = False
                    elif a[i][t] != 0:
                        add_row(t, i, -(a[i][t] // a[t][t]))
                for j in range(t + 1, n):
                    if a[t][j] % a[t][t] != 0:
                        add_col(t, j, -(a[t][j] // a[t][t]))
                        swap_cols(t, j)
                        done = False
                    elif a[t][j] != 0:
                        add_col(t, j, -(a[t][j] // a[t][t]))
                if done and all(a[i][t] == 0 for i in range(t + 1, m)) and all(
                    a[t][j] == 0 for j in range(t + 1, n)
                ):
                    break
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            t += 1
        return t

    while True:
        t = diagonalize()
        fixed = True
        for i in range(t - 1):
            if a[i + 1][i + 1] % a[i][i] != 0:
                add_col(i + 1, i, 1)
                fixed = False
                break
        if fixed:
            break
    return a, u, v


def solve_integer_system(a, b):
    """One integer solution x of a x = b, or None.

    a: list of integer rows, b: integer vector.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0:
        return [0] * n
    d, u, v = smith_normal_form(a)
    c = [sum(u[i][k] * int(b[k]) for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(min(m, n)):
        dii = d[i][i]
        if dii == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % dii != 0:
                return None
            y[i] = c[i] // dii
    for i in range(min(m, n), m):
        if c[i] != 0:
            return None
    return [sum(v[i][k] * y[k] for k in range(n)) for i in range(n)]


def solve_gf2_system(rows, b):
    """One solution over GF(2) of rows . x = b, or None."""
    rows = [list(r) + [bb] for r, bb in zip(rows, b)]
    n = len(rows[0]) - 1 if rows else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][-1]:
            return None
    x = [0] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][-1]
    return x
