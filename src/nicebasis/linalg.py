"""Rational matrices, the sparse echelon core, and rational polynomials.

A Matrix is immutable and kept as int sparse columns over one denominator,
which products, kernels, Krylov steps and apply read; its Fraction views are
built when read.  Values enter the integer core by two rules, also for lie and
derivations: _cleared puts ints or Fractions over their lcm, refusing floats
and anything else, and _vector reads a dense or sparse vector of a length, as
each column of from_columns.  Every elimination over Q goes through Subspace,
which keeps sparse integer rows in fully reduced form; that form is canonical,
so identical input always yields identical output, which keeps golden-file
tests stable.  The characteristic and minimal polynomials are read off tagged
int Krylov vectors in a Subspace, as the primitive int list that a Poly keeps
beside its Fractions.  Polynomial work runs on int coefficient lists (products,
exact quotients by the one division _divide, almost_abelian's walk included,
primitive pseudo-remainders, and one Sturm chain, read by _int_roots for real roots and by
_radical for the squarefree part).  The one elimination over Z, solve_integer_system
(extended-gcd column echelon form), solves the scale exponents of monomial equivalence.
"""

from __future__ import annotations

import functools
import itertools
import math

from .scalars import Q, ZERO, _exact, fmt


class Matrix:
    """Immutable rational matrix, kept as int sparse columns over one denominator,
    as LieAlgebra keeps table and den: num[j] is den times column j, a dict {row:
    int} without zeros, den > 0 the least such, so equal matrices store alike.
    columns (over Q), data (dense rows) and m[i, j] are read-only Fraction views,
    built on first read; rows and cols keep the shape, n x 0 and 0 x n included.
    Entries and scalars are ints (bools included) or Fractions, else ValueError.
    """

    __slots__ = ("rows", "cols", "num", "den", "_columns", "_data")

    def __init__(self, entries):
        rows = [list(row) for row in entries]
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged matrix")
        self._set(len(rows), *_split(enumerate(col) for col in zip(*rows)))

    def _set(self, rows, num, den):  # the one setup: num / den, the common factor divided out
        g = den if den == 1 else math.gcd(den, *[x for c in num for x in c.values()])
        if g != 1:
            num, den = [{i: x // g for i, x in c.items()} for c in num], den // g
        self.rows, self.cols, self.num, self.den = rows, len(num), tuple(num), den
        self._columns = self._data = None

    @staticmethod
    def _of(rows, num, den=1):
        m = Matrix.__new__(Matrix)
        m._set(rows, num, den)
        return m

    @staticmethod
    def zeros(rows, cols):
        return Matrix._of(rows, [{} for _ in range(cols)])

    @staticmethod
    def identity(n):
        return Matrix._of(n, [{i: 1} for i in range(n)])

    @staticmethod
    def diagonal(values):
        return Matrix._of(len(values), *_split([(i, v)] for i, v in enumerate(values)))

    @staticmethod
    def from_columns(columns, rows=None):
        """The matrix with these columns, each read by _vector: dense sequences or
        sparse {row: value} dicts; rows defaults to the first dense column's length, or 0."""
        columns = list(columns)
        if rows is None:
            rows = next((len(c) for c in columns if not isinstance(c, dict)), 0)
        return Matrix._of(rows, *_split(_vector(c, rows, "the row count").items()
                                        for c in columns))

    @property
    def columns(self):
        if self._columns is None:
            self._columns = tuple({i: Q(x, self.den) for i, x in c.items()} for c in self.num)
        return self._columns

    @property
    def data(self):
        if self._data is None:
            cols = self.columns
            self._data = tuple(tuple(c.get(i, ZERO) for c in cols) for i in range(self.rows))
        return self._data

    def __getitem__(self, ij):
        i, j = ij
        return self.columns[j].get(range(self.rows)[i], ZERO)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.rows, self.den, tuple(frozenset(c.items()) for c in self.num)))

    def __repr__(self):
        return "Matrix([%s])" % ", ".join("[%s]" % ", ".join(map(fmt, r)) for r in self.data)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        d, pairs = math.lcm(self.den, other.den), zip(self.num, other.num)
        return Matrix._of(self.rows, [apply_columns(ab, {0: d // self.den, 1: d // other.den})
                                      for ab in pairs], d)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            return Matrix._of(self.rows, [apply_columns(self.num, c) for c in other.num],
                              self.den * other.den)
        _exact(other, "matrix scalar")
        return Matrix._of(self.rows, [{i: x * other.numerator for i, x in c.items()} if other
                                      else {} for c in self.num], self.den * other.denominator)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def transpose(self):
        out = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.num):
            for i, x in col.items():
                out[i][j] = x
        return Matrix._of(self.cols, out, self.den)

    def is_square(self):
        return self.rows == self.cols

    def apply(self, vector):
        """Matrix-vector product as a tuple, for a vector as _vector takes it."""
        v, d = _cleared(_vector(vector, self.cols, "the column count"), "vector entry")
        w, d = apply_columns(self.num, v), d * self.den
        return tuple(Q(w.get(i, 0), d) for i in range(self.rows))

    def det(self):
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        return (-1) ** self.rows * char_poly(self).coeffs[0]

    def inverse(self):
        """den N^-1 for N / den: [N | I] reduces to [I | N^-1], row i times a_i."""
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n, rows = self.rows, self.transpose().num
        aug = Subspace(2 * n, ({**row, n + i: 1} for i, row in enumerate(rows)))
        if aug.pivots != list(range(n)):
            raise ValueError("singular matrix")
        d = math.lcm(*[aug.rows[i][i] for i in range(n)])
        return Matrix._of(n, [{j - n: x * self.den * (d // aug.rows[i][i]) for j, x in
                               aug.rows[i].items() if j >= n} for i in range(n)], d).transpose()


def _cleared(values, what):
    """(w, den): the nonzero values of a dict of ints (bools included) or Fractions as ints
    w[k] = den values[k] over their lcm den, the one place that clears; else _exact's error."""
    types = {*map(type, values.values())}
    if types <= {int}:  # nothing to clear, as in most calls
        return {k: x for k, x in values.items() if x}, 1
    if not types <= {int, bool, Q}:  # _exact refuses the first value of another type
        for x in values.values():
            _exact(x, what)
    den = math.lcm(*[x.denominator for x in values.values()])
    return {k: x.numerator * (den // x.denominator) for k, x in values.items() if x}, den


def _vector(x, n, what):
    """x, a sequence of length n or a sparse {index: value} dict with indices in 0..n-1,
    as a dict, zeros kept; else ValueError, what naming n."""
    if not isinstance(x, dict):
        if len(x) != n:
            raise ValueError(f"vector has {len(x)} entries, {what} {n}")
        return dict(enumerate(x))
    if x and not (0 <= min(x) and max(x) < n):
        bad = next(i for i in x if not 0 <= i < n)
        raise ValueError(f"vector index {bad} out of range {f'0..{n - 1}' if n else '(empty)'}")
    return x


def _split(columns):
    """(num, den) of columns of (row, value) pairs, values ints or Fractions: each
    column cleared by _cleared, then all put over the lcm of their denominators."""
    cols = [_cleared(dict(col), "matrix entry") for col in columns]
    den = math.lcm(*[d for _, d in cols])
    return [w if d == den else {i: x * (den // d) for i, x in w.items()} for w, d in cols], den


def dense(vec, n):
    """Dense tuple of length n from a sparse {index: value} dict."""
    return tuple(vec.get(i, ZERO) for i in range(n))


def apply_columns(cols, vec):
    """m vec as a sparse dict with no zeros, for cols = m.columns (m.num: den m vec, in
    ints) and a sparse vec: one multiply per nonzero of the columns vec selects."""
    out = {}
    for j, x in vec.items():
        if x:
            for i, y in cols[j].items():
                s = out.get(i, 0) + x * y
                if s:
                    out[i] = s
                else:
                    del out[i]
    return out


class Subspace:
    """Span of vectors in Q^ambient, kept in fully reduced echelon form.

    rows maps each pivot to a primitive integer vector {col: int}: its entries
    have gcd 1, its pivot entry is positive, and every other pivot column is
    zero in it.  Divided by its pivot entry it is a row of the unique reduced
    row echelon form of the span, so the rows are canonical; read-only.
    Elimination is fraction-free (v <- a v - f row, then division by the gcd
    content, the simplest form of Bareiss, Math. Comp. 1968); a vector, dense
    (a sequence of length ambient) or sparse (a dict), is scaled to integers
    once by the lcm of its denominators, so its entries must be ints or Q, and
    a sparse index must lie in 0..ambient-1, else ValueError.  Those doors, residue and add,
    call the int cores _reduce and _add, which builders call on the int vectors they hold.
    A Subspace makes no Fraction.
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient, vectors=()):
        self.ambient = ambient
        self.rows = {}
        for v in vectors:
            self.add(v)

    def copy(self):
        """An independent Subspace with the same rows, built without arithmetic."""
        s = Subspace(self.ambient)
        s.rows = {p: dict(row) for p, row in self.rows.items()}
        return s

    def residue(self, vector):
        """(w, d), the unique residue of vector modulo the span as w / d: w a sparse
        dict of nonzero ints (empty iff contained), d a positive int; the door that
        reads and clears the vector once (_vector, _cleared) for the core _reduce."""
        w, den = _cleared(_vector(vector, self.ambient, "the ambient dimension"), "vector entry")
        w, d = self._reduce(w)
        return w, den * d

    def _reduce(self, v):
        """The int core of residue: (w, d) for v a dict of nonzero ints on indices in
        range, w a new dict, v neither kept nor changed.  Rows vanish on each other's
        pivots, so one pass over the pivots v hits clears them all, making no new ones."""
        w, den, rows = dict(v), 1, self.rows
        if rows.keys().isdisjoint(w):  # no pivot met: most of graph_algebra's calls
            return w, den
        for p in [c for c in w if c in rows]:
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

    def add(self, vector):
        """Add a vector, read as by residue, to the span; True if the dimension grew."""
        return self._add(_cleared(_vector(vector, self.ambient, "the ambient dimension"),
                                  "vector entry")[0])

    def _add(self, v):
        """The int core of add, for v as _reduce takes it: its residue becomes a row,
        and its pivot is eliminated from the rows that hold it."""
        w, _ = self._reduce(v)
        rows = self.rows
        if not w:
            return False
        p = min(w)
        g = math.gcd(*w.values())
        if w[p] < 0:
            g = -g
        if g != 1:
            w = {c: x // g for c, x in w.items()}
        a = w[p]
        for q, row in rows.items():
            if p not in row:
                continue
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
                if y:
                    row[c] = y
                else:
                    del row[c]
            # the content divides the pivot entry, so a pivot of 1 means none
            if row[q] != 1:
                g = math.gcd(*row.values())
                if g != 1:
                    for c in row:
                        row[c] //= g
        rows[p] = w
        return True

    def contains(self, vector):
        return not self.residue(vector)[0]

    @property
    def dim(self):
        return len(self.rows)

    @property
    def pivots(self):
        return sorted(self.rows)

    def int_kernel(self):
        """Canonical basis of {x : row . x = 0 for every row}, as sparse int dicts: one
        vector per free (non-pivot) column f, by f, keyed by increasing pivot, then f.
        x_f = den and x_p = -row_p[f] den / row_p[p] on the pivots p with row_p[f] != 0
        (all below f), gathered in one pass over the sorted rows, den the lcm of their row_p[p]."""
        rows, holders, out = self.rows, {}, []
        for p in sorted(rows):
            for f in rows[p]:
                holders.setdefault(f, []).append(p)
        for f in range(self.ambient):
            if f not in rows:
                hits = holders.get(f, [])
                den = math.lcm(*[rows[p][p] for p in hits])
                out.append({**{p: -rows[p][f] * (den // rows[p][p]) for p in hits}, f: den})
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim} in Q^{self.ambient})"


def solve(m: Matrix, rhs):
    """One exact solution of m x = rhs, or None if inconsistent: the Fraction door of
    _solve, with the free unknowns 0.  For m = N / den and rhs = b / d, N x = den b."""
    if len(rhs) != m.rows:
        raise ValueError(f"right-hand side has {len(rhs)} entries, the matrix {m.rows} rows")
    b, d = _cleared(dict(enumerate(rhs)), "right-hand side entry")
    sol = _solve(m.transpose().num, [m.den * b.get(i, 0) for i in range(m.rows)], m.cols)
    if sol is None:
        return None
    x, den = sol
    return dense({p: Q(v, den * d) for p, v in x.items()}, m.cols)


def _solve(rows, rhs, n):
    """The int core of linear systems: (x, den) with x / den one solution of rows x = rhs
    over n unknowns, the free ones 0, for rows sparse {unknown: int} dicts without zeros
    and rhs ints; x a dict without zeros, den > 0.  None if inconsistent."""
    aug = Subspace(n + 1)
    for row, b in zip(rows, rhs):
        aug._add({**row, n: b} if b else row)
    if n in aug.rows:
        return None
    den = math.lcm(*[row[p] for p, row in aug.rows.items()])
    return {p: row[n] * (den // row[p]) for p, row in aug.rows.items() if n in row}, den


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
    return Subspace(n, Subspace(n, eqs.values()).int_kernel())


def _preimage(images, z: Subspace) -> Subspace:
    """{x : sum_i x_i images[i][j] in z for every label j}, images[i] mapping labels j
    to sparse vectors: their residues modulo z, ints where d = 1, must sum to zero."""
    return kernel_of([{(j, k): x if d == 1 else Q(x, d) for j, v in image.items()
                       for w, d in [z.residue(v)] for k, x in w.items()} for image in images])


def _preimage_chain(images):
    """[0, P(0), P(P(0)), ...] for P = _preimage(images, .), ending at the first repeat."""
    chain = [Subspace(len(images))]
    while (nxt := _preimage(images, chain[-1])).dim > chain[-1].dim:
        chain.append(nxt)
    return chain


def kernel_chain(m: Matrix):
    """[0, ker m, ker m^2, ...] as Subspaces, ending at the first repeat: ker m^(k+1)
    is the preimage of ker m^k, from the sparse columns m_j reduced modulo ker m^k,
    so no power of m is formed."""
    if not m.is_square():
        raise ValueError("kernel chain of non-square matrix")
    return _preimage_chain([{0: col} for col in m.num])


def char_poly(m: Matrix) -> "Poly":
    """Characteristic polynomial det(xI - m), monic.

    The Krylov blocks e_i, m e_i, ... of the unit vectors in turn go into one
    Subspace, each block until its vectors depend on all earlier ones.  In
    that basis m is block upper triangular with companion blocks, so det(xI -
    m) is the product of the blocks' relative minimal polynomials
    (Keller-Gehrig, TCS 36, 1985).
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    space, c = Subspace(2 * n + 1), [1]
    for i in range(n):  # one block per unit vector, while the blocks do not span Q^n
        if space.dim < n:
            c = _convolve(c, _krylov(m.num, {i: 1}, space, n + space.dim))
    return _scaled(c, m.den)


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


class Poly:
    """Univariate polynomial over the rationals, lowest degree first, in two forms
    each built from the other on first read: coeffs, its Fractions, which
    Poly(coeffs) takes, and ints, its primitive int multiple (leading sign kept),
    which polynomial work reads and _scaled gives for char_poly's monic result."""

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Q) else Q(_exact(c, "polynomial coefficient")) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @functools.cached_property
    def coeffs(self):
        return tuple(Q(x, self.ints[-1]) for x in self.ints)

    @functools.cached_property
    def ints(self):
        return tuple(primitive(self.coeffs))

    @staticmethod
    def binomial(degree, constant):
        """x**degree - constant (the constant 1 - constant at degree 0)."""
        if degree < 0:
            raise ValueError(f"binomial degree {degree} is below 0")
        cs = [-_exact(constant, "binomial constant")] + [0] * degree
        cs[degree] += 1
        return Poly(cs)

    @property
    def degree(self):
        return len(self.ints) - 1

    def is_zero(self):
        return not self.ints

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


def primitive(coeffs) -> list:
    """The primitive integer multiple of rational coefficients, lowest first:
    denominators cleared and the content divided out, sign kept; [] for 0."""
    cs = list(coeffs)
    if not {*map(type, cs)} <= {int}:  # int_prem's and int_gcd's lists need no clearing
        w, _ = _cleared(dict(enumerate(cs)), "polynomial coefficient")
        cs = [w.get(k, 0) for k in range(len(cs))]
    while cs and not cs[-1]:
        cs.pop()
    g = math.gcd(*cs) or 1
    return [x // g for x in cs]


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
    coefficients, lowest first) by the primitive remainder sequence.  Only b is made
    primitive first: each remainder is, and a's content scales every one alike."""
    if not (b := primitive(b)):
        return primitive(a)
    while b:
        a, b = b, int_prem(a, b)
    return a


@functools.lru_cache(maxsize=1)  # analyze's squarefree test, then _binomial_divisors at d = 1
def _sturm(c):
    """(k, chain) for the nonzero int tuple c = x^k c0: c0, c0', negated int_prems to a constant
    or to a gcd g, then each over primitive(g), the Sturm chain of c0's squarefree part s."""
    k = min(i for i, x in enumerate(c) if x)  # ValueError for the zero polynomial
    chain = [c[k:], [i * x for i, x in enumerate(c[k:]) if i]]
    while len(chain[-1]) > 1:
        chain.append([-x for x in int_prem(chain[-2], chain[-1])])
    if not chain[-1]:  # c / x^k is not squarefree, or a constant
        g = primitive(chain[-2])
        chain = [_divide(q, g) for q in chain[:-1]]
    return k, chain


def _at(q, m, a):
    """a^k q(m / a) for q of degree k: q's sign at m / a (a > 0), or at m's infinity (a = 0)."""
    if not a:
        return q[-1] * m ** (len(q) - 1)
    h, power = q[-1], 1
    for x in q[-2::-1]:
        power *= a
        h = h * m + x * power
    return h


def _variations(chain, m, a):
    """Sign variations V at m / a, zeros skipped: V(u) - V(w) roots lie in (u, w] (Sturm)."""
    signs = [v > 0 for q in chain if (v := _at(q, m, a))]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _int_roots(c):
    """(roots, real) for the nonzero int list c: its rational roots, [(num, den, mult)] in lowest
    terms sorted by den, then num, and its count of distinct real roots, V(-inf) - V(inf) on
    _sturm's chain, plus 1 if 0 is a root.  Past c's x-power the roots come by bisection of
    (-b, b] on the chain, b = a + max |s_i| with a = |lc(s)|.  A rational root is y / a, y an
    integer and |y| < b (Cauchy), so halves with no variation change go, and at width 1 hi / a
    is a root iff s(hi / a) = 0.  A squarefree c has multiplicities 1; else c is divided by
    den x - num while exact."""
    k, chain = _sturm(c := tuple(c))
    c, s, roots = c[k:], chain[0], [(0, 1, k)] if k else []
    a, squarefree = abs(s[-1]), len(s) == len(c)
    b = a + max(map(abs, s))
    todo = [(-b, bottom := _variations(chain, -1, 0), b, top := _variations(chain, 1, 0))]
    while todo:
        lo, v, hi, w = todo.pop()
        if v != w and hi - lo > 1:
            mid = (lo + hi) // 2
            u = _variations(chain, mid, a)
            todo += [(lo, v, mid, u), (mid, u, hi, w)]
        elif v != w and not _at(s, hi, a):
            num, den, mult = hi // (g := math.gcd(hi, a)), a // g, int(squarefree)
            while not squarefree and (q := _divide(c, [-num, den])) is not None:
                c, mult = q, mult + 1
            roots.append((num, den, mult))
    roots.sort(key=lambda t: (t[1], t[0]))
    return roots, bottom - top + (k > 0)


def _radical(c):
    """The squarefree part of the nonzero int list c = x^k c0, c0(0) != 0: the head of
    _sturm's chain, c0 / gcd(c0, c0') up to sign, times x if k > 0."""
    k, chain = _sturm(tuple(c))
    return [0] * min(k, 1) + list(chain[0])


def rational_roots(p: Poly):
    """All rational roots of p with multiplicities, as [(root, mult)], sorted by
    denominator, then value: _int_roots on p.ints."""
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root set")
    return [(Q(num, den), mult) for num, den, mult in _int_roots(p.ints)[0]]


def _divide(c, g):
    """c / g for int coefficient lists, lowest first, if exact in Z[x], else None at
    the first inexact step; for primitive g, exact in Z[x] iff g divides c in Q[x]
    (Gauss's lemma).  Each step visits only g's nonzero lower terms."""
    c, n = list(c), len(g) - 1
    lead, low = g[n], [(j, x) for j, x in enumerate(g[:n]) if x]
    q = [0] * (len(c) - n)
    for k in range(len(q) - 1, -1, -1):
        f, rem = divmod(c[k + n], lead)
        if rem:
            return None
        q[k] = f
        for j, x in low:
            c[k + j] -= f * x
    return None if any(c[:n]) else q


def _krylov(cols, v, space, t):
    """d f, d > 0, for the monic f of least degree with f(m) v in space, v a sparse dict
    of nonzero ints and m given by its int columns, as an int list; space gains v, ...,
    m^(k-1) v, all through the int cores _reduce and _add.

    Each m^k v, stepped from the last, is reduced tagged with a tracking
    coordinate t + k.  The first residue w / d that vanishes on the first n
    coordinates holds d f in t..t+k, x^k included.
    """
    n, k = len(cols), 0
    while True:
        w, _ = space._reduce({**v, t + k: 1})
        if min(w) >= n:
            return [w.get(t + j, 0) for j in range(k + 1)]
        space._add(w)
        v = apply_columns(cols, v)
        k += 1


def _convolve(a, b):
    """The product of two coefficient lists, lowest first, over their nonzero terms only:
    a binomial x^d - r has two."""
    out = [0] * (len(a) + len(b) - 1)
    for (i, x), (j, y) in itertools.product(*[[t for t in enumerate(c) if t[1]] for c in (a, b)]):
        out[i + j] += x * y
    return out


def _scaled(c, s):
    """The monic Poly s^-k f(s x), f = sum c_j x^j of degree k, c_k > 0, from its ints,
    the primitive c_j s^j: f of N gives it of N / s."""
    p = Poly.__new__(Poly)
    p.ints = tuple(primitive([x * s**j for j, x in enumerate(c)]))
    return p


def minimal_polynomial(m: Matrix) -> Poly:
    """Monic minimal polynomial, the lcm of the unit vectors' local ones: with
    mu the product so far and g the local one of e_i, _krylov on a fresh
    Subspace from mu(m) e_i (by Horner's rule) gives g / gcd(g, mu), and mu
    times it is lcm(mu, g).  No polynomial gcd is taken."""
    if not m.is_square():
        raise ValueError("minimal polynomial of non-square matrix")
    n, cols, c = m.rows, m.num, [1]  # mu = sum c_j x^j / c_k of N, m = N / den
    for i in range(n):
        v = {}  # c_k mu(N) e_i
        for a in reversed(c):
            v = apply_columns(cols, v)
            if x := v.get(i, 0) + a:
                v[i] = x
            else:
                v.pop(i, None)
        if v:
            c = _convolve(c, _krylov(cols, v, Subspace(2 * n + 1), n))
            if len(c) > n:
                break
    return _scaled(c, m.den)


def similar(a: Matrix, b: Matrix) -> bool:
    """Exact rational similarity test.

    Equal invariant factors of xI - m decide.  The last is the minimal
    polynomial mu and their product is phi = char_poly, so a squarefree
    phi / mu makes them 1, ..., 1, phi / mu, mu.  Else a ~ b iff the spaces
    {X : a X = X b} of a with a, a with b and b with b have one dimension
    (Byrnes and Gauger, Linear Multilinear Algebra 5, 1977).
    """
    if a.rows != b.rows or not a.is_square() or not b.is_square():
        return False
    phi = char_poly(a).ints  # monic polynomials are equal iff their ints are
    if phi != char_poly(b).ints or (
            (mu := minimal_polynomial(a).ints) != minimal_polynomial(b).ints):
        return False
    if len(_radical(cofactor := _divide(phi, mu))) == len(cofactor):  # squarefree
        return True
    return _intertwiners(a, a) == _intertwiners(a, b) == _intertwiners(b, b)


def _intertwiners(a: Matrix, b: Matrix) -> int:
    """dim {X : a X = X b}: n^2 less the rank of X -> a X - X b, whose value
    at the matrix unit E_kl is column k of a put in column l, less row l of b
    put in row k (X flattened row by row)."""
    n, rows_b = a.rows, b.transpose().num  # in ints: b.den a.num X - a.den X b.num
    images = Subspace(n * n)
    for k, l in itertools.product(range(n), repeat=2):
        v = {i * n + l: x * b.den for i, x in a.num[k].items()}
        for j, x in rows_b[l].items():
            v[k * n + j] = v.get(k * n + j, 0) - x * a.den
        images.add(v)
    return n * n - images.dim


# --- integer linear systems (the scale exponents of monomial_equivalent) ---


def _xgcd(a, b):
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def solve_integer_system(a, b):
    """One integer solution x of a x = b (a: integer rows, b: integers), or None.

    Row by row, unimodular extended-gcd column operations gather the row's
    entries outside the pivot columns found so far into the next pivot
    column, which brings a to column echelon form h = a v.  h y = b is
    solved by forward substitution in the same pass, with y = 0 on the
    columns that get no pivot, and x = v y.  A congruence a x = b (mod q)
    is the system [a | q I] (x, z) = b.
    """
    m, n = len(a), len(a[0]) if a else 0
    # column j of a stacked on column j of v, which starts as the identity
    cols = [[int(row[j]) for row in a] + [int(i == j) for i in range(n)] for j in range(n)]
    y = []
    for r in range(m):
        k = len(y)
        rest = int(b[r]) - sum(cols[j][r] * y[j] for j in range(k))
        for c in range(k + 1, n):
            p, q = cols[k][r], cols[c][r]
            if q:
                g, s, t = _xgcd(p, q)
                u, w = cols[k], cols[c]
                cols[k] = [s * x + t * z for x, z in zip(u, w)]
                cols[c] = [p // g * z - q // g * x for x, z in zip(u, w)]
        pivot = cols[k][r] if k < n else 0
        if pivot:
            quo, rem = divmod(rest, pivot)
            if rem:
                return None
            y.append(quo)
        elif rest:
            return None
    return [sum(cols[j][m + i] * yj for j, yj in enumerate(y)) for i in range(n)]
