"""Rational matrices, the sparse echelon core, and rational polynomials.

Matrices are immutable row-major tuples of exact rationals.  Every echelon
computation goes through Subspace, which keeps sparse rows in fully reduced
form; that form is canonical, so identical input always yields identical
output, which keeps golden-file tests stable.  Polynomials are stored
dense, lowest degree first.
"""

from __future__ import annotations


from .scalars import Q, ZERO, ONE, fmt


class Matrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries):
        data = tuple(tuple(Q(x) for x in row) for row in entries)
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
            return self.inverse() ** (-k)
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

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), ZERO)

    def apply(self, vector):
        """Matrix-vector product as a tuple."""
        v = [Q(x) for x in vector]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(_dot(row, v) for row in self.data)

    def rank(self):
        return Subspace(self.cols, self.data).dim

    def det(self):
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        # fraction-free-ish Gaussian elimination on a mutable copy
        n = self.rows
        m = [list(row) for row in self.data]
        d = ONE
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c] != 0), None)
            if piv is None:
                return ZERO
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                d = -d
            d *= m[c][c]
            inv = 1 / m[c][c]
            for r in range(c + 1, n):
                f = m[r][c] * inv
                if f == 0:
                    continue
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
        return d

    def inverse(self):
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = Subspace(2 * n, ({**sparse(row), n + i: ONE} for i, row in enumerate(self.data)))
        if aug.pivots != list(range(n)):
            raise ValueError("singular matrix")
        return Matrix([[aug.rows[i].get(n + j, ZERO) for j in range(n)] for i in range(n)])

    def char_poly(self):
        return char_poly(self)

    def to_lists(self):
        return [list(row) for row in self.data]


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


class Subspace:
    """Span of vectors in Q^ambient, kept in fully reduced echelon form.

    rows maps each pivot column to its sparse row {col: value}: the pivot
    entry is 1 and every other pivot column is zero in it.  That is the
    unique reduced row echelon form of the span, hence canonical.  Vectors
    may be given dense (sequences of length ambient) or sparse (dicts).
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient, vectors=()):
        self.ambient = ambient
        self.rows = {}
        for v in vectors:
            self.add(v)

    def reduce(self, vector):
        """Residue of vector modulo the span, sparse (empty iff contained)."""
        if isinstance(vector, dict):
            items = vector.items()
        elif len(vector) == self.ambient:
            items = enumerate(vector)
        else:
            raise ValueError("vector length mismatch")
        v = {c: Q(x) for c, x in items if x}
        rows = self.rows
        # rows vanish on each other's pivots, so one pass over the pivots
        # present in v clears them all and creates no new ones
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
        """Add a vector to the span; returns True if the dimension grew."""
        v = self.reduce(vector)
        if not v:
            return False
        p = min(v)
        inv = 1 / v[p]
        v = {c: x * inv for c, x in v.items()}
        for row in self.rows.values():
            f = row.get(p)
            if f:
                for c, x in v.items():
                    y = row.get(c, ZERO) - f * x
                    if y:
                        row[c] = y
                    else:
                        del row[c]
        self.rows[p] = v
        return True

    def contains(self, vector):
        return not self.reduce(vector)

    @property
    def dim(self):
        return len(self.rows)

    @property
    def pivots(self):
        return sorted(self.rows)

    def basis(self):
        """The reduced rows as dense tuples, by increasing pivot."""
        return [dense(self.rows[p], self.ambient) for p in self.pivots]

    def kernel(self):
        """Canonical basis of {x : row . x = 0 for every row}.

        One vector per free (non-pivot) column f, ordered by f, with x_f = 1
        and x_p = -row_p[f] on the pivots.
        """
        n = self.ambient
        free = [c for c in range(n) if c not in self.rows]
        vecs = {f: [ZERO] * n for f in free}
        for f in free:
            vecs[f][f] = ONE
        for p, row in self.rows.items():
            for c, x in row.items():
                if c != p:
                    vecs[c][p] = -x
        return [tuple(vecs[f]) for f in free]

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
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


def _is_hessenberg(m: Matrix) -> bool:
    return all(
        m.data[i][j] == 0 for i in range(m.rows) for j in range(i - 1)
    )


def _char_poly_hessenberg(h: Matrix) -> "Poly":
    # recurrence on leading principal minors of xI - h; O(n^3) coefficient ops
    n = h.rows
    ps = [Poly([ONE])]
    for k in range(1, n + 1):
        x_minus = Poly([-h.data[k - 1][k - 1], ONE])
        p = x_minus * ps[k - 1]
        prod = ONE
        for i in range(k - 1, 0, -1):
            prod *= h.data[i][i - 1]
            if h.data[i - 1][k - 1] != 0 and prod != 0:
                p = p - ps[i - 1] * (prod * h.data[i - 1][k - 1])
            if prod == 0:
                break
        ps.append(p)
    return ps[n]


def char_poly(m: Matrix) -> "Poly":
    """Characteristic polynomial det(xI - m), monic.

    Faddeev-LeVerrier in general; a cheaper minor recurrence when the matrix
    is already upper Hessenberg (companion matrices, in particular).
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    if n > 8 and _is_hessenberg(m):
        return _char_poly_hessenberg(m)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    mk = Matrix.identity(n)
    for k in range(1, n + 1):
        am = m * mk
        ck = -am.trace() / k
        coeffs[n - k] = ck
        if k < n:
            mk = am + Matrix.identity(n) * ck
    return Poly(coeffs)


def is_nilpotent(m: Matrix):
    """(nilpotent?, index): index is the least k with m**k = 0, else None."""
    if not m.is_square():
        raise ValueError("nilpotency of non-square matrix")
    power = Matrix.identity(m.rows)
    for k in range(1, m.rows + 1):
        power = power * m
        if power.is_zero():
            return True, k
    return False, None


class Poly:
    """Univariate polynomial over the rationals, coefficients lowest first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def x_power(k, coeff=ONE):
        return Poly([ZERO] * k + [Q(coeff)])

    @staticmethod
    def binomial(degree, constant):
        """x**degree - constant."""
        cs = [-Q(constant)] + [ZERO] * (degree - 1) + [ONE]
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

    def __call__(self, x):
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, m: Matrix) -> Matrix:
        acc = Matrix.zeros(m.rows, m.cols)
        for c in reversed(self.coeffs):
            acc = acc * m + Matrix.identity(m.rows) * c
        return acc

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


def rational_roots(p: Poly):
    """All rational roots of p with multiplicities, as [(root, mult)].

    Candidates are read off divisors of the trailing and leading integer
    coefficients after clearing denominators.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root set")
    roots = []
    # strip x^k factor: root 0
    k = 0
    while p.coeffs[k] == 0:
        k += 1
    if k:
        roots.append((ZERO, k))
        p = Poly(p.coeffs[k:])
    if p.degree == 0:
        return roots
    denom_lcm = 1
    for c in p.coeffs:
        denom_lcm = _lcm_int(denom_lcm, int(c.denominator))
    ints = [int(c * denom_lcm) for c in p.coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])
    for num in _divisors(a0):
        for den in _divisors(an):
            for s in (1, -1):
                cand = Q(s * num, den)
                if p(cand) == 0:
                    mult = 0
                    while p(cand) == 0:
                        p = p // Poly([-cand, ONE])
                        mult += 1
                    roots.append((cand, mult))
                if p.degree == 0:
                    roots.sort(key=lambda t: (t[0].denominator, t[0]))
                    return roots
    roots.sort(key=lambda t: (t[0].denominator, t[0]))
    return roots


def count_real_roots(p: Poly) -> int:
    """Number of distinct real roots of p, by Sturm's theorem (exact)."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return 0
    p = (p // poly_gcd(p, p.derivative())).monic()  # squarefree part
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()

    def variations(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    def sign_at_inf(q, positive):
        lead = q.coeffs[-1]
        s = 1 if lead > 0 else -1
        if not positive and q.degree % 2 == 1:
            s = -s
        return s

    at_minus = [sign_at_inf(q, False) for q in chain]
    at_plus = [sign_at_inf(q, True) for q in chain]
    return variations(at_minus) - variations(at_plus)


def minimal_polynomial(m: Matrix) -> Poly:
    """Monic minimal polynomial via per-vector Krylov dependencies."""
    if not m.is_square():
        raise ValueError("minimal polynomial of non-square matrix")
    n = m.rows
    ident = Matrix.identity(n)
    result = Poly([ONE])
    for i in range(n):
        krylov = [ident.row(i)]
        while True:
            # look for a dependency of the last vector on the previous ones
            cols = Matrix.from_columns(krylov[:-1]) if len(krylov) > 1 else None
            if cols is not None:
                sol = solve(cols, krylov[-1])
                if sol is not None:
                    local = Poly(list(sol) + [Q(-1)]) * Q(-1)
                    break
            if len(krylov) > n:
                raise RuntimeError("Krylov chain failed to terminate")
            krylov.append(m.apply(krylov[-1]))
        result = poly_lcm(result, local.monic())
        if result.degree == n:
            break
    return result


def similar(a: Matrix, b: Matrix):
    """Exact rational similarity test.

    Complete for size <= 3 (characteristic + minimal polynomial pin down the
    invariant factors) and for nilpotent matrices (rank profile of powers).
    For larger non-nilpotent matrices the test may return None (= unknown):
    it is sound but not complete.
    """
    if a.rows != b.rows or not a.is_square() or not b.is_square():
        return False
    if char_poly(a) != char_poly(b):
        return False
    na, _ = is_nilpotent(a)
    nb, _ = is_nilpotent(b)
    if na != nb:
        return False
    if na:
        pa = pb = Matrix.identity(a.rows)
        for _ in range(a.rows):
            pa, pb = pa * a, pb * b
            if pa.rank() != pb.rank():
                return False
        return True
    if minimal_polynomial(a) != minimal_polynomial(b):
        return False
    if a.rows <= 3:
        return True
    # weaker necessary conditions; report unknown if they all pass
    for root, _ in rational_roots(char_poly(a)):
        pa = pb = Matrix.identity(a.rows)
        shift_a = a - Matrix.identity(a.rows) * root
        shift_b = b - Matrix.identity(b.rows) * root
        for _ in range(a.rows):
            pa, pb = pa * shift_a, pb * shift_b
            if pa.rank() != pb.rank():
                return False
    return None


def _divisors(n):
    n = abs(int(n))
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _lcm_int(a, b):
    import math

    return a * b // math.gcd(a, b)


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
