"""Matrix against the dense Matrix it replaced.

Matrix keeps its sparse columns and builds dense rows only on demand.  The
reference below is the earlier dense implementation, kept verbatim with the
helpers it called (_dot, sparse_columns, nullspace, solve, char_poly); its
power is gone with Matrix's, and char_poly multiplies coefficient lists, read
off the int columns of d m, d the lcm of m's denominators.  It
has no 0 x n matrix, and on some empty shapes it returns the wrong shape, so
there the expected result is written out instead.  On hypothesis-generated
rational matrices of every shape up to 4 x 4, n x 0 and 0 x n included, each
operation must agree with it, and every result must keep the invariants:
one sparse column per column index, holding only nonzero Fractions at rows
in range, and a dense view that is built once.
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nicebasis import linalg
from nicebasis.linalg import Poly, Subspace, _convolve, _krylov, dense
from nicebasis.scalars import Q, ZERO, ONE, fmt
from test_integer_table import q_rows, sparse, sparse_kernel


# --- the reference: the dense Matrix as it was, with the helpers it called ---


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
        return Matrix([[q_rows(aug)[i].get(n + j, ZERO) for j in range(n)] for i in range(n)])


def _dot(a, b):
    s = ZERO
    for x, y in zip(a, b):
        if x and y:
            s += x * y
    return s


def sparse_columns(m: Matrix):
    """m's columns as sparse dicts, the operand of apply_columns."""
    return [sparse(c) for c in zip(*m.data)]  # a Matrix with no rows has no columns


def nullspace(m: Matrix):
    """Canonical kernel basis of m (column vectors as tuples)."""
    return [dense(v, m.cols) for v in sparse_kernel(Subspace(m.cols, m.data))]


def solve(m: Matrix, rhs):
    """One exact solution of m x = rhs, or None if inconsistent."""
    n = m.cols
    aug = Subspace(n + 1, ({**sparse(row), n: Q(b)} for row, b in zip(m.data, rhs)))
    if n in aug.rows:
        return None
    x = [ZERO] * n
    for p, row in q_rows(aug).items():
        x[p] = row.get(n, ZERO)
    return tuple(x)


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
    d = math.lcm(*[x.denominator for row in m.data for x in row])
    cols = [{i: int(x * d) for i, x in col.items()} for col in sparse_columns(m)]
    space = Subspace(2 * n + 1)
    # one block per unit vector, while the blocks so far do not span Q^n;
    # _krylov gives a block's coefficients for d m as a positive int multiple c,
    # and for m its coefficient a_j is c_j / c_k times d^(j - k), k its degree
    blocks = [[Q(x, c[-1]) * Q(d) ** (j - len(c) + 1) for j, x in enumerate(c)]
              for i in range(n) if space.dim < n
              for c in [_krylov(cols, {i: 1}, space, n + space.dim)]]
    return Poly(functools.reduce(_convolve, blocks, [ONE]))


Dense = Matrix  # the reference, by a name that says what it is


# --- strategies ---


entries = st.one_of(st.just(0), st.builds(Q, st.integers(-4, 4), st.integers(1, 3)))
dims = st.integers(0, 4)


def draw_pair(data, rows, cols):
    """(Matrix, Dense) holding the same drawn rows x cols entries."""
    table = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
    columns = [tuple(row[j] for row in table) for j in range(cols)]
    return linalg.Matrix.from_columns(columns, rows), Dense(table)


def check(m, want_data, shape):
    """m has the shape and dense rows wanted and keeps the invariants."""
    assert (m.rows, m.cols) == shape
    assert m.data == want_data
    assert m.data is m.data
    assert isinstance(m.columns, tuple) and len(m.columns) == m.cols
    for col in m.columns:
        assert all(type(x) is Fraction and x and 0 <= i < m.rows for i, x in col.items())


def zero_rows(rows, cols):
    return ((ZERO,) * cols,) * rows


# --- the oracle ---


@given(dims, dims, st.data())
@settings(max_examples=150)
def test_entries_and_views(rows, cols, data):
    m, ref = draw_pair(data, rows, cols)
    check(m, ref.data, (rows, cols))
    assert all(m[i, j] == ref[i, j] for i in range(rows) for j in range(cols))
    assert [dense(c, rows) for c in m.columns] == [ref.column(j) for j in range(cols)]
    assert [m.data[i] for i in range(rows)] == [ref.row(i) for i in range(rows)]
    assert (not any(m.num)) == ref.is_zero()
    assert repr(m) == repr(ref)
    if rows:  # dense rows fix the shape only when there is a row
        assert linalg.Matrix(ref.data) == m


@given(dims, dims, dims, dims, st.booleans(), st.data())
@settings(max_examples=150)
def test_equality_and_hash(r1, c1, r2, c2, same, data):
    a, ra = draw_pair(data, r1, c1)
    b, rb = (linalg.Matrix.from_columns(a.columns, r1), ra) if same else draw_pair(data, r2, c2)
    want = (a.rows, a.cols) == (b.rows, b.cols) and ra.data == rb.data
    assert (a == b) == want
    if a.rows and b.rows:  # the reference cannot tell 0 x n matrices apart
        assert (ra == rb) == want
    if want:
        assert hash(a) == hash(b)


@given(dims, dims, st.data())
@settings(max_examples=100)
def test_sum_difference_and_negation(rows, cols, data):
    (a, ra), (b, rb) = draw_pair(data, rows, cols), draw_pair(data, rows, cols)
    check(a + b, (ra + rb).data, (rows, cols))
    check(a - b, (ra - rb).data, (rows, cols))
    check(-a, (-ra).data, (rows, cols))
    check(a - a, zero_rows(rows, cols), (rows, cols))
    if rows:
        with pytest.raises(ValueError):
            a + linalg.Matrix.zeros(rows, cols + 1)


@given(dims, dims, dims, st.data())
@settings(max_examples=150)
def test_product(rows, inner, cols, data):
    (a, ra), (b, rb) = draw_pair(data, rows, inner), draw_pair(data, inner, cols)
    # the reference has no 0 x n factor, and a product through 0 is zero
    want = (ra * rb).data if rows and inner else zero_rows(rows, cols)
    check(a * b, want, (rows, cols))
    with pytest.raises(ValueError):
        a * linalg.Matrix.zeros(inner + 1, cols)


@given(dims, dims, entries, st.data())
@settings(max_examples=100)
def test_scalar_product(rows, cols, s, data):
    m, ref = draw_pair(data, rows, cols)
    check(m * s, (ref * s).data, (rows, cols))
    check(s * m, (s * ref).data, (rows, cols))


@given(dims, dims, st.data())
@settings(max_examples=100)
def test_transpose(rows, cols, data):
    m, ref = draw_pair(data, rows, cols)
    want = ref.transpose().data if rows else zero_rows(cols, 0)
    check(m.transpose(), want, (cols, rows))


@given(dims, dims, st.data())
@settings(max_examples=100)
def test_apply(rows, cols, data):
    m, ref = draw_pair(data, rows, cols)
    v = data.draw(st.lists(entries, min_size=cols, max_size=cols))
    got = m.apply(v)
    assert got == (ref.apply(v) if rows else ())
    assert all(type(x) is Fraction for x in got)


@given(dims, st.data())
@settings(max_examples=100)
def test_det_and_inverse(n, data):
    m, ref = draw_pair(data, n, n)
    assert m.det() == ref.det()
    if ref.det():
        check(m.inverse(), ref.inverse().data, (n, n))
    else:
        with pytest.raises(ValueError):
            m.inverse()


@given(dims, dims, st.data())
@settings(max_examples=150)
def test_nullspace_and_solve(rows, cols, data):
    m, ref = draw_pair(data, rows, cols)
    rhs = data.draw(st.lists(entries, min_size=rows, max_size=rows))
    kernel = sparse_kernel(Subspace(cols, m.transpose().num))  # from m's int rows
    if rows:
        assert kernel == [sparse(v) for v in nullspace(ref)]
        assert linalg.solve(m, rhs) == solve(ref, rhs)
    else:  # no equations: every vector solves, and the unit vectors span the kernel
        assert kernel == [{j: 1} for j in range(cols)]
        assert linalg.solve(m, rhs) == (ZERO,) * cols
