import itertools
import os
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nicebasis import fixtures, linalg
from nicebasis.derivations import derivation_space
from nicebasis.lie import direct_sum, load_lie
from nicebasis.linalg import (
    _convolve,
    Matrix,
    Poly,
    Subspace,
    solve,
    char_poly,
    rational_roots,
    _int_roots,
    minimal_polynomial,
    solve_integer_system,
    apply_columns,
    dense,
    int_gcd,
    int_prem,
    kernel_chain,
    primitive,
)
from nicebasis.scalars import Q, ZERO, ONE, rat
from test_integer_table import sparse_kernel
from test_root_oracle import mul


rationals = st.builds(Q, st.integers(-30, 30), st.integers(1, 12))
FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


def horner(p, m):
    """p(m) by Horner's rule on dense matrices."""
    acc = Matrix.zeros(m.rows, m.cols)
    for c in reversed(p.coeffs):
        acc = acc * m + Matrix.identity(m.rows) * c
    return acc


def square(n, entries):
    return Matrix([[entries[i * n + j] for j in range(n)] for i in range(n)])


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols,
                        lambda i, j: sympy.Rational(str(m[i, j])))


class TestMatrix:
    def test_identity_and_arithmetic(self):
        a = Matrix([[1, 2], [3, 4]])
        i = Matrix.identity(2)
        assert a * i == a
        assert a + (-a) == Matrix.zeros(2, 2)
        assert a - a == Matrix.zeros(2, 2)

    def test_inverse(self):
        a = Matrix([[2, 1], [1, 1]])
        assert a * a.inverse() == Matrix.identity(2)
        with pytest.raises(ValueError):
            Matrix([[1, 1], [1, 1]]).inverse()

    def test_apply_matches_column_combination(self):
        a = Matrix([[1, 2], [3, 4]])
        assert a.apply((rat(1), rat(0))) == tuple(row[0] for row in a.data)

    @pytest.mark.parametrize("m", [
        Matrix([[1, 0, 2], [0, 0, 3]]), Matrix([[0, 0]]), Matrix.identity(3), Matrix([]),
    ], ids=["2x3", "zero-row", "identity", "empty"])
    def test_sparse_columns_are_the_columns(self, m):
        cols = m.columns
        assert len(cols) == m.cols
        assert list(cols) == [{i: row[j] for i, row in enumerate(m.data) if row[j]}
                              for j in range(m.cols)]

    @pytest.mark.parametrize("m, vec, want", [
        (Matrix.identity(2), {0: ZERO}, {}),
        (Matrix.identity(2), {0: ONE, 1: ZERO}, {0: ONE}),
        (Matrix([[1, 0], [3, 1]]), {1: ZERO, 0: Q(2)}, {0: Q(2), 1: Q(6)}),
    ], ids=["zero", "one-and-zero", "zero-first"])
    def test_apply_columns_skips_zero_coefficients(self, m, vec, want):
        got = apply_columns(m.columns, vec)
        assert got == want
        assert all(got.values())

    @given(st.lists(rationals, min_size=4, max_size=4))
    def test_det_vs_sympy(self, entries):
        m = square(2, entries)
        assert sympy.Rational(str(m.det())) == to_sympy(m).det()

    @pytest.mark.parametrize("make, shape", [
        (lambda: Matrix.zeros(0, 2), (0, 2)),
        (lambda: Matrix.zeros(2, 0).transpose(), (0, 2)),
        (lambda: Matrix.zeros(2, 0) * Matrix.zeros(0, 3), (2, 3)),
        (lambda: Matrix.from_columns([]), (0, 0)),
    ], ids=["zeros-0x2", "transpose-2x0", "product-through-0", "no-columns"])
    def test_shape_at_empty_dimensions(self, make, shape):
        m = make()
        assert (m.rows, m.cols) == shape
        assert m == Matrix.zeros(*shape)

    def test_equality_sees_the_columns_of_an_empty_matrix(self):
        assert Matrix.zeros(0, 2) != Matrix.zeros(0, 3)

    @pytest.mark.parametrize("columns, rows, message", [
        ([(1, 2), (3,)], None, "vector has 1 entries, the row count 2"),
        ([(1,), (2,)], 2, "vector has 1 entries, the row count 2"),
        ([{2: 1}], 2, r"vector index 2 out of range 0..1"),
        ([{0: 1}], None, r"vector index 0 out of range \(empty\)"),
        ([{5: 0}], 2, r"vector index 5 out of range 0..1"),
        ([{-1: 1}], 2, r"vector index -1 out of range 0..1"),
        ([{2: 1}, (1, 2)], None, r"vector index 2 out of range 0..1"),
    ], ids=["dense", "dense-against-rows", "sparse-past-the-rows", "sparse-without-rows",
            "sparse-zero-past-the-rows", "sparse-negative", "sparse-before-a-dense-column"])
    def test_from_columns_refuses_ragged_columns(self, columns, rows, message):
        # each column is read by _vector; a zero past the rows once gave a zero matrix
        with pytest.raises(ValueError, match=f"^{message}$"):
            Matrix.from_columns(columns, rows)

    def test_from_columns_takes_the_row_count_from_the_first_dense_column(self):
        # a sparse column before it is read against that count
        m = Matrix.from_columns([{1: 1}, (1, 2)])
        assert m == Matrix([[0, 1], [1, 2]])


class TestRref:
    def test_canonical(self):
        s = Subspace(2, [(rat(0), rat(2)), (rat(1), rat(1))])
        assert s.pivots == [0, 1]
        assert s.rows == {0: {0: rat(1)}, 1: {1: rat(1)}}

    def test_rank_nullity(self):
        m = Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        null = [dense(v, m.cols) for v in sparse_kernel(Subspace(m.cols, m.transpose().num))]
        assert Subspace(m.cols, m.data).dim + len(null) == 3
        for v in null:
            assert all(x == 0 for x in m.apply(v))

    def test_sparse_agrees_with_dense(self):
        rows = [{0: rat(1), 2: rat(-1)}, {1: rat(2), 2: rat(2)}]
        vecs = sparse_kernel(Subspace(3, rows))
        assert len(vecs) == 1
        for row in rows:
            assert sum(c * vecs[0].get(j, 0) for j, c in row.items()) == 0


class TestSolve:
    def test_unique_solution(self):
        m = Matrix([[1, 1], [0, 1]])
        x = solve(m, (rat(3), rat(1)))
        assert m.apply(x) == (rat(3), rat(1))

    def test_inconsistent_returns_none(self):
        m = Matrix([[1, 1], [1, 1]])
        assert solve(m, (rat(0), rat(1))) is None

    @pytest.mark.parametrize("rhs", [[1], [1, 2, 3]], ids=["short", "long"])
    def test_rhs_of_the_wrong_length_is_refused(self, rhs):
        # zip would cut the longer side: a short rhs dropped the second equation
        with pytest.raises(ValueError, match="right-hand side"):
            solve(Matrix.identity(2), rhs)


def gram_system(g):
    """pre_einstein_nice's Gram system of g: int rows without zeros, int rhs, unknowns."""
    diag = derivation_space(g, range(g.dim)).system.int_kernel()
    rows = [{b: x for b, u in enumerate(diag) if (x := sum(c * u.get(i, 0) for i, c in v.items()))}
            for v in diag]
    return rows, [sum(v.values()) for v in diag], len(diag)


def assert_core_is_solve(rows, rhs, n):
    """_solve's x / den is solve's answer on the same system, None for None."""
    got = linalg._solve(rows, rhs, n)
    want = solve(Matrix.from_columns([{i: r[j] for i, r in enumerate(rows) if j in r}
                                      for j in range(n)], len(rows)), rhs)
    if want is None:
        assert got is None
        return None
    x, den = got
    assert den > 0 and 0 not in x.values() and all(type(v) is int for v in x.values())
    assert dense({p: Q(v, den) for p, v in x.items()}, n) == want
    return x


GRAM_ALGEBRAS = {
    **{f"L{n}": (lambda n=n: fixtures.standard_filiform(n)) for n in range(3, 29)},
    "L10+L12": lambda: direct_sum(fixtures.standard_filiform(10), fixtures.standard_filiform(12)),
    "L12+L13": lambda: direct_sum(fixtures.standard_filiform(12), fixtures.standard_filiform(13)),
    "n7_extension": lambda: load_lie(os.path.join(FIXTURES, "n7_extension.lie")),
    "sl2": fixtures.sl2,
    "so3": fixtures.so3,
}


class TestIntSolveCore:
    """linalg._solve, the int core behind solve and pre_einstein_nice's Gram system,
    against solve: the same solution, free unknowns 0, or None together."""

    @pytest.mark.parametrize("name", GRAM_ALGEBRAS)
    def test_gram_systems(self, name):
        rows, rhs, n = gram_system(GRAM_ALGEBRAS[name]())
        assert n == {"sl2": 1, "so3": 0}.get(name, n)  # so3's is the empty system
        assert assert_core_is_solve(rows, rhs, n) is not None  # the Gram lemma

    def test_seeded_random_systems(self):
        rng, outcomes = random.Random(53), {"none": 0, "free": 0, "unique": 0}
        for _ in range(400):
            m, n = rng.randint(0, 5), rng.randint(0, 5)
            dense_rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(n)]
                          for _ in range(m)]
            if dense_rows and rng.random() < 0.3:  # a repeated row makes a singular system
                dense_rows.append(list(dense_rows[0]))
            rows = [{j: x for j, x in enumerate(r) if x} for r in dense_rows]
            rhs = [rng.choice((0, 1, -2, 7)) for _ in rows]
            x = assert_core_is_solve(rows, rhs, n)
            rank = Subspace(n, rows).dim
            outcomes["none" if x is None else "free" if rank < n else "unique"] += 1
        assert min(outcomes.values()) >= 25, outcomes  # 211 None, 147 with free unknowns


class TestCharPoly:
    @given(st.lists(rationals, min_size=9, max_size=9))
    @settings(max_examples=60)
    def test_cayley_hamilton_3x3(self, entries):
        m = square(3, entries)
        assert horner(char_poly(m), m) == Matrix.zeros(m.rows, m.cols)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=40)
    def test_cayley_hamilton_up_to_5x5(self, n, data):
        entries = data.draw(st.lists(st.integers(-5, 5),
                                     min_size=n * n, max_size=n * n))
        m = square(n, [rat(x) for x in entries])
        assert horner(char_poly(m), m) == Matrix.zeros(m.rows, m.cols)

    def test_vs_sympy(self):
        rng = random.Random(7)
        for _ in range(10):
            m = square(4, [Q(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(16)])
            p = char_poly(m)
            x = sympy.symbols("x")
            want = to_sympy(m).charpoly(x).as_expr()
            got = sum(sympy.Rational(str(c)) * x ** k
                      for k, c in enumerate(p.coeffs))
            assert sympy.expand(want - got) == 0

    def test_large_companion_is_fast(self):
        n = 64
        rows = [[rat(0)] * n for _ in range(n)]
        for i in range(1, n):
            rows[i][i - 1] = rat(1)
        rows[0][n - 1] = rat(1)
        p = char_poly(Matrix(rows))
        expect = Poly.binomial(n, 1)
        assert p == expect

    def test_nilpotency_index(self):
        # nilpotent iff the kernel chain reaches Q^n; the index is its length - 1
        chain = kernel_chain(Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
        assert (chain[-1].dim, len(chain) - 1) == (3, 3)
        assert kernel_chain(Matrix.identity(2))[-1].dim == 0


class TestPoly:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_binomial_with_zero_constant_is_x_power(self, k):
        p = Poly.binomial(k, 0)
        assert p == Poly([0] * k + [1])
        assert p.degree == k

    @pytest.mark.parametrize("c", [0, 1, 3, Q(-2, 5)])
    def test_binomial_of_degree_zero_is_a_constant(self, c):
        # x^0 - c = 1 - c, not x - c
        p = Poly.binomial(0, c)
        assert p == Poly([1 - Q(c)])
        assert p.degree == (-1 if c == 1 else 0)

    @pytest.mark.parametrize("k", [-1, -3])
    def test_binomial_refuses_a_negative_degree(self, k):
        # cs[-1] once wrapped round to the constant term: x^-1 - 2 was Poly(-1)
        with pytest.raises(ValueError, match=f"binomial degree {k} is below 0"):
            Poly.binomial(k, 2)

    def test_rational_roots_vs_sympy(self):
        p = mul(Poly.binomial(1, rat(2)), Poly.binomial(1, Q(-1, 3)), Poly.binomial(1, rat(2)))
        roots = rational_roots(p)
        assert dict(roots) == {rat(2): 2, Q(-1, 3): 1}
        x = sympy.symbols("x")
        expr = sympy.prod([(x - 2) ** 2, (x + sympy.Rational(1, 3))])
        for r, mult in roots:
            assert sympy.roots(expr)[sympy.Rational(str(r))] == mult

    def test_rational_roots_large_constant_term(self):
        # the root 2 is isolated on the Sturm chain; 6 * 10^18 is not factored
        p = mul(Poly([-6 * 10**18, 0, 1]), Poly.binomial(1, rat(2)))
        assert rational_roots(p) == [(rat(2), 1)]

    def test_real_root_count(self):
        # x^2 - 2 has two real roots, x^2 + 1 has none
        assert _int_roots(Poly.binomial(2, rat(2)).ints)[1] == 2
        assert _int_roots(Poly.binomial(2, rat(-1)).ints)[1] == 0

    def test_convolve_matches_the_all_pairs_product(self):
        # _convolve skips zero terms; the product over all pairs is the reference
        rng = random.Random(49)
        for _ in range(500):
            a, b = ([rng.choice((0, 0, 0, 1, -1, 3, -7, 10**20)) for _ in range(rng.randint(1, 9))]
                    for _ in range(2))
            want = [0] * (len(a) + len(b) - 1)
            for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
                want[i + j] += x * y
            assert _convolve(a, b) == want
        assert _convolve([-3, 0, 0, 1], [-1, 0, 1]) == [3, 0, -3, -1, 0, 1]


class TestMinimalPolynomial:
    def test_divides_char_poly(self):
        m = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        mp = minimal_polynomial(m)
        assert mp == Poly.binomial(2, 0)

    def test_diagonal_repeats_collapse(self):
        m = Matrix.diagonal([rat(2), rat(2), rat(3)])
        mp = minimal_polynomial(m)
        assert mp.degree == 2
        assert horner(mp, m) == Matrix.zeros(3, 3)


class TestSmith:
    def test_integer_system(self):
        a = [[2, 0], [0, 3]]
        assert solve_integer_system(a, [4, 9]) == [2, 3]
        assert solve_integer_system(a, [1, 0]) is None


def primitive_inputs_gcd(a, b):
    """int_gcd as it was: both arguments made primitive before the remainder sequence."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, int_prem(a, b)
    return a


def gcd_pairs(count, seed):
    """(a, b) = (c f h, d g h) on random int polynomials, lowest first: a shared factor h,
    a content c, d (rational in every fifth pair), and high zeros (trailing) or an x-power
    in some; b is zero in every twentieth pair."""
    rng = random.Random(seed)

    def poly(top):
        return [rng.randint(-4, 4) for _ in range(rng.randint(0, top))] + [rng.choice((-2, 1, 3))]

    def dressed(p):
        c = rng.choice((1, 1, 2, 6, -3))
        p = [c * x for x in p]
        if rng.random() < 0.2:
            p = [Q(x, rng.randint(1, 5)) for x in p]
        return [0] * rng.randint(0, 2) * (rng.random() < 0.3) + p + [0] * (rng.random() < 0.3)

    out = []
    for i in range(count):
        h = poly(3)
        a, b = dressed(_convolve(poly(4), h)), dressed(_convolve(poly(4), h))
        out.append((a, [0] * (i % 3) if i % 20 == 0 else b))
    return out


class TestIntGcd:
    def test_same_gcd_as_with_both_inputs_primitive(self):
        for a, b in gcd_pairs(3000, 0):
            assert int_gcd(a, b) == primitive_inputs_gcd(a, b), (a, b)

    def test_only_b_is_made_primitive_when_it_is_not_zero(self, monkeypatch):
        # a's content scales every remainder alike, and each remainder is made primitive
        seen, real = [], linalg.primitive
        monkeypatch.setattr(linalg, "primitive", lambda c: seen.append(c) or real(c))
        a, b = [-2, 0, 2], [2, 2]  # 2 (x^2 - 1) and 2 (x + 1)
        assert int_gcd(a, b) == [1, 1]
        assert seen[0] is b and not any(c is a for c in seen)

    @pytest.mark.parametrize("b", [[], [0], [0, 0]])
    def test_zero_b_gives_primitive_a(self, b):
        assert int_gcd([0, 4, 6, 0], b) == [0, 2, 3]
        assert int_gcd([], b) == []


@given(st.builds(Q, st.integers(-99, 99), st.integers(1, 99)),
       st.builds(Q, st.integers(-99, 99), st.integers(1, 99)))
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
