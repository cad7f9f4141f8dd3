"""Oracle for linalg.solve_integer_system, the one integer elimination.

The references are the Smith normal form solver and the GF(2) eliminator
that it replaced, kept here as written (smith_normal_form,
solve_integer_system, solve_gf2_system), and brute force over GF(2)^n.
Systems are drawn up to 6 x 6 with entries -3..3; half of them are built as
a x0, so that solvable systems are common.
"""

import itertools

from hypothesis import given, settings, strategies as st

from nicebasis import linalg


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


small = st.integers(-3, 3)


@st.composite
def systems(draw):
    """(a, b): an m x n integer matrix and a right-hand side of length m."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        x0 = draw(st.lists(small, min_size=n, max_size=n))
        b = [sum(r * x for r, x in zip(row, x0)) for row in a]
    else:
        b = draw(st.lists(small, min_size=m, max_size=m))
    return a, b


def product(a, x):
    return [sum(r * y for r, y in zip(row, x)) for row in a]


def mod2_system(a):
    """[a | 2I]: its integer solutions (s, z) are the solutions s of a s = b mod 2."""
    return [row + [2 * (q == r) for q in range(len(a))] for r, row in enumerate(a)]


@given(systems())
@settings(max_examples=400, deadline=None)
def test_agrees_with_smith_reference(system):
    a, b = system
    x, want = linalg.solve_integer_system(a, b), solve_integer_system(a, b)
    assert (x is None) == (want is None)
    if x is not None:
        assert len(x) == len(a[0])
        assert product(a, x) == b


@given(systems())
@settings(max_examples=300, deadline=None)
def test_sign_systems_against_brute_force(system):
    a, b = system
    b = [y % 2 for y in b]
    n = len(a[0])
    x = linalg.solve_integer_system(mod2_system(a), b)
    solutions = [s for s in itertools.product((0, 1), repeat=n)
                 if all(y % 2 == v for y, v in zip(product(a, s), b))]
    assert (x is None) == (not solutions)
    assert (x is None) == (solve_gf2_system([[y & 1 for y in row] for row in a], b) is None)
    if x is not None:
        assert len(x) == n + len(a)
        assert product(mod2_system(a), x) == b
        assert tuple(s % 2 for s in x[:n]) in solutions


def test_edge_shapes():
    solve = linalg.solve_integer_system
    assert solve([], []) == []
    assert solve([[0, 0]], [0]) == [0, 0]
    assert solve([[0, 0]], [1]) is None
    x = solve([[6, 10, 15]], [1])
    assert product([[6, 10, 15]], x) == [1]
    assert solve([[6, 10]], [1]) is None
    # the sign system of t_f^2 = -1, i.e. 2 s = 1 mod 2, has no solution
    assert solve(mod2_system([[2]]), [1]) is None
