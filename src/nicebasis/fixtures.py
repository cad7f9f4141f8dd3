"""Builders for the standard example algebras and matrices used throughout."""

from __future__ import annotations

from .scalars import Q
from .lie import LieAlgebra
from .linalg import Matrix


def heisenberg3() -> LieAlgebra:
    """h3: [X1, X2] = X3."""
    return LieAlgebra(3, {(0, 1): {2: 1}}, names=["X1", "X2", "X3"])


def standard_filiform(n: int) -> LieAlgebra:
    """L_n: [e1, ei] = e(i+1) for i = 2..n-1."""
    if n < 3:
        raise ValueError("need n >= 3")
    return LieAlgebra(n, {(0, i): {i + 1: 1} for i in range(1, n - 1)})


def n6() -> LieAlgebra:
    """The 6-dimensional nilpotent algebra with no nice basis."""
    return LieAlgebra(
        6,
        {
            (0, 1): {3: 1},
            (0, 3): {4: 1},
            (0, 4): {5: 1},
            (1, 2): {5: 1},
            (1, 3): {5: 1},
        },
        names=[f"X{i+1}" for i in range(6)],
    )


def sl2() -> LieAlgebra:
    """[e1,e2] = 2e2, [e1,e3] = -2e3, [e2,e3] = e1."""
    return LieAlgebra(
        3,
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        names=["e1", "e2", "e3"],
    )


def so3() -> LieAlgebra:
    """Cyclic brackets [f1,f2] = f3, [f2,f3] = f1, [f3,f1] = f2."""
    return LieAlgebra(
        3,
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
        names=["f1", "f2", "f3"],
    )


# 2x2 representative matrices of the 3-dimensional solvable families


def matrix_a_lambda(lam) -> Matrix:
    return Matrix.diagonal([1, Q(lam)])


def matrix_b() -> Matrix:
    return Matrix.zeros(2, 2)


def matrix_c() -> Matrix:
    return Matrix([[0, 1], [0, 0]])


def matrix_d() -> Matrix:
    return Matrix([[1, 1], [0, 1]])


def matrix_e(mu) -> Matrix:
    return Matrix([[Q(mu), 1], [-1, Q(mu)]])


def matrix_cyclic(size: int) -> Matrix:
    """Cyclic shift matrix (companion of x^size - 1): e_j -> e_(j+1), the last back to e_1."""
    return Matrix._of(size, [{(j + 1) % size: 1} for j in range(size)])


def matrix_root64() -> Matrix:
    """3x3 block matrix with eigenvalues the three cube roots of 64."""
    return Matrix([[-2, 3, 0], [-4, -2, 0], [0, 0, 4]])


def matrix_complex_pair() -> Matrix:
    """Eigenvalues 1 +- i; no nice basis over the reals."""
    return Matrix([[1, 1], [-1, 1]])
