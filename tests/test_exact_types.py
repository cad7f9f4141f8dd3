"""The exactness contract at the Matrix and derivation boundaries.

Matrix keeps int columns over one denominator and hands out Fractions only
through its views.  An entry or a scalar factor, a vector entry, a
right-hand side entry, a polynomial coefficient, a derivation entry, a
weight, a claimed pre-Einstein diagonal entry or a value that fmt prints must
be an int (a bool included) or a Fraction: a float is refused with a
ValueError that names it, never stored as its binary expansion.  On integer
and on rational inputs,
every value a caller reads (the views, char_poly and minimal_polynomial,
solve, inverse, the witness, the changed structure constants and the
pre-Einstein matrix and spectrum) is a Fraction, never an int or a float.
char_poly on the n = 8 family matrix creates no Fraction before its 129
coefficients, its analysis one per divisor constant besides them and its
witness none, and pre_einstein_nice on L_28 none but its 28 entries.
"""

import os
from fractions import Fraction

import pytest

from nicebasis import construct_nice_basis, fixtures, graph_algebra, GraphSpec
from nicebasis.almost_abelian import (
    _binomial_divisors,
    _squarefree_part,
    analyze,
    build,
    exists_nice,
    indecomposable_family,
)
from nicebasis.derivations import (
    derivation_space,
    is_derivation,
    ln_closed_form,
    pre_einstein_general_check,
    pre_einstein_nice,
)
from nicebasis.lie import LieAlgebra, load_lie
from nicebasis.linalg import (
    Matrix,
    Poly,
    Subspace,
    char_poly,
    minimal_polynomial,
    solve,
)
from nicebasis.scalars import Q, fmt

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


# --- floats are refused wherever a value enters ---


@pytest.mark.parametrize("make", [
    lambda: Matrix([[1, 0.1]]),
    lambda: Matrix.diagonal([1, 0.5]),
    lambda: Matrix.from_columns([(1, 0.25)]),
    lambda: Matrix.from_columns([{0: 0.75}], 1),
    lambda: LieAlgebra(3, {(0, 1): {2: 0.1}}),
], ids=["Matrix", "diagonal", "from_columns-dense", "from_columns-sparse", "LieAlgebra"])
def test_constructors_refuse_floats(make):
    # LieAlgebra once stored 0.1 as 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match=r"(entry|constant) 0\.\d+ is not an int or a Fraction"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda s: s.add({7: 1}), "vector index 7 out of range 0..2"),
    (lambda s: s.residue({-1: 1}), "vector index -1 out of range 0..2"),
    (lambda s: s.add({0: 0.5}), "vector entry 0.5 is not an int or a Fraction"),
    (lambda s: s.residue((1, 0.0, 0)), "vector entry 0.0 is not an int or a Fraction"),
    (lambda s: s.contains((1, 0)), "vector has 2 entries, the ambient dimension 3"),
    (lambda s: s.add({1: "1"}), "vector entry '1' is not an int or a Fraction"),
    (lambda s: s.residue((0, "1/2", 0)), "vector entry '1/2' is not an int or a Fraction"),
    (lambda s: s.residue((1, 0, 0, 0)), "vector has 4 entries, the ambient dimension 3"),
    (lambda s: s.add((1, 0)), "vector has 2 entries, the ambient dimension 3"),
    (lambda s: s.residue({3: 1}), "vector index 3 out of range 0..2"),
    (lambda s: Subspace(3, [{0: 1}, {2: 0.25}]), "vector entry 0.25 is not an int or a Fraction"),
], ids=["index", "negative-index", "float", "float-zero", "length", "str", "str-dense",
        "residue-length", "add-length", "residue-index", "constructor-float"])
def test_subspace_refuses_what_lies_outside_its_ambient_space(make, message):
    # Subspace(3).add({7: 1}) once answered True, with dim 1 and 3 int_kernel
    # vectors, and add({0: 0.5}) raised AttributeError; the doors check every
    # vector before the int core _reduce or _add sees it
    s = Subspace(3, [{0: 1}])
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(s)
    assert s.rows == {0: {0: 1}} and len(s.int_kernel()) == 2


def test_subspace_and_lie_algebra_take_ints_bools_and_fractions():
    assert Subspace(3).residue({0: True, 2: Q(1, 2), 1: 0}) == ({0: 2, 2: 1}, 2)
    assert Subspace(3).residue((0, 3, 0)) == ({1: 3}, 1)
    g = LieAlgebra(3, {(0, 1): {2: Q(1, 2)}, (0, 2): {2: False}}, check=False)
    assert (g.table[0], g.den) == ({1: {2: 1}}, 2)
    with pytest.raises(ValueError, match="^structure constant '1/2' is not an int or a Fraction$"):
        LieAlgebra(3, {(0, 1): {2: "1/2"}})


def test_scalar_product_refuses_floats():
    m = Matrix([[1]])
    for product in (lambda: m * 0.1, lambda: 0.1 * m):
        with pytest.raises(ValueError, match=r"scalar 0\.1 is not an int or a Fraction"):
            product()


@pytest.mark.parametrize("make, what", [
    (lambda: Matrix.identity(2).apply((0.1, 0)), "vector entry 0.1"),
    (lambda: solve(Matrix.identity(2), (0.5, Q(1, 10))), "right-hand side entry 0.5"),
    (lambda: Poly([0.1, 1]), "polynomial coefficient 0.1"),
    (lambda: Poly.binomial(2, 0.5), "binomial constant 0.5"),
], ids=["apply", "solve", "Poly", "binomial"])
def test_vectors_right_hand_sides_and_coefficients_refuse_floats(make, what):
    # each once went through Q(x): 0.1 became 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match=f"^{what} is not an int or a Fraction$"):
        make()


@pytest.mark.parametrize("value", [0.1, "1/2", None], ids=["float", "str", "None"])
def test_fmt_refuses_what_is_not_exact(value):
    # fmt was str(Q(value)): 0.1 printed as 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match=f"^value {value!r} is not an int or a Fraction$"):
        fmt(value)


def test_fmt_prints_ints_bools_and_fractions_without_a_new_fraction(monkeypatch):
    values = [0, -7, True, False, Q(6, 4), Q(-3), Q(0)]
    printed, made = fractions_made(monkeypatch, lambda: [fmt(x) for x in values])
    assert printed == ["0", "-7", "1", "0", "3/2", "-3", "0"]
    assert made == 0


@pytest.mark.parametrize("make, what", [
    (lambda g: pre_einstein_general_check(g, [0.1, 0.2, 0.3, 0.4]), "diagonal entry 0.1"),
    (lambda g: is_derivation(g, {(0, 0): 0.5}), "entry 0.5"),
    (lambda g: is_derivation(g, {(1, 1): Q(1), (0, 0): 0.5}), "entry 0.5"),
    (lambda g: derivation_space(g, [0.1 + 0.2, 0.3, 1.0, 2.0]), "weight 0.30000000000000004"),
], ids=["general_check", "is_derivation", "is_derivation-after-a-Q", "weights"])
def test_derivation_boundaries_refuse_floats(make, what):
    # the check once read 0.1 as 3602879701896397/36028797018963968 and answered
    # not_derivation, is_derivation raised AttributeError, and the weights put
    # 0.1 + 0.2 and 0.3 in two blocks: dimension 2 where 3 is right
    with pytest.raises(ValueError, match=f"^{what} is not an int or a Fraction$"):
        make(fixtures.standard_filiform(4))


def test_derivation_boundaries_take_ints_bools_and_fractions():
    g = fixtures.standard_filiform(4)
    assert derivation_space(g, [Q(3, 10), Q(3, 10), 1, 2]).dim == 3
    assert derivation_space(g, [True, 1, Q(2), 3]) is derivation_space(g, [1, 1, 2, 3])
    assert is_derivation(g, {(0, 0): True, (2, 2): 1, (3, 3): Q(2)})
    assert pre_einstein_general_check(g, [1, 1, 2, 3])[1][0] == "trace"


def test_ints_bools_and_fractions_are_taken():
    assert Matrix([[True, False], [0, Q(2, 4)]]) == Matrix([[1, 0], [0, Q(1, 2)]])
    assert Matrix([[3]]) * True == Matrix([[3]]) * Q(1) == Matrix.diagonal([3])
    assert Matrix([[Q(1, 2), 2]]) * Q(-2, 3) == Matrix([[Q(-1, 3), Q(-4, 3)]])


@pytest.mark.parametrize("entries, num, den", [
    ([[1, 2], [3, 4]], ({0: 1, 1: 3}, {0: 2, 1: 4}), 1),
    ([[Q(1, 2), 0], [Q(1, 3), Q(4, 2)]], ({0: 3, 1: 2}, {1: 12}), 6),
    ([[0, 0]], ({}, {}), 1),
], ids=["ints", "rationals", "zero"])
def test_int_columns_over_the_least_denominator(entries, num, den):
    m = Matrix(entries)
    assert (m.num, m.den) == (num, den)
    assert all(type(x) is int for c in m.num for x in c.values())
    # every operation keeps the least denominator, so equal matrices store alike
    assert (m * 2 * Q(1, 2)).den == m.den and (m + m - m).num == m.num


# --- every value read off integer and rational inputs is a Fraction ---


def fractions_only(values):
    values = list(values)
    assert all(type(x) is Fraction for x in values), {type(x) for x in values}
    return values


def family_conjugate(n):
    """The family matrix conjugated by a signed permutation: an integer input."""
    a = indecomposable_family(n).a
    size = a.rows
    perm = [(3 * i + 1) % size for i in range(size)]
    return Matrix([[(-1) ** (i + j) * a[perm[i], perm[j]] for j in range(size)]
                   for i in range(size)])


INPUTS = {
    "integer": Matrix([[2, 1, 0], [1, 1, 0], [0, 3, 5]]),
    "rational": Matrix([[Q(2, 3), 1, 0], [Q(-1, 2), 1, 0], [0, Q(3, 4), 5]]),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_matrix_values_are_fractions(name):
    m = INPUTS[name]
    n = m.rows
    fractions_only(x for c in m.columns for x in c.values())
    fractions_only(x for row in m.data for x in row)
    fractions_only(m[i, j] for i in range(n) for j in range(n))
    fractions_only(m.data[1] + m.apply((1, 0, 2)))
    for derived in (m * m, m + m, -m, m.transpose(), m * 3, m * m * m, m.inverse()):
        fractions_only(x for row in derived.data for x in row)
    assert m * m.inverse() == Matrix.identity(n)
    fractions_only(char_poly(m).coeffs + minimal_polynomial(m).coeffs + (m.det(),))
    for rhs in ((1, 2, 3), (Q(1, 2), 0, Q(-7, 3))):
        x = solve(m, rhs)
        fractions_only(x)
        assert m.apply(x) == tuple(map(Q, rhs))
    singular = Matrix([[1, 2, 3], [2, 4, 6], [Q(1, 2), 1, Q(3, 2)]])
    kernel = Subspace(3, singular.transpose().num).int_kernel()  # a Subspace makes no Fraction
    assert kernel and all(type(x) is int for v in kernel for x in v.values())


@pytest.mark.parametrize("scale", [1, Q(1, 2)], ids=["integer", "rational"])
@pytest.mark.parametrize("n", [3, 4])
def test_witness_and_changed_constants_are_fractions(n, scale):
    a = family_conjugate(n) * scale
    verdict = exists_nice(a)
    assert verdict.status == "yes"
    w = verdict.witness
    fractions_only(x for row in w.data for x in row)
    fractions_only(x for c in w.columns for x in c.values())
    changed = build(a).compiled.change_basis(w)
    fractions_only(x for comps in changed.brackets.values() for x in comps.values())
    fractions_only(char_poly(a).coeffs + minimal_polynomial(a).coeffs)


def test_changed_constants_of_a_graph_algebra_are_fractions():
    spec = GraphSpec.of(4, [(0, 1), (1, 2), (2, 3)], 3)
    alg = graph_algebra(spec)[0]
    for p in (construct_nice_basis(spec), Matrix.identity(alg.dim) * Q(-2, 3)):
        changed = alg.change_basis(p)
        fractions_only(x for comps in changed.brackets.values() for x in comps.values())


@pytest.mark.parametrize("make", [fixtures.heisenberg3, lambda: fixtures.standard_filiform(7),
                                  lambda: load_lie(os.path.join(FIXTURES, "n7_extension.lie"))],
                         ids=["h3", "L7", "n7_extension"])
def test_pre_einstein_matrix_and_spectrum_are_fractions(make):
    g = make()
    pe = pre_einstein_nice(g)
    n = g.dim
    fractions_only(pe.spectrum)
    fractions_only(pe.matrix[i, j] for i in range(n) for j in range(n))
    fractions_only(x for c in pe.matrix.columns for x in c.values())
    assert pe.spectrum == tuple(sorted(pe.matrix[i, i] for i in range(n)))


# --- char_poly and pre_einstein_nice step ints: few Fractions are made ---


def fractions_made(monkeypatch, f, *args):
    """(f(*args), the number of Fractions it created)."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    out = f(*args)
    monkeypatch.undo()
    return out, len(made)


def test_family_char_poly_makes_only_its_coefficients(monkeypatch):
    p, made = fractions_made(monkeypatch, char_poly, indecomposable_family(8).a)
    assert p == Poly.binomial(128, 1)
    assert made <= 129


def test_family_analysis_makes_one_fraction_per_divisor_constant(monkeypatch):
    # the analysis reads char_poly's int coefficients, not its Fractions: 550
    # Fractions while each step converted between the two
    a = indecomposable_family(8).a
    divisors, _ = _binomial_divisors(_squarefree_part(char_poly(a))[0])
    analyze.cache_clear()
    analysis, made = fractions_made(monkeypatch, analyze, a)
    assert analysis.count() == 8
    assert made <= 129 + len(divisors)
    verdict, made = fractions_made(monkeypatch, analysis.exists)
    assert verdict.status == "yes" and made == 0


def test_pre_einstein_nice_makes_few_fractions(monkeypatch):
    # N runs as int weights over one denominator from the Gram solve, made in ints,
    # through its certificate; the only Fractions made are the matrix view's, one per
    # nonzero entry, which spectrum reads (171 while N stepped in Fractions, 30 while
    # the Gram system was solved over Q)
    g = fixtures.standard_filiform(28)
    pe, made = fractions_made(monkeypatch, pre_einstein_nice, g)
    assert made <= g.dim
    d1, d2 = ln_closed_form(28)
    assert pe.spectrum == tuple(sorted([d1, d2] + [k * d1 + d2 for k in range(1, 27)]))
