"""The work a family witness does, counted.

For indecomposable_family(n), n = 3..7, A is invertible (its characteristic
polynomial x^(2^(n-1)) - 1 has no x-power), so _witness_basis builds no
Jordan chains and never calls kernel_chain.  It forms no power of A and no
kernel: no Matrix product or sum and no int_kernel call, only the one int
Krylov sequence e_0, Ne_0, ..., N^(size-1) e_0 of size - 1 steps by A's
columns, which every factor reads its chain from.  Each cyclic chain is eliminated
once, in the trial span that _cyclic_chain returns: every chain vector is
added to a span of Q^size exactly once, through the int core Subspace._add.
That span proves the witness invertible, so _witness_basis certifies it
through LieAlgebra._rebased, the core of change_basis, and makes no other
addition: size in all.  Called at the door, change_basis adds the n columns
once more to show them independent.  In a nice witness basis every image
is a multiple of one column, so no image is reduced: the only Subspace
residues are those n additions, and no tagged Subspace of Q^(2n) is built.  A monomial basis
(one nonzero per column, in distinct rows), as the last family witness and
the identity that construct_nice_basis returns, is invertible as it stands
and takes no Subspace at all; a sheared identity, not monomial, takes the
n additions again.  The binomials of a family factorization are pairwise
coprime, so rad(q) = q and no polynomial gcd is taken.
"""

import math

import pytest

from nicebasis import GraphSpec, construct_nice_basis, graph_algebra
from nicebasis import almost_abelian, lie
from nicebasis.almost_abelian import _witness_basis, analyze, build, indecomposable_family
from nicebasis.lie import LieAlgebra
from nicebasis.linalg import Matrix, Subspace
from nicebasis.nice import check_nice


def direction(v):
    """The primitive int vector on v's line, positive at its least index."""
    den = math.lcm(*[x.denominator for x in v.values()])
    ints = {k: int(x * den) for k, x in v.items() if x}
    g = math.gcd(*ints.values())
    g = -g if ints[min(ints)] < 0 else g
    return frozenset((k, x // g) for k, x in ints.items())


def recording(monkeypatch, name):
    """Wrap Subspace.<name>; returns the list of (subspace, vector) it is called with."""
    calls = []
    original = getattr(Subspace, name)

    def wrapped(self, *args):
        calls.append((self, *args))
        return original(self, *args)

    monkeypatch.setattr(Subspace, name, wrapped)
    return calls


def never(*args):
    raise AssertionError("kernel_chain called")


@pytest.mark.parametrize("n", range(3, 8))
def test_family_witness_eliminates_each_chain_vector_once(monkeypatch, n):
    a = indecomposable_family(n).a
    size = a.rows
    facts = analyze(a).factorizations
    assert len(facts) == n and all(f.degree == size for f in facts)
    monkeypatch.setattr(almost_abelian, "kernel_chain", never)
    for fact in facts:
        adds = recording(monkeypatch, "_add")
        witness = _witness_basis(a, fact)
        monkeypatch.undo()
        monkeypatch.setattr(almost_abelian, "kernel_chain", never)
        added = [direction(v) for s, v in adds if s.ambient == size]
        chain = [direction({k - 1: x for k, x in witness.columns[j].items()})
                 for j in range(1, size + 1)]
        assert all(added.count(v) == 1 for v in chain)


def refuse(what):
    def raising(*args):
        raise AssertionError(f"{what} called")
    return raising


@pytest.mark.parametrize("n", range(3, 9))
def test_family_witness_adds_size_vectors_and_skips_the_door(monkeypatch, n):
    a = indecomposable_family(n).a
    size = a.rows
    for fact in analyze(a).factorizations:
        adds = recording(monkeypatch, "_add")
        monkeypatch.setattr(LieAlgebra, "change_basis", refuse("LieAlgebra.change_basis"))
        _witness_basis(a, fact)
        monkeypatch.undo()
        assert [s.ambient for s, _ in adds] == [size] * size


@pytest.mark.parametrize("n", range(3, 9))
def test_monomial_family_witness_is_reindexed_by_the_core(monkeypatch, n):
    # the last factorization's witness is monomial: the core re-indexes its table, as
    # the door did, and looks up no image among its columns
    a = indecomposable_family(n).a
    fact = analyze(a).factorizations[-1]
    monkeypatch.setattr(lie, "_Index", refuse("lie._Index"))
    assert is_monomial(_witness_basis(a, fact))


@pytest.mark.parametrize("n", range(2, 9))
def test_family_witness_takes_no_gcd(monkeypatch, n):
    a = indecomposable_family(n).a
    facts = analyze(a).factorizations
    monkeypatch.setattr(almost_abelian, "int_gcd", refuse("int_gcd"))
    for fact in facts:
        assert check_nice(build(a).compiled.change_basis(_witness_basis(a, fact)))


@pytest.mark.parametrize("n", range(3, 8))
def test_family_witness_steps_one_krylov_sequence(monkeypatch, n):
    a = indecomposable_family(n).a
    size = a.rows
    original = almost_abelian.apply_columns
    for fact in analyze(a).factorizations:
        steps = []

        def counted(cols, vec):
            steps.append(cols is a.num)
            return original(cols, vec)

        monkeypatch.setattr(almost_abelian, "apply_columns", counted)
        monkeypatch.setattr(Subspace, "int_kernel", refuse("Subspace.int_kernel"))
        for name in ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__"):
            monkeypatch.setattr(Matrix, name, refuse(f"Matrix.{name}"))
        _witness_basis(a, fact)
        monkeypatch.undo()
        assert steps.count(True) == size - 1


def images_reduced(monkeypatch, alg, p):
    """change_basis(p), the ambients of the Subspace residues it takes and the
    number of its Subspace additions, counted at the int core that it calls."""
    residues = recording(monkeypatch, "_reduce")
    adds = recording(monkeypatch, "_add")
    changed = alg.change_basis(p)
    monkeypatch.undo()
    return changed, [s.ambient for s, _ in residues], len(adds)


def is_monomial(p):
    return all(len(col) == 1 for col in p.num) and len({i for col in p.num for i in col}) == p.cols


@pytest.mark.parametrize("n", range(3, 8))
def test_family_witness_images_are_looked_up(monkeypatch, n):
    a = indecomposable_family(n).a
    compiled = build(a).compiled
    dim = compiled.dim
    facts = analyze(a).factorizations
    monomial = [is_monomial(_witness_basis(a, fact)) for fact in facts]
    assert monomial == [False] * (n - 1) + [True]
    for fact, plain in zip(facts, monomial):
        witness = _witness_basis(a, fact)
        _, ambients, adds = images_reduced(monkeypatch, compiled, witness)
        assert (ambients, adds) == (([], 0) if plain else ([dim] * dim, dim))


GRAPHS = [
    GraphSpec.of(3, [(0, 1), (1, 2)], 3),
    GraphSpec.of(4, [(0, 1), (2, 3)], 4),
    GraphSpec.of(5, [(0, 1), (1, 2), (2, 3), (3, 4)], 3),
]


@pytest.mark.parametrize("spec", GRAPHS, ids=lambda g: f"v{g.vertex_count}e{len(g.edges)}c{g.c}")
def test_graph_identity_images_are_looked_up(monkeypatch, spec):
    alg = graph_algebra(spec)[0]
    p = construct_nice_basis(spec)
    assert p is not None and p.is_square() and p.rows == alg.dim
    changed, ambients, adds = images_reduced(monkeypatch, alg, p)
    assert (ambients, adds) == ([], 0)
    assert changed.brackets == alg.brackets


@pytest.mark.parametrize("spec", GRAPHS, ids=lambda g: f"v{g.vertex_count}e{len(g.edges)}c{g.c}")
def test_graph_sheared_identity_images_are_looked_up(monkeypatch, spec):
    # v1 + z for the last word z, central at the top class: the brackets stay as
    # they are and the basis stays nice, but it is not monomial
    alg = graph_algebra(spec)[0]
    n = alg.dim
    p = Matrix.from_columns([{0: 1, n - 1: 1}] + [{j: 1} for j in range(1, n)], n)
    assert not is_monomial(p)
    changed, ambients, adds = images_reduced(monkeypatch, alg, p)
    assert (ambients, adds) == ([n] * n, n)
    assert changed.brackets == alg.brackets
