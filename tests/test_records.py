"""The result records: eleven immutable NamedTuples.

Each keeps its field names and order, compares and hashes by its fields, refuses
assignment to a field and prints as ClassName(field=value, ...).  NiceVerdict and
ExistsVerdict read as their verdict; an equal GraphSpec is served by the quotient
cache; DerivationSpace, whose unknowns are a dict, refuses hash, gives its
dimension as dim, so that _replace and _make work, and builds its basis on each read.
"""

import ast
from pathlib import Path

import pytest

from nicebasis import fixtures, graphs
from nicebasis.almost_abelian import (
    AlmostAbelian,
    Analysis,
    BinomialFactorization,
    ExistsVerdict,
    build,
)
from nicebasis.catalog3 import CatalogEntry
from nicebasis.derivations import DerivationSpace, PreEinstein, derivation_space
from nicebasis.graphs import GraphSpec, LyndonBasis, graph_algebra
from nicebasis.linalg import Matrix, Subspace
from nicebasis.nice import MonomialMap, NiceVerdict, check_nice
from nicebasis.scalars import Q

A = Matrix([[1, 0], [0, -1]])
FACTORS = BinomialFactorization.of([(1, 1), (1, -1)])
H3_DIAGONAL = derivation_space(fixtures.heisenberg3(), range(3))

# type -> (its field names in their old order, field values for one record)
RECORDS = {
    NiceVerdict: (("is_nice", "violations"), (True, ())),
    MonomialMap: (("sigma", "scales"), ((1, 0), (Q(1), Q(2)))),
    GraphSpec: (("vertex_count", "edges", "c"), (3, frozenset({frozenset({0, 1})}), 2)),
    LyndonBasis: (("words", "supports"), (((0,), (1,), (0, 1)), (1, 2, 3))),
    PreEinstein: (("matrix", "spectrum"), (Matrix.diagonal([1, 2]), (1, 2))),
    CatalogEntry: (("name", "matrix", "algebra", "nu", "nice_bases", "parameter"),
                   ("h3", None, fixtures.heisenberg3(), 1, (Matrix.identity(3),), Q(1, 2))),
    AlmostAbelian: (("a", "compiled"), (A, build(A).compiled)),
    BinomialFactorization: (("factors",), (FACTORS.factors,)),
    ExistsVerdict: (("status", "witness", "reason", "factorization"),
                    ("yes", Matrix.identity(3), None, FACTORS)),
    Analysis: (("a", "nilpotent", "semisimple", "factorizations", "irrational"),
               (A, False, True, (FACTORS,), False)),
    DerivationSpace: (("unknowns", "system"), (H3_DIAGONAL.unknowns, H3_DIAGONAL.system)),
}


def record(cls):
    return cls(*RECORDS[cls][1])


def fields(cls):
    return RECORDS[cls][0]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_keep_their_order(cls):
    assert cls._fields == fields(cls)
    assert tuple(record(cls)) == RECORDS[cls][1]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records(cls):
    r, s = record(cls), record(cls)
    assert r is not s and r == s and not r != s
    if cls is DerivationSpace:  # its unknowns are a dict, as before
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(s) == hash(tuple(getattr(r, f) for f in fields(cls)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_field_cannot_be_assigned(cls):
    r = record(cls)
    for f in fields(cls):
        before = getattr(r, f)
        with pytest.raises(AttributeError):
            setattr(r, f, None)
        assert getattr(r, f) is before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_names_each_field(cls):
    r = record(cls)
    body = ", ".join(f"{f}={getattr(r, f)!r}" for f in fields(cls))
    assert repr(r) == f"{cls.__name__}({body})"


def test_repr_examples():
    assert repr(GraphSpec.of(3, [(0, 1)], 2)) == \
        "GraphSpec(vertex_count=3, edges=frozenset({frozenset({0, 1})}), c=2)"
    assert repr(ExistsVerdict("no", reason="r")) == \
        "ExistsVerdict(status='no', witness=None, reason='r', factorization=None)"
    assert repr(derivation_space(fixtures.heisenberg3(), range(3))) == (
        "DerivationSpace(unknowns={(0, 0): 0, (1, 1): 1, (2, 2): 2}, "
        "system=Subspace(dim=1 in Q^3))")


@pytest.mark.parametrize("make, want", [
    (fixtures.heisenberg3, True),
    (fixtures.n6, False),
], ids=["h3", "n6"])
def test_a_nice_verdict_reads_as_its_verdict(make, want):
    verdict = check_nice(make())
    assert bool(verdict) is want is verdict.is_nice
    assert bool(NiceVerdict(False, ())) is False


@pytest.mark.parametrize("status, want", [
    ("yes", True), ("no", False), ("unknown-irrational", False),
])
def test_an_exists_verdict_reads_as_its_verdict(status, want):
    assert bool(ExistsVerdict(status)) is want


def test_count_shadows_tuple_count():
    analysis = Analysis(A, False, True, (FACTORS,), False)
    assert analysis.count() == 1
    assert Analysis(A, True).count() == 1 and Analysis(A, False, False).count() == 0


def test_an_equal_spec_is_served_by_the_quotient_cache():
    g = GraphSpec.of(4, [(0, 1), (1, 2), (2, 3)], 3)
    alg = graph_algebra(g)[0]
    same = GraphSpec.of(4, [(3, 2), (1, 0), (2, 1)], 3)
    assert same is not g and same == g
    assert graph_algebra(same)[0] is alg
    assert graphs._quotient.cache_info().hits == 1


def test_the_derivation_space_basis_is_built_on_each_read():
    s = derivation_space(fixtures.heisenberg3())
    assert s.basis == s.basis
    assert s.dim == len(s.basis) == 6
    assert s == tuple(s) == (s.unknowns, s.system)  # a plain tuple of its fields


def test_a_derivation_space_round_trips_through_replace_and_make():
    # both count the fields with len(), which a dimension-valued __len__ broke
    s = derivation_space(fixtures.heisenberg3())
    unsolved = s._replace(system=Subspace(len(s.unknowns)))
    assert unsolved.unknowns is s.unknowns and unsolved.dim == len(s.unknowns) == 9
    assert unsolved._replace(system=s.system) == s
    assert DerivationSpace._make([s.unknowns, s.system]) == s


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nicebasis"


def classes_with_fields():
    """(module, class, its bases) for each class in src/ whose body annotates a field."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.AnnAssign) for item in node.body):
                yield path.stem, node.name, [ast.unparse(b) for b in node.bases]


def test_every_record_is_a_named_tuple():
    found = list(classes_with_fields())
    assert {name for _, name, _ in found} == {cls.__name__ for cls in RECORDS}
    assert [(m, name) for m, name, bases in found if bases != ["NamedTuple"]] == []
