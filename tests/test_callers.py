"""Every function, class and method defined in src/ has a caller there.

A definition (dunders aside) passes when src/ refers to its name outside
the definition itself, when __init__.py re-exports it, when a decorator
defined in src/ registers it (the reproduce rows), or when ALLOWED names it
with the reason it stays.  A name counts as referred to when a module reads
it as a name or as an attribute, so an API that only tests call fails here.
A read of a name that two definitions share counts for both, so SHARED gives
each definition of every such name the reason it stays.
Outside linalg.py, the int core of a Subspace (_reduce, _add) is called only
where CORE_CALLERS names the caller with its reason.  Only linalg._cleared reads
.denominator to clear denominators; DENOMINATOR_READS names each other read
with its reason.  Only linalg.py reads the Sturm chain _sturm: roots, real-root counts
and squarefree parts come through _int_roots, rational_roots and _radical.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nicebasis"

# name -> why it stays without a caller in src/
ALLOWED = {
    "inverse": "perfbench/tracing.py traces Matrix.inverse as linalg.inverse",
    "solve": "perfbench/tracing.py traces linalg.solve as linalg.echelon",
    "bracket": "perfbench/tracing.py counts LieAlgebra.bracket as lie.bracket",
    "quotient": "the public quotient algebra g / ideal, with its ideal and Jacobi checks",
}

# name defined twice or more (dunders aside) -> {module:qualified name: why that one stays}
SHARED = {
    "of": {
        "almost_abelian.py:BinomialFactorization.of":
            "no caller in src/: builds a factorization from (degree, constant) pairs handed "
            "in from outside, refusing degrees below 1",
        "graphs.py:GraphSpec.of": "load_graph and the reproduce graph rows build checked specs",
    },
    "degree": {
        "almost_abelian.py:BinomialFactorization.degree":
            "_witness_basis builds no nilpotent chains when it equals n",
        "linalg.py:Poly.degree": "the degree that _enumerate's factorizations sum to",
    },
    "dim": {
        "derivations.py:DerivationSpace.dim":
            "no caller in src/: the dimension of Der(g) or Der(g)_0 for callers outside, "
            "named as a Subspace's",
        "linalg.py:Subspace.dim": "a span's rank, which _intertwiners, _witness_basis and "
                                  "classify3 read",
    },
}

# module:function -> why it calls Subspace._reduce or _add, which take int vectors
# unchecked, rather than the doors residue and add
CORE_CALLERS = {
    "lie.py:change_basis": "the int columns of p.num, eliminated once to check p invertible",
    "lie.py:_rebased": "the int columns of p.num, tagged, and the int images that miss them",
    "almost_abelian.py:_cyclic_chain":
        "the chain vectors, int dicts with no zeros made from A's int columns, added to the "
        "trial span",
    "lie.py:quotient": "the algebra's int table rows, reduced modulo the ideal",
    "graphs.py:_quotient": "the free algebra's int brackets, added to the ideal or reduced",
    "derivations.py:_space": "_equations's int rows over the unknowns, their cancelled zeros "
                             "dropped",
}

# module:function -> why it reads .denominator itself rather than through linalg._cleared
DENOMINATOR_READS = {
    "linalg.py:__mul__": "the Matrix scalar product multiplies den by the scalar's",
    "almost_abelian.py:_enumerate":
        "the divisor constants as (d, num, den) triples, for the clash masks and the "
        "primitive binomials den x^d - num that the walk divides by",
    "almost_abelian.py:_witness_basis":
        "the factors as (d, num, den) triples, for _clashes and the primitive binomials "
        "den x^d - num",
    "scalars.py:_coprime_base":
        "refines the denominators with the numerators into one coprime base",
}


def definitions(tree):
    """(name, node) of the module's functions and classes and of their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def references(tree):
    """(name, line) of every name and attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def uncalled(allowed=ALLOWED):
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined = {name for tree in trees.values() for name, _ in definitions(tree)}
    refs = {module: list(references(tree)) for module, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            span = range(node.lineno, node.end_lineno + 1)
            used = any(n == name and not (m == module and line in span)
                       for m, rs in refs.items() for n, line in rs)
            registered = any(isinstance(d, ast.Call) and getattr(d.func, "id", None) in defined
                             for d in getattr(node, "decorator_list", []))
            if not (used or registered or name in exported or name in allowed):
                out.append(f"{module}:{node.lineno} {name}")
    return out


def test_every_definition_has_a_caller_in_src():
    assert uncalled() == []


def test_every_allowed_name_still_needs_its_reason():
    assert sorted(line.split()[1] for line in uncalled(allowed={})) == sorted(ALLOWED)


def shared_definitions():
    """{name: {module:qualified name}} of each name, dunders aside, defined twice or more."""
    found = {}
    for p in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(p.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    qual = item.name if item is node else f"{node.name}.{item.name}"
                    found.setdefault(item.name, set()).add(f"{p.name}:{qual}")
    return {name: places for name, places in found.items() if len(places) > 1}


def test_each_definition_of_a_shared_name_has_its_reason():
    # DerivationSpace.contains, which nothing in src/ called, passed the caller
    # test because Subspace.contains is read
    assert shared_definitions() == {name: set(why) for name, why in SHARED.items()}
    assert all(all(why.values()) for why in SHARED.values())


def test_the_scan_sees_the_package():
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")]
    names = {name for tree in trees for name, _ in definitions(tree)}
    assert {"Matrix", "change_basis", "solve", "_divide"} <= names


def attribute_reads(*attrs):
    """module:function of every read of an attribute in attrs in src/, by the innermost
    def around it."""
    out = set()
    for p in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(p.read_text())
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in attrs:
                around = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                name = min(around, key=lambda d: d.end_lineno - d.lineno).name if around else "-"
                out.add(f"{p.name}:{name}")
    return out


def test_only_cleared_and_the_allowed_sites_read_denominators():
    assert attribute_reads("denominator") == {"linalg.py:_cleared", *DENOMINATOR_READS}


def test_only_linalg_reads_the_sturm_chain():
    # the chain's layout (k, [s, s', ...]) is linalg's to change
    readers = {p.name for p in PACKAGE.glob("*.py")
               if any(name == "_sturm" for name, _ in references(ast.parse(p.read_text())))}
    assert readers == {"linalg.py"}


def test_each_caller_of_the_subspace_core_outside_linalg_has_its_reason():
    # a new caller of _reduce or _add hands it int vectors that no door checks
    calls = attribute_reads("_reduce", "_add")
    assert {c for c in calls if not c.startswith("linalg.py:")} == set(CORE_CALLERS)
    assert all(CORE_CALLERS.values())


def test_the_core_scan_sees_linalg():
    # the doors and the Krylov steps call the core inside linalg
    assert {"linalg.py:residue", "linalg.py:add", "linalg.py:_krylov"} <= \
        attribute_reads("_reduce", "_add")
