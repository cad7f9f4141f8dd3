"""Exact-arithmetic tools for nice bases of rational Lie algebras.

A basis is nice when every bracket of two basis vectors is a multiple of
a single basis vector and no two distinct basis pairs sharing a vector
hit the same target. The package decides existence of nice bases,
constructs witnesses, and counts them up to equivalence for several
families: direct sums, almost abelian algebras, three-dimensional
algebras, and nilpotent algebras associated to graphs.

All arithmetic is exact over the rationals.
"""

from .scalars import Q, rat, fmt
from .linalg import Matrix, Poly, Subspace, rational_roots, similar
from .lie import (
    LieAlgebra,
    direct_sum,
    abelian,
    parse_lie,
    serialize_lie,
    load_lie,
    save_lie,
)
from .nice import (
    NiceVerdict,
    check_nice,
    check_adapted,
    MonomialMap,
    monomial_equivalent,
    InputBasisNotNice,
)
from .derivations import (
    DerivationSpace,
    PreEinstein,
    NotNiceBasis,
    derivation_space,
    diagonal_derivations,
    is_derivation,
    pre_einstein_nice,
    pre_einstein_general_check,
    ln_closed_form,
    spectra_disjoint,
    nu_product_rule,
    simple_spectrum_unique,
)
from .almost_abelian import (
    AlmostAbelian,
    analyze,
    build,
    BinomialFactorization,
    ExistsVerdict,
    exists_nice,
    count_nice,
    indecomposable_family,
    iso_test_almost_abelian,
    parse_matrix,
    serialize_matrix,
    load_matrix,
)
from .graphs import (
    GraphSpec,
    LyndonBasis,
    lyndon_words,
    standard_factorization,
    free_nilpotent,
    witt_dimension,
    graph_algebra,
    nice_predicate,
    construct_nice_basis,
    PredicateFalse,
    DimensionCapExceeded,
    parse_graph,
    load_graph,
)
from .catalog3 import (
    CatalogEntry,
    catalog,
    classify3,
    cyclic_sign_pattern,
    simple_nice_bases,
)
from . import fixtures

__all__ = [name for name in dir() if not name.startswith("_")] + ["reproduce", "run_all"]


def __getattr__(name):
    """Load reproduce and run_all on first access (PEP 562), not at import."""
    if name in ("reproduce", "run_all"):
        from .reproduce import run_all  # importing the module binds the global reproduce
        return run_all if name == "run_all" else globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
