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
from .linalg import Matrix, Poly, Subspace, rational_roots, smith_normal_form
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
    enumerate_factorizations,
    factorizations_equivalent,
    ExistsVerdict,
    exists_nice,
    count_nice,
    indecomposable_family,
    iso_test_almost_abelian,
    parse_matrix,
    serialize_matrix,
    load_matrix,
    save_matrix,
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
    free_nice_predicate,
    carnot_check,
    PredicateFalse,
    DimensionCapExceeded,
    parse_graph,
    serialize_graph,
    load_graph,
    save_graph,
)
from .catalog3 import (
    CatalogEntry,
    catalog,
    classify3,
    cyclic_sign_pattern,
    simple_nice_bases,
)
from .reproduce import run_all
from . import fixtures

__all__ = [name for name in dir() if not name.startswith("_")]
