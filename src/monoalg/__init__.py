"""Exact decomposition of simplicial affine semigroup rings into shifted
monomial ideals over the free frame ring, ring-property tests, and
combinatorial regularity with the degree-minus-codimension bound check."""

from . import errors
from .decomposition import (
    Decomposition,
    MonomialIdeal,
    Summand,
    decompose,
    hilbert_verify,
)
from .homology import (
    BettiTable,
    RegularityReport,
    analyze,
    betti_ideal,
    betti_multigraded,
    depth_of,
    reg_of,
)
from .intlinalg import (
    FiniteAbelianGroup,
    hermite_normal_form,
    lattice_basis,
    quotient_group,
    smith_normal_form,
)
from .properties import (
    PropertyReport,
    full_report,
    is_buchsbaum,
    is_cohen_macaulay,
    is_gorenstein,
    is_normal,
    is_seminormal,
)
from .semigroup import AffineSemigroup, DegreeFunctional, Frame, validate
from .sweep import SweepConfig, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AffineSemigroup",
    "BettiTable",
    "Decomposition",
    "DegreeFunctional",
    "FiniteAbelianGroup",
    "Frame",
    "MonomialIdeal",
    "PropertyReport",
    "RegularityReport",
    "Summand",
    "SweepConfig",
    "analyze",
    "betti_ideal",
    "betti_multigraded",
    "decompose",
    "depth_of",
    "errors",
    "full_report",
    "hermite_normal_form",
    "hilbert_verify",
    "is_buchsbaum",
    "is_cohen_macaulay",
    "is_gorenstein",
    "is_normal",
    "is_seminormal",
    "lattice_basis",
    "quotient_group",
    "reg_of",
    "run_sweep",
    "smith_normal_form",
    "validate",
]
