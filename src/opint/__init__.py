"""Finite categorical operads, their integration 2-categories, and the
executable checks certifying the equivalence between the two."""

from .surjections import (
    CompositionError, Surjection, bang, block_cut, compose, enumerate_surjections,
    from_fiber_sizes, identity_surjection, induced_map, ordinal_sum, parse_surjection,
)
from .fincat import (
    FinCat, Functor, enumerate_functors, poset_category, product, is_terminal,
    terminal_category, terminal_object, validate_category, validate_functor,
)
from .trees import (
    LEAF, contracts_to, corolla, enumerate_trees, graft, leaves, tree_from_json,
    tree_to_json,
)
from .operads import (
    ArityMismatch, OperadMorphism, TruncatedOperad, TruncationOverflow,
    check_associativity, check_unitality, identity_operad_morphism,
    morphism_to_terminal, nat_operad, terminal_operad, tree_operad,
    validate_operad, validate_operad_morphism, validate_structure,
)
from .integration import (
    Integration, IntegrationMap, InvalidOperad, LaxTriangle, OneCell, TwoCell,
    ZeroCell, check_factorization, check_projection, check_two_category_laws,
    integrate, integrate_morphism,
)
from .operadic import (
    Certificate, DeltaSTwoCat, ExtractionError, OperadicTwoCat, SplitFibrationData,
    canonical_fibration, check_all_lifts_cartesian,
    check_full_faithfulness, check_integration_map, check_operadic_axioms,
    check_splitting, check_trivial_subcategory, delta_s,
    enumerate_lift_preserving_2functors, enumerate_operad_morphisms, extract_operad,
    is_operadic_cartesian, is_trivial, roundtrip_2cat, roundtrip_operad,
    trivial_subcategory,
)
from .report import DEFAULT_CAP, Report

__all__ = [name for name in dir() if not name.startswith("_")]
