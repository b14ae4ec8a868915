"""Finite universal algebra toolkit: normal projections, congruence
lattices, term-operation search, and internal abelian group structure."""

from .caps import Caps, DEFAULT_CAPS
from .catalog import Fixture, builtin, list_builtins
from .clones import (Term, TermOp, TermOps, TermSearch, evaluate_term,
                     find_subtraction_term, find_unit_term, generate_term_ops)
from .congruences import (Congruence, all_congruences, cg, join,
                          kernel_congruence, meet)
from .core import (AbeliaError, CapExceeded, FiniteAlgebra, Homomorphism,
                   IncompatiblePartition, InvalidAlgebra, InvalidHomomorphism,
                   POINTED, ParseError, ProductAlgebra, Signature,
                   SignatureMismatch, compose, enumerate_homomorphisms,
                   factor_through_split_epi, free_algebra, hom_violation,
                   identity_hom, is_homomorphism, op_table, pairing_hom,
                   parse_algebra, product, quotient, serialize_algebra,
                   subpower, zero_hom)
from .normalproj import (ConditionFailure, ConditionReport, CrossCheckReport,
                         NpVerdict, PairCrossCheck, centralic_check,
                         check_condition_b, check_condition_d_instances,
                         check_condition_e_instances, check_np_pair,
                         cross_check_conditions, shifting_shape_check)
from .structures import (AbelianResult, AbelianStructure, Construction1Report,
                         Construction2Report, CrystalEntry, CrystalReport,
                         InternalSubtraction, LawVerdict, check_homomorphic,
                         crystallographic_report, derive_abelian,
                         find_internal_subtractions, internal_subtraction_tables,
                         verify_group_law,
                         verify_proof_construction_1,
                         verify_proof_construction_2)

__version__ = "0.1.0"

__all__ = [
    "AbeliaError", "AbelianResult", "AbelianStructure", "Caps", "CapExceeded",
    "ConditionFailure", "ConditionReport", "Congruence", "Construction1Report",
    "Construction2Report", "CrossCheckReport", "CrystalEntry", "CrystalReport",
    "DEFAULT_CAPS", "FiniteAlgebra", "Fixture", "Homomorphism",
    "IncompatiblePartition", "InternalSubtraction", "InvalidAlgebra",
    "InvalidHomomorphism", "LawVerdict", "NpVerdict", "POINTED",
    "PairCrossCheck", "ParseError", "ProductAlgebra", "Signature",
    "SignatureMismatch", "Term", "TermOp", "TermOps", "TermSearch",
    "all_congruences", "builtin", "centralic_check", "cg",
    "check_condition_b", "check_condition_d_instances",
    "check_condition_e_instances", "check_homomorphic", "check_np_pair",
    "compose", "cross_check_conditions", "crystallographic_report",
    "derive_abelian", "enumerate_homomorphisms", "evaluate_term",
    "factor_through_split_epi", "find_internal_subtractions",
    "find_subtraction_term", "find_unit_term", "free_algebra",
    "generate_term_ops", "hom_violation", "identity_hom",
    "internal_subtraction_tables", "is_homomorphism",
    "join", "kernel_congruence", "list_builtins", "meet", "op_table",
    "pairing_hom", "parse_algebra", "product", "quotient",
    "serialize_algebra", "shifting_shape_check", "subpower", "verify_group_law",
    "verify_proof_construction_1", "verify_proof_construction_2", "zero_hom",
]
