"""Exact-arithmetic toolkit for fair rank-minimizing random assignment.

The package models strict-preference assignment markets with a null type,
computes the uniform and modified rank-minimizing mechanisms over exact
rationals, applies the refusal transform, enumerates outside-option
demotion strategies, and decides dominance relations between reveals
exhaustively.
"""

from .assignment import (
    Assignment,
    Decomposition,
    DeterministicAssignment,
    build_assignment,
    csv_rows,
    decompose,
    deterministic_rank_value,
    is_wasteful,
    rank_value,
    render_matrix,
    wastefulness_witness,
)
from .errors import (
    BudgetError,
    DomainError,
    MarketSpecError,
    RankMechError,
)
from .market import (
    Market,
    PreferenceOrder,
    Profile,
    check_profile,
    order_from_names,
    order_to_names,
)
from .mechanisms import (
    Budget,
    DEFAULT_BUDGET,
    ModifiedPattern,
    RankMinimizingSet,
    check_ete,
    detect_modified_pattern,
    enumerate_rank_minimizers,
    get_mechanism,
    modified_mechanism,
    uniform_mechanism,
)
from .specfile import parse_market_spec, render_market_spec
from .strategy import (
    DominanceQuery,
    DominanceVerdict,
    adversarial_profile,
    check_dominance,
    full_extension,
    ods_promoting,
    ods_set,
    refusal_transform,
    strict_gain_pairs,
)
from .sweeps import (
    SweepOutcome,
    sweep_demotion_strict_gain,
    sweep_demotion_waste,
    sweep_demotion_weak_dominance,
    sweep_ete,
    sweep_no_strict_dominance,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Budget",
    "BudgetError",
    "DEFAULT_BUDGET",
    "Decomposition",
    "DeterministicAssignment",
    "DomainError",
    "DominanceQuery",
    "DominanceVerdict",
    "Market",
    "MarketSpecError",
    "ModifiedPattern",
    "PreferenceOrder",
    "Profile",
    "RankMechError",
    "RankMinimizingSet",
    "SweepOutcome",
    "adversarial_profile",
    "build_assignment",
    "check_dominance",
    "check_ete",
    "check_profile",
    "csv_rows",
    "decompose",
    "detect_modified_pattern",
    "deterministic_rank_value",
    "enumerate_rank_minimizers",
    "full_extension",
    "get_mechanism",
    "is_wasteful",
    "modified_mechanism",
    "ods_promoting",
    "ods_set",
    "order_from_names",
    "order_to_names",
    "parse_market_spec",
    "rank_value",
    "refusal_transform",
    "render_market_spec",
    "render_matrix",
    "strict_gain_pairs",
    "sweep_demotion_strict_gain",
    "sweep_demotion_waste",
    "sweep_demotion_weak_dominance",
    "sweep_ete",
    "sweep_no_strict_dominance",
    "uniform_mechanism",
    "wastefulness_witness",
]
