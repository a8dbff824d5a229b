"""Procurement path auctions: payment mechanisms and incentive analysis.

A library for buying a source-to-sink path on a directed graph from
self-interested edge owners. It implements classic payment rules
(pay-as-bid, second price, marginal pricing) and a group-sharing rule
with three revenue/truthfulness tradeoff variants, all in exact rational
arithmetic, plus exhaustive small-instance analysis of their incentive
properties.
"""

from .analysis import (
    BidGrid,
    ClassificationResult,
    ConsistencyReport,
    PathGame,
    PropertyReport,
    SingleItemGame,
    agent_optimal_bids,
    alignment_report,
    best_response_set,
    check_critical,
    check_degenerate_vickrey,
    check_group_truthfulness,
    check_partly_truthful,
    check_strongly_critical,
    check_vcg_truthful,
    classify_consistency,
    default_grid,
    mechanism_optimal_profiles,
    random_network,
    selection_probability,
)
from .errors import (
    Disconnected,
    EmptyGroup,
    FormatError,
    GenerationFailed,
    GridTooLarge,
    InsufficientPaths,
    NonpositiveProfit,
    NotSelected,
    PathAuctionError,
    TieError,
    TooLarge,
)
from .fixtures import FIXTURES, fixture
from .graph import (
    Edge,
    Network,
    Path,
    RankedPaths,
    Violation,
    bids_from_json,
    bids_to_json,
    detour_cost,
    enumerate_paths,
    iter_ranked_paths,
    load_network,
    network_from_json,
    network_to_json,
    rank_paths,
    save_network,
    shortest_path,
    validate,
)
from .mechanisms import (
    EQUAL_SPLIT,
    DistributionRule,
    GroupAssignment,
    MechanismSpec,
    PaymentResult,
    classify_groups,
    distribute,
    group_profits,
    group_structure,
    member_gap_schedule,
)
from .rational import format_cost, parse_cost

__version__ = "0.1.0"
