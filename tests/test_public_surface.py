"""The public names of `pathauction`, pinned so that adding or removing one
is a deliberate, reviewed change (removals are listed in CHANGES.md)."""

import types

import pathauction

PUBLIC_NAMES = [
    "BidGrid",
    "ClassificationResult",
    "ConsistencyReport",
    "Disconnected",
    "DistributionRule",
    "EQUAL_SPLIT",
    "Edge",
    "EmptyGroup",
    "FIXTURES",
    "FormatError",
    "GenerationFailed",
    "GridTooLarge",
    "GroupAssignment",
    "InsufficientPaths",
    "MechanismSpec",
    "Network",
    "NonpositiveProfit",
    "Path",
    "PathAuctionError",
    "PathGame",
    "PaymentResult",
    "PropertyReport",
    "RankedPaths",
    "SingleItemGame",
    "TieError",
    "TooLarge",
    "Violation",
    "alignment_report",
    "best_response_set",
    "bids_from_json",
    "bids_to_json",
    "check_critical",
    "check_degenerate_vickrey",
    "check_group_truthfulness",
    "check_partly_truthful",
    "check_strongly_critical",
    "check_vcg_truthful",
    "classify_consistency",
    "classify_groups",
    "default_grid",
    "detour_cost",
    "distribute",
    "enumerate_paths",
    "fixture",
    "format_cost",
    "group_profits",
    "group_structure",
    "iter_ranked_paths",
    "network_from_json",
    "network_to_json",
    "parse_cost",
    "random_network",
    "rank_paths",
    "save_network",
    "selection_probability",
    "validate",
]


def test_public_names_are_pinned():
    public = sorted(
        name
        for name in dir(pathauction)
        if not name.startswith("_")
        and not isinstance(getattr(pathauction, name), types.ModuleType)
    )
    assert public == PUBLIC_NAMES
