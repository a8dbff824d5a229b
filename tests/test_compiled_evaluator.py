"""The evaluator's columns against MechanismSpec.run, profile by profile.

Grids use half-unit steps over integer costs, so path costs tie on many
profiles and the tie verdicts are exercised alongside the payments. The
columns' money is in units of 1/ev.scale; every comparison converts it
back to Fractions first. Both fillers are checked: the compiled path table
and the reference, which runs the game's own `run` on single-item games and
on networks past the edge guard.
"""

import gc
import itertools
import math
import re
import weakref
from fractions import Fraction as F

import pytest
from conftest import renamed_owners

from pathauction import (
    BidGrid,
    Disconnected,
    DistributionRule,
    Edge,
    GridTooLarge,
    InsufficientPaths,
    MechanismSpec,
    Network,
    PathGame,
    SingleItemGame,
    TieError,
    alignment_report,
    best_response_set,
    check_partly_truthful,
    check_vcg_truthful,
    default_grid,
    enumerate_paths,
    fixture,
    random_network,
    selection_probability,
)
from pathauction import analysis
from pathauction.graph import ENUMERATION_EDGE_GUARD
from pathauction.mechanisms import MECHANISM_IDS

HALF = F(1, 2)

SPECS = (
    MechanismSpec("fp-path"),
    MechanismSpec("vcg"),
    MechanismSpec("x"),
    MechanismSpec("x", rule=DistributionRule("reverse-rank")),
    MechanismSpec("x", rule=DistributionRule("waterfall", HALF)),
    MechanismSpec("x", rule=DistributionRule("compound", F(1, 7))),
    MechanismSpec("tradeoff2"),
    MechanismSpec("tradeoff3"),
    # tradeoff1: thresholds 0, 1/4, 1/2 and 1, one split rule each, and the
    # equal split at 1/4 too, where its branch reads the cheapest cost.
    MechanismSpec("tradeoff1"),
    MechanismSpec("tradeoff1", threshold=F(1, 4)),
    MechanismSpec("tradeoff1", rule=DistributionRule("reverse-rank"), threshold=F(1, 4)),
    MechanismSpec("tradeoff1", rule=DistributionRule("waterfall", HALF), threshold=HALF),
    MechanismSpec("tradeoff1", rule=DistributionRule("compound", F(1, 7)), threshold=F(1)),
)


def _spec_id(spec):
    """mechanism-split, and -threshold for an equal split with a threshold."""
    threshold = "-threshold" if spec.threshold and spec.rule.kind == "equal" else ""
    return f"{spec.mechanism}-{spec.rule.kind}{threshold}"


RANDOM_NETS = [
    random_network(seed, node_budget=5 + seed % 2, edge_budget=5 + seed % 3)
    for seed in range(50)
]

#: The first 16 random networks with their owners renamed, so that an
#: agent's position in the sorted agent order is not its edge's.
RENAMED_NETS = [renamed_owners(net, seed) for seed, net in enumerate(RANDOM_NETS[:16])]


def _half_grid(net):
    """Half-unit steps above each type, at most about a hundred profiles."""
    cap = 2 if len(net.agents) <= 4 else 1
    return BidGrid.procurement(net.true_cost, HALF, cap)


def _reference(game, bids):
    """One profile's outcome from the game's `run`: the utilities in sorted
    agent order, the mechanism's utility and the selected set; None on a tie."""
    try:
        result = game.run(bids)
    except TieError:
        return None
    return (
        tuple(result.utilities[a] for a in sorted(bids)),
        result.mechanism_utility,
        frozenset(result.selected),
    )


def _row(ev, k):
    """Profile k of `ev`'s columns, as _reference gives it, with the money
    back in Fractions and the selected mask decoded. A tie must read 0 in
    every utility column and an empty mask."""
    utilities = tuple(F(column[k]) / ev.scale for column in ev.utilities)
    mask = ev.selected[k]
    if ev.mechanism_utility[k] is None:
        assert not any(utilities) and mask == 0, k
        return None
    assert mask >> len(ev.agents) == 0, k
    selected = frozenset(a for i, a in enumerate(ev.agents) if mask >> i & 1)
    return utilities, F(ev.mechanism_utility[k]) / ev.scale, selected


def _column_lengths(ev):
    return {len(column) for column in (*ev.utilities, ev.mechanism_utility, ev.selected)}


def _assert_columns_match_reference(ev):
    """Every profile of `ev`'s columns against the game's `run`; the tie count."""
    assert _column_lengths(ev) == {math.prod(ev.sizes)}
    ties = 0
    for k, bids in enumerate(itertools.product(*ev.values)):
        assert ev.bids(ev.profile(k)) == bids
        got = _row(ev, k)
        assert got == _reference(ev.game, dict(zip(ev.agents, bids))), (ev.game.spec, bids)
        ties += got is None
    return ties


def _assert_matches_reference(net, spec):
    ev = analysis._Evaluator(PathGame(net, spec), _half_grid(net))
    assert ev._table is not None
    return _assert_columns_match_reference(ev)


def _net(rows):
    edges = tuple(Edge(eid, tail, head, eid) for eid, tail, head, _ in rows)
    costs = {eid: F(c) for eid, _, _, c in rows}
    nodes = tuple(sorted({n for _, tail, head, _ in rows for n in (tail, head)}))
    return Network(nodes, edges, "X", "Y", costs, dict(costs))


def _boundary_tie_network():
    """Winners a, b; at truthful bids a-e (without b), c-b (without a) and
    d (without both) tie at cost 3.

    The grouping prefix stops at the first path that leaves out the last
    winner still present, so which of the tied paths ranks first decides
    whether the prefix ends before a tie or runs into it. Half-unit bids
    make pairs of these paths tie in both label orders.
    """
    return _net(
        [
            ("a", "X", "M", 1),
            ("b", "M", "Y", 1),
            ("c", "X", "M", 2),
            ("d", "X", "Y", 3),
            ("e", "M", "Y", 2),
        ]
    )


@pytest.mark.parametrize("name", ["fig2", "xsmall", "fig3", "boundary-tie"])
@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_fixture_outcomes_match_reference(name, spec):
    net = _boundary_tie_network() if name == "boundary-tie" else fixture(name)
    _assert_matches_reference(net, spec)


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_random_outcomes_match_reference(spec):
    ties = sum(_assert_matches_reference(net, spec) for net in RANDOM_NETS)
    assert ties > 0


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_renamed_owner_outcomes_match_reference(spec):
    """The table indexes agents by their sorted names and paths by their
    edge ids; where the two orders differ, the outcomes stay the run's."""
    assert any(
        [e.owner for e in net.edges] != sorted(e.owner for e in net.edges) for net in RENAMED_NETS
    )
    ties = sum(_assert_matches_reference(net, spec) for net in RENAMED_NETS)
    assert ties > 0


@pytest.mark.parametrize(
    "spec",
    [
        MechanismSpec("vickrey-single", orientation="forward"),
        MechanismSpec("fp-single", orientation="reverse"),
        MechanismSpec("avg-single", lam=F(1, 3), orientation="forward"),
    ],
    ids=lambda s: f"{s.mechanism}-{s.orientation}",
)
def test_reference_filler_matches_single_item_runs(spec):
    """Without a table the game's own `run` fills the columns, a tied
    winning bid as a tie."""
    game = SingleItemGame({"a": F(3), "b": F(5), "c": F(4)}, spec)
    ev = analysis._Evaluator(game, default_grid(game))
    assert ev._table is None and ev.scale == 1
    assert 0 < _assert_columns_match_reference(ev) < math.prod(ev.sizes)


def test_reference_filler_matches_past_the_edge_guard(parallel_pairs):
    """A 13-stage chain has 26 edges, past ENUMERATION_EDGE_GUARD: the game's
    own `run` fills the columns of every rule, ties among them."""
    net = parallel_pairs(13)
    assert len(net.edges) > ENUMERATION_EDGE_GUARD
    grid = _chain_grid(net, ("a00", "a12", "b05"))
    ties = 0
    for spec in SPECS:
        ev = analysis._Evaluator(PathGame(net, spec), grid)
        assert ev._table is None
        ties += _assert_columns_match_reference(ev)
    assert ties > 0


def test_off_grid_bid_after_evaluation():
    """A bid off the grid with a new denominator: its line grid compiles at
    three times the grid's own scale and matches the reference profile by
    profile."""
    net = fixture("fig2")
    for spec in SPECS:
        grid = BidGrid.procurement(net.true_cost, F(1), 2)
        agent = grid.agents[0]
        plain = analysis._Evaluator(PathGame(net, spec), grid)
        ev = analysis._Evaluator(PathGame(net, spec), analysis._line(grid, {agent: F(7, 3)}))
        assert ev._table is not None and ev.scale == 3 * plain.scale
        assert _column_lengths(ev) == {grid.product_size() // len(grid.bids_for[agent])}
        _assert_columns_match_reference(ev)


def _unequal_grid(net):
    """Half-unit steps above each type, 2, 3, 4, ... bids in agent order."""
    sizes = enumerate(net.agents, 2)
    return BidGrid({a: tuple(net.true_cost[a] + HALF * i for i in range(n)) for n, a in sizes})


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_grid_is_the_outcomes_profile_by_profile(spec):
    """A section of each column of the one-pass grid at each bid holds, in
    opponent-product order, the column of the grid that is that bid's line."""
    net = fixture("fig2")
    game = PathGame(net, spec)

    def money(ev, values):
        return [None if u is None else F(u) / ev.scale for u in values]

    for grid in (_half_grid(net), _unequal_grid(net)):
        ev = analysis._Evaluator(game, grid)
        assert ev._table is not None and _column_lengths(ev) == {grid.product_size()}
        for agent, values in zip(ev.agents, ev.values):
            for pos, bid in enumerate(values):
                line = analysis._Evaluator(game, analysis._line(grid, {agent: bid}))
                for column, whole in zip(ev.utilities, line.utilities):
                    assert money(ev, ev.section(column, agent, pos)) == money(line, whole)
                section = ev.section(ev.mechanism_utility, agent, pos)
                assert money(ev, section) == money(line, line.mechanism_utility)
                assert ev.section(ev.selected, agent, pos) == line.selected


@pytest.mark.parametrize("mechanism", sorted(m for m in MECHANISM_IDS if not m.endswith("-single")))
def test_every_path_rule_compiles_on_fig2(mechanism):
    net = fixture("fig2")
    ev = analysis._Evaluator(PathGame(net, MechanismSpec(mechanism)), _half_grid(net))
    assert ev._table is not None


@pytest.mark.parametrize("mechanism", ["x", "vcg", "tradeoff3", "tradeoff1"])
def test_compiled_money_is_integral_on_fig2(mechanism):
    """On fig2's half-unit grid every equal and tradeoff3 share is whole at
    the table's scale, so no profile of the grid builds a Fraction."""
    net = fixture("fig2")
    ev = analysis._Evaluator(PathGame(net, MechanismSpec(mechanism)), _half_grid(net))
    assert ev._table is not None
    money = [u for u in ev.mechanism_utility if u is not None]
    assert money and all(type(u) is int for u in [*money, *itertools.chain(*ev.utilities)])


def test_partly_truthful_counterexamples_carry_fractions():
    """fp-path leaves a truthful winner nothing, and the checker reports
    that utility as an exact Fraction, as the reference does."""
    net = fixture("fig2")
    report = check_partly_truthful(
        PathGame(net, MechanismSpec("fp-path")), _half_grid(net)
    )
    utilities = [c[3] for c in report.counterexamples if c[0].startswith("selected agent")]
    assert utilities and all(type(u) is F for u in utilities)


@pytest.mark.parametrize("mechanism", ["fp-path", "vcg", "x"])
def test_many_paths_compile_and_match_the_reference(parallel_pairs, mechanism):
    """A 12-stage chain (4,096 paths) compiles, and every profile's outcome
    is MechanismSpec.run's."""
    net = parallel_pairs(12)
    spec = MechanismSpec(mechanism)
    varied = net.agents[:3]
    grid = BidGrid(
        {a: (t, t + F(1, 64)) if a in varied else (t,) for a, t in net.true_cost.items()}
    )
    ev = analysis._Evaluator(PathGame(net, spec), grid)
    assert ev._table is not None and len(ev._table.owners) == 2**12
    assert _assert_columns_match_reference(ev) < grid.product_size()


def _reference_shapes(spec, net, ev):
    """The (chosen path, groups) pairs of the grid's tie-free reference runs."""
    shapes = set()
    for bids in itertools.product(*ev.values):
        try:
            result = spec.run(net, dict(zip(ev.agents, bids)))
        except TieError:
            continue
        groups = tuple(sorted(result.groups.items())) if result.groups else None
        shapes.add((result.chosen_path.edges, groups))
    return shapes


@pytest.mark.parametrize("mechanism", ["fp-path", "x", "tradeoff3"])
def test_shape_cache_holds_one_entry_per_ranking_shape(parallel_pairs, mechanism):
    """The table groups the winners once per ranking shape, its first path
    and each winner's first absence: one entry per shape the reference
    reports (vcg reports no groups, so its shapes are not counted here)."""
    spec = MechanismSpec(mechanism)
    chain = parallel_pairs(12)
    varied = chain.agents[:3]
    chain_grid = BidGrid(
        {a: (t, t + F(1, 64)) if a in varied else (t,) for a, t in chain.true_cost.items()}
    )
    fig2 = fixture("fig2")
    for net, grid in ((fig2, _half_grid(fig2)), (chain, chain_grid)):
        ev = analysis._Evaluator(PathGame(net, spec), grid)
        assert len(ev._table.shapes) == len(_reference_shapes(spec, net, ev))


def _outcome_key(spec, net, bids):
    """What a payment reads, from the reference run and a plain ranking of
    every path: the chosen path, each winner's first absence (fp-path reads
    none), the ranked costs up to the last one and the winners' bids. None
    on a tie."""
    try:
        result = spec.run(net, bids)
    except TieError:
        return None
    chosen = result.chosen_path
    ranking = enumerate_paths(net, bids)
    assert ranking.paths[0] == chosen
    first_absence = {}
    depth = 2
    if spec.mechanism != "fp-path":
        for rank, path in enumerate(ranking.paths):
            for agent in set(chosen.owners) - set(path.owners):
                first_absence.setdefault(agent, rank)
            if len(first_absence) == len(chosen.owners):
                depth = rank + 1
                break
        if result.groups is not None:
            assert first_absence == result.groups
    winner_bids = tuple(bids[a] for a in chosen.owners)
    return chosen.edges, tuple(sorted(first_absence.items())), ranking.costs[:depth], winner_bids


#: Each path rule's default spec and tradeoff1 at a threshold where both
#: branches occur, whose profits the bids never move, and two splits of x
#: whose profits read the winners' bids.
PRICED_SPECS = [
    *((m, MechanismSpec(m), False) for m in sorted(MECHANISM_IDS) if not m.endswith("-single")),
    ("tradeoff1-threshold", MechanismSpec("tradeoff1", threshold=F(1, 4)), False),
    ("x-waterfall", MechanismSpec("x", rule=DistributionRule("waterfall", HALF)), True),
    ("x-reverse-rank", MechanismSpec("x", rule=DistributionRule("reverse-rank")), True),
]


@pytest.mark.parametrize(
    "spec, reads_bids", [s[1:] for s in PRICED_SPECS], ids=[s[0] for s in PRICED_SPECS]
)
def test_each_distinct_outcome_is_priced_once(monkeypatch, spec, reads_bids):
    """On fig2's cap-5 grid the table calls the pricer once per distinct
    (shape, gaps to the cheapest cost), with the cheapest cost too for
    tradeoff1 at a positive threshold and the winners' bids where the
    profits read them, counted here from the reference runs. The gaps merge
    rankings; the columns are still the reference's profile by profile."""
    net = fixture("fig2")
    grid = BidGrid.procurement(net.true_cost, F(1), 5)
    price, calls = analysis._price, []

    def counted(*args):
        calls.append(args)
        return price(*args)

    monkeypatch.setattr(analysis, "_price", counted)
    ev = analysis._Evaluator(PathGame(net, spec), grid)
    monkeypatch.undo()
    profiles = (dict(zip(ev.agents, bids)) for bids in itertools.product(*ev.values))
    keys = {_outcome_key(spec, net, bids) for bids in profiles} - {None}
    rankings = {key[:3] for key in keys}
    gaps = {key: tuple(c - key[2][0] for c in key[2]) for key in keys}
    assert len({(*key[:2], gaps[key]) for key in keys}) < len(rankings) < len(keys)
    reads_low = spec.mechanism == "tradeoff1" and bool(spec.threshold)
    expected = {
        (
            *key[:2],
            gaps[key],
            key[2][0] if reads_low else None,
            key[3] if reads_bids else None,
        )
        for key in keys
    }
    assert len(calls) == len(expected) < len(ev.selected) - ev.mechanism_utility.count(None)
    if not reads_low and not reads_bids:
        assert len(calls) < len(rankings)
    _assert_columns_match_reference(ev)


def _chain_grid(net, varied):
    """Half a unit below and above the type for the `varied` agents; every
    other agent bids its type."""
    return BidGrid(
        {a: (t - HALF, t + HALF) if a in varied else (t,) for a, t in net.true_cost.items()}
    )


#: Chains of 1,024 and 4,096 paths, and the tied 1,024-path chain. In the
#: tied chain b00 below its type and b01 above it keep the tie but lower
#: the double swap's bound below the single swap's, so the scan reaches
#: the two tied paths out of edge-id order.
CHAINS = [
    (10, False, ("a00", "a04", "a09", "b04")),
    (12, False, ("a00", "a11", "b05", "b06")),
    (10, True, ("a05", "b00", "b01", "b04")),
]


@pytest.mark.parametrize(
    "stages, tied, varied", CHAINS, ids=["1024-paths", "4096-paths", "1024-paths-tied"]
)
def test_long_chains_match_the_reference(parallel_pairs, stages, tied, varied):
    net = parallel_pairs(stages, tied)
    grid = _chain_grid(net, varied)
    for spec in SPECS:
        ev = analysis._Evaluator(PathGame(net, spec), grid)
        assert ev._table is not None
        _assert_columns_match_reference(ev)


def test_tied_paths_rank_by_edge_ids_across_the_scan():
    """Winners a and b; f-b leaves out a at cost 5/2. With c at 2, c-b and
    a-e tie at cost 3, where b, the last winner, leaves: a-e ranks first by
    edge ids, so the prefix ends before the tie. c-b's bound, 3 - 1/16, is
    scanned first, with no bound between it and 3, the next one."""
    net = _net(
        [("a", "X", "M", 1), ("b", "M", "Y", 1), ("c", "X", "M", 2), ("e", "M", "Y", 2),
         ("f", "X", "M", F(3, 2))]
    )
    grid = BidGrid({a: (2 - F(1, 16), 2) if a == "c" else (t,) for a, t in net.true_cost.items()})
    for spec in SPECS:
        ev = analysis._Evaluator(PathGame(net, spec), grid)
        assert _assert_columns_match_reference(ev) == 0


def _split_class_network():
    """e1 and e4 lie on the same two paths, e1-e2-e4 and e1-e3-e4, with e2
    and e3 between them, so their series class is not a chain of adjacent
    edges. At truthful bids e1-e3-e4 and e5 tie at cost 4."""
    return _net(
        [("e1", "X", "M", 1), ("e2", "M", "N", 1), ("e3", "M", "N", 2), ("e4", "N", "Y", 1),
         ("e5", "X", "Y", 4)]
    )


def _assert_every_rule_matches_reference(net, grid):
    """The columns of every spec against the reference; the tie count."""
    ties = 0
    for spec in SPECS:
        ev = analysis._Evaluator(PathGame(net, spec), grid)
        assert ev._table is not None
        ties += _assert_columns_match_reference(ev)
    return ties


def test_a_series_class_that_is_not_a_chain_matches_the_reference():
    net = _split_class_network()
    grid = BidGrid.procurement(net.true_cost, HALF, 2)
    table = analysis._Evaluator(PathGame(net, MechanismSpec("x")), grid)._table
    line_class, off_classes = table.classes
    assert table.line == 4 and line_class == (4,) and (0, 3) in off_classes
    assert _assert_every_rule_matches_reference(net, grid) > 0


@pytest.mark.parametrize("name", ["fig2", "split-class"])
def test_lines_along_an_agent_that_is_not_the_last_match_the_reference(name):
    """The first agent has the most bids and the last one a single bid, so
    the lines run at a stride of the middle agents' bid counts."""
    net = fixture("fig2") if name == "fig2" else _split_class_network()
    first, *middle, last = net.agents
    grid = {first: tuple(net.true_cost[first] + HALF * i for i in range(4))}
    grid |= {a: (net.true_cost[a], net.true_cost[a] + HALF) for a in middle}
    grid[last] = (net.true_cost[last] - 1,)
    ev = analysis._Evaluator(PathGame(net, MechanismSpec("x")), BidGrid(grid))
    assert ev._table.line == 0 and ev.strides[0] == 2 ** len(middle)
    assert _assert_every_rule_matches_reference(net, BidGrid(grid)) > 0


def test_one_profile_grids_match_the_reference():
    """fig2 at its types, and with d at 3, where d ties the series route."""
    net = fixture("fig2")
    ties = 0
    for d in (net.true_cost["d"], F(3)):
        grid = BidGrid({a: (b,) for a, b in dict(net.true_cost, d=d).items()})
        ties += _assert_every_rule_matches_reference(net, grid)
    assert ties == len(SPECS)


def test_fixtures_with_renamed_owners_match_the_reference():
    nets = [renamed_owners(fixture(name), seed) for name in ("fig2", "xsmall", "fig3")
            for seed in range(3)]
    assert any([e.owner for e in net.edges] != sorted(e.owner for e in net.edges) for net in nets)
    assert sum(_assert_every_rule_matches_reference(net, _half_grid(net)) for net in nets) > 0


@pytest.mark.parametrize(
    "threshold, branch, total", [(F(2, 5), "vcg", 10), (F(2, 5) - F(1, 100), "x", 6)]
)
def test_tradeoff1_switch_is_exact_at_the_threshold(threshold, branch, total):
    """On fig2 with c bidding 2 and d bidding 6, vcg pays 10 and x pays 6:
    the saving ratio is exactly 2/5. At threshold 2/5 the saving does not
    exceed it, so both the reference and the table keep the vcg payments.
    As a float, 4/10 rounds above 2/5, so a float division would switch."""
    net = fixture("fig2")
    bids = dict(net.true_cost, c=F(2), d=F(6))
    spec = MechanismSpec("tradeoff1", threshold=threshold)
    result = spec.run(net, bids)
    assert (result.branch, result.total) == (branch, total)
    grid = BidGrid({a: (b,) for a, b in bids.items()})
    ev = analysis._Evaluator(PathGame(net, spec), grid)
    assert ev._table is not None
    assert F(ev.mechanism_utility[0]) / ev.scale == -total


# Agent a's edge is a cut: vcg cannot price a, and x cannot group it.
_CUT = [("a", "X", "M", 1), ("b", "M", "Y", 1), ("c", "M", "Y", 2)]
_NO_PATH = [("a", "X", "M", 1), ("b", "Y", "M", 1)]
_ON_EVERY_PATH = "agents ['a'] appear on every source-to-sink path"
# With b and c at 2 the two paths of _CUT tie at 3.
_TIED = {"a": F(1), "b": F(2), "c": F(2)}


@pytest.mark.parametrize(
    "net, message",
    [
        (_net(_CUT), "agent owns a cut: a"),
        (_net(_NO_PATH), "disconnected: no path X -> Y"),
    ],
    ids=["cut", "no-path"],
)
def test_path_game_refuses_what_validate_rejects(net, message):
    """No grid is priced on an invalid network, so the table never meets a
    winner without a detour."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PathGame(net, MechanismSpec("x"))


@pytest.mark.parametrize(
    "rows, mechanism, bids, error, message",
    [
        (_CUT, "vcg", None, Disconnected, "removing agent a disconnects the network"),
        (_CUT, "x", None, InsufficientPaths, _ON_EVERY_PATH),
        (_CUT, "tradeoff2", None, InsufficientPaths, _ON_EVERY_PATH),
        (_NO_PATH, "x", None, Disconnected, "no path X -> Y"),
        (_CUT, "fp-path", _TIED, TieError, "paths ranked 1 and 2 tie at cost 3"),
        (_CUT, "vcg", _TIED, TieError, "paths ranked 1 and 2 tie at cost 3"),
        (_CUT, "x", _TIED, InsufficientPaths, _ON_EVERY_PATH),
        (_CUT, "tradeoff2", _TIED, InsufficientPaths, _ON_EVERY_PATH),
    ],
    ids=["vcg-cut", "x-cut", "tradeoff2-cut", "x-no-path", "fp-path-tie", "vcg-tie", "x-tie",
         "tradeoff2-tie"],
)
def test_reference_run_errors_on_raw_networks(rows, mechanism, bids, error, message):
    """MechanismSpec.run takes networks no PathGame holds. fp-path and vcg
    read only the two cheapest paths, so they report the tie on _CUT; a
    group rule's ranking runs out first, and that is reported before any
    tie."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        MechanismSpec(mechanism).run(_net(rows), bids)


def test_out_of_range_spec_fields_raise_at_construction():
    """A spec checks its own fields when it is built, so neither the
    compiled table nor the reference ever sees an out-of-range one."""
    with pytest.raises(ValueError, match="threshold must lie in"):
        MechanismSpec("tradeoff1", threshold=F(2))
    with pytest.raises(ValueError, match="lam must lie in"):
        MechanismSpec("avg-single", lam=F(3, 2))
    with pytest.raises(ValueError, match="orientation must be forward or reverse"):
        MechanismSpec("vickrey-single", orientation="sideways")


def _analysis_results(net, spec):
    game = PathGame(net, spec)
    grid = _half_grid(net)
    # A custom grid that leaves out every truthful type.
    off_grid = BidGrid({a: tuple(t + HALF + i for i in range(2)) for a, t in net.true_cost.items()})
    agent = net.agents[0]
    opponents = {a: grid.bids_for[a][-1] for a in net.agents if a != agent}
    return (
        alignment_report(game, grid),
        alignment_report(game, grid, "all"),
        check_vcg_truthful(game, grid),
        check_vcg_truthful(game, off_grid),
        check_partly_truthful(game, grid),
        check_partly_truthful(game, off_grid),
        [selection_probability(game, grid, a, b) for a in net.agents for b in grid.bids_for[a]],
        [selection_probability(game, off_grid, a, t) for a, t in net.true_cost.items()],
        best_response_set(game, grid, agent, opponents),
    )


@pytest.mark.parametrize(
    "spec",
    SPECS,
    ids=lambda s: _spec_id(s).replace("-equal", ""),
)
def test_analysis_is_unchanged_without_the_table(monkeypatch, spec):
    nets = [fixture("fig2"), _boundary_tie_network(), *RANDOM_NETS[:4]]
    compiled = [_analysis_results(net, spec) for net in nets]
    monkeypatch.setattr(analysis, "_compile", lambda *args: None)
    assert [_analysis_results(net, spec) for net in nets] == compiled


def _lone_half_grids(net):
    """One grid per agent, in which that agent alone bids on halves, t + 1/2
    and t + 3/2, off its truthful bid t; every other agent bids t or t + 1."""
    for agent in net.agents:
        yield BidGrid(
            {a: (t + HALF, t + 3 * HALF) if a == agent else (t, t + 1)
             for a, t in net.true_cost.items()}
        )


@pytest.mark.parametrize("mechanism", ["fp-path", "vcg", "x", "tradeoff2"])
def test_vcg_truthful_converts_the_line_of_an_off_grid_truth(monkeypatch, mechanism):
    """The truthful bid off the grid is priced on its own line grid, whose
    scale lacks the grid's halves; its money converts to the grid's units,
    so the verdicts and rows are the reference's."""
    nets = [fixture(name) for name in ("fig2", "xsmall", "fig3")]
    nets += [_boundary_tie_network(), *RANDOM_NETS[:5]]
    games = [(PathGame(net, MechanismSpec(mechanism)), net) for net in nets]
    cases = [(game, grid) for game, net in games for grid in _lone_half_grids(net)]
    compiled = [check_vcg_truthful(game, grid) for game, grid in cases]
    monkeypatch.setattr(analysis, "_compile", lambda *args: None)
    assert [check_vcg_truthful(game, grid) for game, grid in cases] == compiled


def test_product_guard_fires_before_anything_is_compiled(monkeypatch):
    """example1's cap-3 grid holds 4**16 profiles, and any one agent's line
    4**15: each call is refused on the count before a table is compiled."""

    def compile_(*args):
        raise AssertionError("compiled a grid past the product guard")

    net = fixture("example1")
    game = PathGame(net, MechanismSpec("vcg"))
    grid = BidGrid.procurement(net.true_cost, F(1), 3)
    monkeypatch.setattr(analysis, "_compile", compile_)
    for check in (alignment_report, check_vcg_truthful, check_partly_truthful):
        with pytest.raises(GridTooLarge, match=f"^profile space {4**16} exceeds 1000000$"):
            check(game, grid)
    agent = net.agents[0]
    with pytest.raises(GridTooLarge, match=f"^profile space {4**15} exceeds 1000000$"):
        selection_probability(game, grid, agent, net.true_cost[agent])


def test_reference_evaluator_is_freed_without_the_cycle_collector():
    """An evaluator without a table calls the game's `run` while it fills
    its columns and keeps no reference to it, so no reference cycle keeps
    it alive; nor does a table, whose shape cache holds only tuples and
    ints."""
    single = SingleItemGame({"a": F(3), "b": F(5)})
    ev = analysis._Evaluator(single, default_grid(single))
    assert ev._table is None and _column_lengths(ev) == {15}
    net = fixture("fig2")
    compiled = analysis._Evaluator(PathGame(net, MechanismSpec("x")), _half_grid(net))
    assert compiled._table.shapes
    refs = [weakref.ref(ev), weakref.ref(compiled), weakref.ref(compiled._table)]
    gc.disable()
    try:
        del ev, compiled
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
