import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from pathauction import (
    EQUAL_SPLIT,
    FIXTURES,
    DistributionRule,
    Edge,
    InsufficientPaths,
    MechanismSpec,
    Network,
    NotSelected,
    SingleItemGame,
    TieError,
    enumerate_paths,
    fixture,
    member_gap_schedule,
)
from pathauction import graph as graph_module

SPLIT_RULES = (
    EQUAL_SPLIT,
    DistributionRule("reverse-rank"),
    DistributionRule("waterfall", F(1, 2)),
    DistributionRule("compound", F(1, 2)),
)


def test_switch_picks_group_sharing_under_low_threshold(example1):
    res = MechanismSpec("tradeoff1", threshold=F(1, 4)).run(example1, example1.true_cost)
    assert res.branch == "x"
    assert res.payments == MechanismSpec("x").run(example1, example1.true_cost).payments


def test_switch_picks_marginal_under_high_threshold(example1):
    res = MechanismSpec("tradeoff1", threshold=F(9, 10)).run(example1, example1.true_cost)
    assert res.branch == "vcg"
    assert res.total == 35


def test_switch_never_exceeds_marginal_total(random_nets_200):
    for net in random_nets_200[:50]:
        res = MechanismSpec("tradeoff1", threshold=F(1, 3)).run(net, net.true_cost)
        assert res.total <= MechanismSpec("vcg").run(net, net.true_cost).total


def _outcome(run, *args):
    try:
        return run(*args)
    except TieError:
        return TieError


def _switch(marginal, shared, threshold):
    """tradeoff1 composed from separate vcg and x runs."""
    if TieError in (marginal, shared):
        return TieError
    ratio = F(0) if marginal.total == 0 else (marginal.total - shared.total) / marginal.total
    if ratio > threshold:
        return replace(shared, branch="x")
    return replace(marginal, branch="vcg", groups=shared.groups)


def _bid_profiles(net, seed):
    """Truthful bids, all bids equal, and random half-unit bids (ties likely)."""
    rng = random.Random(seed)
    yield net.true_cost
    yield {a: F(1) for a in net.agents}
    yield {a: F(rng.randint(1, 10), 2) for a in net.agents}


def test_switch_matches_the_two_ranking_composition(random_nets_200):
    """One group structure prices both branches exactly as running marginal
    pricing and group sharing separately does: same whole result, or a
    TieError on both sides."""
    nets = [fixture(name) for name in sorted(FIXTURES)] + random_nets_200
    seen = set()
    for seed, net in enumerate(nets):
        for bids in _bid_profiles(net, seed):
            marginal = _outcome(MechanismSpec("vcg").run, net, bids)
            for rule in SPLIT_RULES:
                shared = _outcome(MechanismSpec("x", rule=rule).run, net, bids)
                for threshold in (F(0), F(1, 4), F(1, 2), F(1)):
                    want = _switch(marginal, shared, threshold)
                    switch = MechanismSpec("tradeoff1", rule=rule, threshold=threshold)
                    got = _outcome(switch.run, net, bids)
                    assert got == want, (seed, bids, rule, threshold)
                    seen.add(got if got is TieError else got.branch)
    assert seen == {TieError, "vcg", "x"}


def test_switch_reports_a_cut_agent_as_group_sharing_does():
    """An agent on every path leaves group sharing unpriced; tradeoff1 says
    so before looking at ties, as x does. validate rejects such networks."""
    rows = [("a", "X", "M", 1), ("b", "X", "M", 1), ("c", "M", "Y", 1)]
    costs = {e: F(c) for e, _, _, c in rows}
    net = Network(("M", "X", "Y"), tuple(Edge(e, t, h, e) for e, t, h, _ in rows),
                  "X", "Y", costs, dict(costs))
    for name in ("tradeoff1", "x"):
        with pytest.raises(InsufficientPaths, match=r"\['c'\] appear on every"):
            MechanismSpec(name).run(net)


def test_switch_ranks_once(example1, monkeypatch):
    """Both branches of tradeoff1 come from x's ranking, so it runs no more
    reverse searches than x does on example1 (one, at this writing)."""
    searches = []
    search = graph_module._distance_to_sink
    monkeypatch.setattr(
        graph_module, "_distance_to_sink", lambda *a: searches.append(1) or search(*a)
    )
    MechanismSpec("x").run(example1)
    by_x = len(searches)
    MechanismSpec("tradeoff1").run(example1)
    assert len(searches) - by_x <= by_x


def test_member_gap_example1(example1):
    res = MechanismSpec("tradeoff2").run(example1, example1.true_cost)
    assert res.payments["B"] == res.payments["C"] == 2
    assert res.payments["A"] == res.payments["D"] == 2
    assert res.payments["E"] == 6
    assert res.payments["F"] == 2
    assert res.total == 16


def test_member_gap_fig3(fig3):
    res = MechanismSpec("tradeoff2").run(fig3, fig3.true_cost)
    assert res.payments["e"] == 1 + (5 - 1)


def test_member_gap_equals_group_share_for_consecutive_singletons():
    """Two singleton groups at ranks 1 and 2: both rules pay the same."""
    rows = [("r", "X", "m", 1), ("w", "X", "m", 2), ("s", "m", "Y", 3), ("u", "X", "Y", 6)]
    nodes = tuple(sorted({n for _, t, h, _ in rows for n in (t, h)}))
    edges = tuple(Edge(e, t, h, e) for e, t, h, _ in rows)
    costs = {e: F(c) for e, _, _, c in rows}
    net = Network(nodes, edges, "X", "Y", costs, dict(costs))
    assert enumerate_paths(net).costs == (4, 5, 6)
    gap = MechanismSpec("tradeoff2").run(net)
    share = MechanismSpec("x").run(net)
    assert gap.payments == share.payments == {"r": F(2), "s": F(4), "w": F(0), "u": F(0)}


@pytest.mark.parametrize(
    "raise_by,expected",
    [
        (F(0), 6),
        (F(3), 6),
        (F(5), 6),  # top of the flat bracket
        (F(6), 7),
        (F(7), 9),  # lands in the gap-to-rank-2 bracket (6, 8]
        (F(17, 2), 10),  # 8.5 lands in the widest bracket (8, 9]
        (F(9), 10),
        (F(10), 0),
    ],
)
def test_member_gap_schedule_brackets(example1, raise_by, expected):
    assert member_gap_schedule(example1, "E", raise_by, example1.true_cost) == expected


def test_member_gap_schedule_flat_bracket_everywhere(example1):
    base = member_gap_schedule(example1, "E", F(0), example1.true_cost)
    step = F(1, 4)
    value = F(0)
    while value <= 5:
        assert member_gap_schedule(example1, "E", value, example1.true_cost) == base
        value += step


def test_member_gap_schedule_rejects_unselected(example1):
    with pytest.raises(NotSelected):
        member_gap_schedule(example1, "N", F(1), example1.true_cost)
    with pytest.raises(ValueError):
        member_gap_schedule(example1, "E", F(-1), example1.true_cost)


def test_shared_gap_to_best_example1(example1):
    res = MechanismSpec("tradeoff3").run(example1, example1.true_cost)
    assert res.payments["B"] == res.payments["C"] == F(3, 2)
    assert res.payments["A"] == res.payments["D"] == 3
    assert res.payments["E"] == 10
    assert res.payments["F"] == 11
    assert res.total == 30


def test_shared_gap_fig3(fig3):
    assert MechanismSpec("tradeoff3").run(fig3, fig3.true_cost).payments["e"] == 5


def test_shared_gap_splits_evenly_whatever_the_rule(xsmall):
    """r and s form one group with pool 5 - 3 = 2; tradeoff3 splits it
    evenly even when the spec names another rule."""
    bids = {"r": F(1), "s": F(2), "u": F(5)}
    spec = MechanismSpec("tradeoff3", rule=DistributionRule("reverse-rank"))
    assert spec.run(xsmall, bids).payments == {"r": F(2), "s": F(3), "u": F(0)}


def test_shared_gap_never_beats_marginal_per_member(random_nets_200):
    for net in random_nets_200[:50]:
        shared = MechanismSpec("tradeoff3").run(net, net.true_cost)
        marginal = MechanismSpec("vcg").run(net, net.true_cost)
        for agent in shared.selected:
            assert shared.payments[agent] <= marginal.payments[agent]


def test_marginal_payment_closed_form(random_nets_200):
    """Marginal pricing pays bid plus the gap from rank 1 to the agent's
    substitute rank, which ties it to the group structure exactly."""
    from pathauction import group_structure

    for net in random_nets_200[:60]:
        bids = net.true_cost
        ranked, assignment, _ = group_structure(net, bids)
        res = MechanismSpec("vcg").run(net, bids)
        for agent, q in assignment.group_of.items():
            expected = bids[agent] + (ranked.costs[q] - ranked.costs[0])
            assert res.payments[agent] == expected


def test_compare_rows_and_doubled_tail_bids(example1):
    specs = [MechanismSpec("x"), MechanismSpec("vcg"), MechanismSpec("fp-path")]
    rows = [(spec, spec.run(example1, example1.true_cost)) for spec in specs]
    totals = {spec.mechanism: res.total for spec, res in rows}
    assert totals == {"x": 16, "vcg": 35, "fp-path": 6}
    assert totals["x"] < totals["vcg"]

    doubled = dict(example1.true_cost)
    doubled["N"] = F(16)
    doubled["O"] = F(16)
    shared = MechanismSpec("x").run(example1, doubled)
    marginal = MechanismSpec("vcg").run(example1, doubled)
    assert shared.total == 32
    # The tail path now costs 32, so F's replacement route is dearer and the
    # marginal total rises with it; recompute from the enumeration to be sure.
    ranked = enumerate_paths(example1, doubled)
    f_detour = min(p.cost for p in ranked.paths if "F" not in p.owner_set)
    assert f_detour == 32
    assert marginal.payments["F"] == 32 - 5
    assert marginal.total == 51
    assert shared.total < marginal.total


def test_two_edge_network_collapses_to_second_price(fig3):
    shared = MechanismSpec("x").run(fig3, fig3.true_cost)
    marginal = MechanismSpec("vcg").run(fig3, fig3.true_cost)
    vickrey = MechanismSpec("vickrey-single", orientation="reverse")
    second = SingleItemGame(fig3.true_cost, vickrey).run(fig3.true_cost)
    assert shared.payments == marginal.payments
    assert shared.payments["e"] == second.payments["e"] == 5
