import dataclasses
import random
from fractions import Fraction as F

import pytest

from pathauction import (
    DistributionRule,
    Edge,
    GroupAssignment,
    InsufficientPaths,
    MechanismSpec,
    Network,
    Path,
    RankedPaths,
    TieError,
    classify_groups,
    enumerate_paths,
    group_profits,
    group_structure,
    rank_paths,
)
from pathauction.mechanisms import _grouped, _price, _profits_bid_free


def test_vcg_example1_payments(example1):
    res = MechanismSpec("vcg").run(example1, example1.true_cost)
    pay = res.payments
    assert (pay["A"], pay["D"], pay["E"], pay["F"]) == (5, 5, 10, 11)
    assert pay["B"] == pay["C"] == 2
    assert res.total == 35
    assert res.mechanism_utility == -35
    assert all(pay[a] == 0 for a in example1.agents if a not in res.selected)


def test_vcg_example1_after_a_raises_to_four(example1):
    bids = dict(example1.true_cost)
    bids["A"] = F(4)
    res = MechanismSpec("vcg").run(example1, bids)
    assert res.payments["A"] == 5
    assert res.payments["B"] == res.payments["C"] == res.payments["D"] == 2
    assert res.payments["E"] == res.payments["F"] == 8
    assert res.total == 27  # raising a bid lowered the buyer's spend


def test_vcg_matches_enumeration_oracle(example1):
    """Recompute payments straight from the enumerated path list."""
    bids = example1.true_cost
    ranked = enumerate_paths(example1, bids)
    res = MechanismSpec("vcg").run(example1, bids)
    for agent in ranked.paths[0].owners:
        excluded = min(p.cost for p in ranked.paths if agent not in p.owner_set)
        zeroed = min(
            p.cost - (bids[agent] if agent in p.owner_set else 0) for p in ranked.paths
        )
        assert res.payments[agent] == excluded - zeroed


def test_no_mechanism_can_price_an_agent_that_owns_two_edges():
    """a owns both edges of the cheapest path X -> M -> Y. Every path rule
    but vcg would count a's bid once (fp-path would pay 1 for a path that
    costs 2), and vcg's excluded detour would remove only X -> M. No
    Network holds such an agent, so no mechanism id ever sees one."""
    edges = (
        Edge("a1", "X", "M", "a"),
        Edge("a2", "M", "Y", "d"),
        Edge("b", "X", "Y", "b"),
        Edge("c", "X", "M", "c"),
    )
    costs = {"a": F(1), "b": F(5), "c": F(2), "d": F(1)}
    apart = Network(("M", "X", "Y"), edges, "X", "Y", costs, dict(costs))
    assert MechanismSpec("fp-path").run(apart).total == 2
    joined = (edges[0], dataclasses.replace(edges[1], owner="a")) + edges[2:]
    del costs["d"]
    with pytest.raises(ValueError, match="^agent owns multiple edges: a$"):
        Network(("M", "X", "Y"), joined, "X", "Y", costs, dict(costs))


def _renamed(ids):
    """w: s -> m at 1, u: m -> t at 1, v: m -> t at 4, z: s -> t at 5, with
    the edges of w, u, v and z named by `ids`. The two paths after w u tie
    at cost 5, and their edge-id order decides which one ranks second."""
    rows = (("w", "s", "m", 1), ("u", "m", "t", 1), ("v", "m", "t", 4), ("z", "s", "t", 5))
    edges = tuple(Edge(i, tail, head, owner) for i, (owner, tail, head, _) in zip(ids, rows))
    costs = {owner: F(c) for owner, _, _, c in rows}
    return Network(("m", "s", "t"), edges, "s", "t", costs, dict(costs))


def test_edge_names_decide_which_tied_path_ranks_second():
    """Names a, b, c, d rank w v (a c) before z (d): u leaves at rank 2
    and w at rank 3, so x and tradeoff2 read the tie. Names b, c, d, a rank
    z (a) second: both winners leave at rank 2, and the tie lies past what
    either rule reads. So analysis._compile sorts its routes by edge ids."""
    tied = _renamed("abcd")
    for mechanism in ("x", "tradeoff2"):
        with pytest.raises(TieError, match="^paths ranked 2 and 3 tie at cost 5$"):
            MechanismSpec(mechanism).run(tied)
    clear = _renamed("bcda")
    assert MechanismSpec("x").run(clear).payments == {"u": F(5, 2), "w": F(5, 2), "v": 0, "z": 0}
    assert MechanismSpec("tradeoff2").run(clear).payments == {"u": 4, "w": 4, "v": 0, "z": 0}


def test_vcg_requires_strict_best_path():
    edges = (Edge("a", "X", "Y", "a"), Edge("b", "X", "Y", "b"))
    costs = {"a": F(2), "b": F(2)}
    net = Network(("X", "Y"), edges, "X", "Y", costs, dict(costs))
    for mechanism in ("fp-path", "vcg"):
        with pytest.raises(TieError, match=r"^paths ranked 1 and 2 tie at cost 2$"):
            MechanismSpec(mechanism).run(net)


def test_x_reports_a_tie_deep_in_its_prefix():
    """Winner b leaves at rank 2 and a at rank 3, which ties rank 2; the two
    cheapest paths differ, so fp-path reads no tie."""
    rows = [("a", "X", "M", 1), ("b", "M", "Y", 1), ("c", "M", "Y", 4), ("d", "X", "Y", 5)]
    edges = tuple(Edge(e, tail, head, e) for e, tail, head, _ in rows)
    costs = {e: F(c) for e, _, _, c in rows}
    net = Network(("X", "M", "Y"), edges, "X", "Y", costs, dict(costs))
    assert MechanismSpec("fp-path").run(net).selected == ("a", "b")
    with pytest.raises(TieError, match=r"^paths ranked 2 and 3 tie at cost 5$"):
        MechanismSpec("x").run(net)


def test_classify_groups_example1(example1):
    ranked = enumerate_paths(example1, example1.true_cost)
    assignment = classify_groups(ranked)
    assert assignment.group_of == {"B": 1, "C": 1, "A": 3, "D": 3, "E": 4, "F": 5}
    assert assignment.present_groups == (1, 3, 4, 5)
    assert assignment.max_group == 5


def test_classify_groups_small_fixtures(fig2, fig3):
    for net, expected in ((fig2, {"a": 1, "b": 1, "c": 1}), (fig3, {"e": 1})):
        assignment = classify_groups(enumerate_paths(net, net.true_cost))
        assert assignment.group_of == expected


def test_classify_needs_enough_paths(example1):
    short = rank_paths(example1, example1.true_cost, k=2)
    with pytest.raises(InsufficientPaths):
        classify_groups(short)
    with pytest.raises(InsufficientPaths, match="^no ranked paths supplied$"):
        classify_groups(RankedPaths(()))


def test_classify_rejects_tied_prefix():
    tied = RankedPaths(
        (
            Path(edges=("a",), owners=("a",), cost=F(3)),
            Path(edges=("b",), owners=("b",), cost=F(3)),
        )
    )
    with pytest.raises(TieError):
        classify_groups(tied)


def test_group_profits_example1(example1):
    ranked = enumerate_paths(example1, example1.true_cost)
    assignment = classify_groups(ranked)
    pools = group_profits(assignment, ranked)
    assert pools == {1: F(1), 3: F(3), 4: F(5), 5: F(1)}
    # Telescoping: pools sum to the gap from rank 1 to rank max+1.
    assert sum(pools.values()) == ranked.costs[assignment.max_group] - ranked.costs[0]


def test_group_profits_needs_the_prefix_through_the_last_group(example1):
    ranked = enumerate_paths(example1, example1.true_cost)
    assignment = classify_groups(ranked)
    short = RankedPaths(ranked.paths[: assignment.max_group])
    message = f"^need {assignment.max_group + 1} ranked paths, got {assignment.max_group}$"
    with pytest.raises(InsufficientPaths, match=message):
        group_profits(assignment, short)


def test_group_profits_checks_ties_through_the_last_group(fig2):
    """Every winner of fig2 is group 1, so the pools read ranks 1 and 2;
    at d=3 those tie, and the tie is refused."""
    ranked = enumerate_paths(fig2, {"a": F(1), "b": F(1), "c": F(1), "d": F(3)})
    with pytest.raises(TieError, match="^paths ranked 1 and 2 tie at cost 3$"):
        group_profits(GroupAssignment({"a": 1, "b": 1, "c": 1}), ranked)


def test_group_profits_fig2(fig2):
    ranked = enumerate_paths(fig2, fig2.true_cost)
    pools = group_profits(classify_groups(ranked), ranked)
    assert pools == {1: F(2)}


def test_group_share_example1_equal_split(example1):
    res = MechanismSpec("x").run(example1, example1.true_cost)
    assert res.payments["B"] == res.payments["C"] == F(3, 2)
    assert res.payments["A"] == res.payments["D"] == F(5, 2)
    assert res.payments["E"] == 6
    assert res.payments["F"] == 2
    assert res.total == 16
    assert res.groups == {"B": 1, "C": 1, "A": 3, "D": 3, "E": 4, "F": 5}


def test_group_share_fig3_degenerates_to_second_price(fig3):
    for rule in (
        DistributionRule("equal"),
        DistributionRule("reverse-rank"),
        DistributionRule("waterfall", F(1)),
    ):
        res = MechanismSpec("x", rule=rule).run(fig3, fig3.true_cost)
        assert res.payments["e"] == 5
        assert res.payments["f"] == 0


def test_group_share_rules_differ_with_uneven_bids(xsmall):
    """r and s share one pool; unequal bids separate the split rules."""
    bids = {"r": F(1), "s": F(2), "u": F(5)}
    equal = MechanismSpec("x").run(xsmall, bids)
    assert equal.payments == {"r": F(2), "s": F(3), "u": F(0)}
    reverse = MechanismSpec("x", rule=DistributionRule("reverse-rank")).run(xsmall, bids)
    assert reverse.payments == {"r": F(1) + F(4, 3), "s": F(2) + F(2, 3), "u": F(0)}
    waterfall = MechanismSpec("x", rule=DistributionRule("waterfall", F(1, 2))).run(xsmall, bids)
    assert waterfall.payments == {"r": F(5, 2), "s": F(5, 2), "u": F(0)}


@pytest.mark.parametrize(
    "rule",
    [
        DistributionRule("equal"),
        DistributionRule("reverse-rank"),
        DistributionRule("waterfall", F(1)),
        DistributionRule("compound", F(1, 2)),
    ],
    ids=lambda r: r.kind,
)
def test_group_share_example1_every_rule(example1, rule):
    """Every winner bids 1, so each rule splits each telescoping pool (1, 3,
    5 and 1 for groups {B, C}, {A, D}, {E} and {F}) evenly; tradeoff1 at
    threshold 0 takes the same payments."""
    want = {a: F(0) for a in example1.agents}
    want.update(B=F(3, 2), C=F(3, 2), A=F(5, 2), D=F(5, 2), E=F(6), F=F(2))
    assert MechanismSpec("x", rule=rule).run(example1, example1.true_cost).payments == want
    switch = MechanismSpec("tradeoff1", rule=rule).run(example1)
    assert (switch.branch, switch.payments) == ("x", want)


def test_group_share_conservation(example1):
    bids = example1.true_cost
    res = MechanismSpec("x").run(example1, bids)
    ranked, assignment, pools = group_structure(example1, bids)
    on_path = sum((bids[a] for a in ranked.paths[0].owners), F(0))
    assert res.total == on_path + sum(pools.values())
    assert res.total == ranked.costs[assignment.max_group]


def test_first_price_path(example1, fig3):
    res = MechanismSpec("fp-path").run(example1, example1.true_cost)
    assert res.total == 6
    assert all(res.utilities[a] == 0 for a in example1.agents)
    assert MechanismSpec("fp-path").run(fig3, fig3.true_cost).payments["e"] == 1


def test_unselected_agents_pay_and_earn_nothing(example1):
    for result in (
        MechanismSpec("vcg").run(example1, example1.true_cost),
        MechanismSpec("x").run(example1, example1.true_cost),
        MechanismSpec("fp-path").run(example1, example1.true_cost),
        MechanismSpec("tradeoff2").run(example1, example1.true_cost),
    ):
        for agent in example1.agents:
            if agent not in result.selected:
                assert result.payments[agent] == 0
                assert result.utilities[agent] == 0


def test_deterministic_outputs(example1):
    a = MechanismSpec("x").run(example1, example1.true_cost)
    b = MechanismSpec("x").run(example1, example1.true_cost)
    assert a == b


#: Specs whose profits (payment minus bid) the winners' bids never move, at
#: fixed ranked costs and groups, and specs whose profits read them.
PROFITS_BID_FREE = (
    *(MechanismSpec(m) for m in ("fp-path", "vcg", "x", "tradeoff1", "tradeoff2", "tradeoff3")),
    *(MechanismSpec("tradeoff1", threshold=t) for t in (F(1, 4), F(1, 2), F(1))),
    MechanismSpec("tradeoff3", rule=DistributionRule("waterfall", F(1, 2))),
)
PROFITS_READ_BIDS = (
    MechanismSpec("x", rule=DistributionRule("waterfall", F(1, 2))),
    MechanismSpec("x", rule=DistributionRule("compound", F(1, 7))),
    MechanismSpec("x", rule=DistributionRule("reverse-rank")),
    MechanismSpec("tradeoff1", rule=DistributionRule("waterfall", F(1)), threshold=F(1, 2)),
    MechanismSpec("tradeoff1", rule=DistributionRule("reverse-rank")),
)


def _bids_summing_to(rng, count, total):
    """`count` positive integer bids that sum to `total`, drawn uniformly."""
    cuts = sorted(rng.sample(range(1, total), count - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def _ranking(rng):
    """A random winner count, its winners grouped, and strictly increasing
    ranked costs as deep as the groups read."""
    winners = rng.randint(1, 4)
    depth = rng.randint(1, winners)
    group_of = {k: rng.randint(1, depth) for k in range(winners)}
    costs = [rng.randint(winners, 4 * winners + 4)]
    for _ in range(max(group_of.values())):
        costs.append(costs[-1] + rng.randint(1, 6))
    return winners, _grouped(group_of), costs


def _profits(spec, bids, costs, groups):
    pay, _ = _price(spec, bids, costs, groups)
    return {k: pay[k] - bids[k] for k in pay}


def test_profits_read_the_bids_only_under_the_uneven_splits():
    """The pricer at fixed ranked costs and groups, with the winners' bids
    redrawn: costs[0] is the winning path's cost, so every draw keeps their
    sum. Each profit stays put under the bid-free specs, and under each
    reverse-rank, waterfall and compound split some draw moves one."""
    rng = random.Random(2005)
    moved = dict.fromkeys(PROFITS_READ_BIDS, 0)
    for _ in range(300):
        winners, groups, costs = _ranking(rng)
        draws = [_bids_summing_to(rng, winners, costs[0]) for _ in range(3)]
        for spec in PROFITS_BID_FREE:
            first = _profits(spec, draws[0], costs, groups)
            same = all(_profits(spec, bids, costs, groups) == first for bids in draws[1:])
            assert same, (spec, draws)
        for spec in PROFITS_READ_BIDS:
            first = _profits(spec, draws[0], costs, groups)
            moved[spec] += any(_profits(spec, bids, costs, groups) != first for bids in draws[1:])
    assert all(moved.values()), moved
    assert all(map(_profits_bid_free, PROFITS_BID_FREE))
    assert not any(map(_profits_bid_free, PROFITS_READ_BIDS))


def test_profits_read_the_cheapest_cost_only_in_tradeoff1s_branch():
    """The pricer with every ranked cost shifted by d, and the winners' bids
    redrawn to sum to the shifted costs[0]: the gaps stay, the cheapest cost
    moves. Each profit stays put under the bid-free specs but tradeoff1, and
    at thresholds 1/4 and 1/2 some shift moves tradeoff1's branch."""
    rng = random.Random(2005)
    switches = {t: MechanismSpec("tradeoff1", threshold=t) for t in (F(1, 4), F(1, 2))}
    moved = dict.fromkeys(switches, 0)
    for _ in range(300):
        winners, groups, costs = _ranking(rng)
        draws = []
        for _ in range(3):
            shift = rng.randint(winners - costs[0], 12)
            total = costs[0] + shift
            draws.append(([c + shift for c in costs], _bids_summing_to(rng, winners, total)))
        for spec in PROFITS_BID_FREE:
            if spec.mechanism != "tradeoff1":
                first = _profits(spec, draws[0][1], draws[0][0], groups)
                assert all(_profits(spec, b, c, groups) == first for c, b in draws[1:]), draws
        for t, spec in switches.items():
            branches = {_price(spec, bids, shifted, groups)[1] for shifted, bids in draws}
            moved[t] += len(branches) > 1
    assert all(moved.values()), moved
