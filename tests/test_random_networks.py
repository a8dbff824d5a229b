"""Generator determinism plus oracle agreement on the random population."""

from fractions import Fraction as F

import pytest
from conftest import renamed_owners

from pathauction import (
    FIXTURES,
    Edge,
    GenerationFailed,
    InsufficientPaths,
    MechanismSpec,
    Network,
    PathAuctionError,
    TieError,
    detour_cost,
    enumerate_paths,
    fixture,
    group_structure,
    network_to_json,
    random_network,
    rank_paths,
    shortest_path,
    validate,
)


def _relabelled(seed):
    """random_network(seed, 6, 6) with its owners renamed by a permutation
    seeded with `seed`."""
    return renamed_owners(random_network(seed, 6, 6), seed)


_FIXTURES = [fixture(name) for name in sorted(FIXTURES)]


@pytest.fixture(scope="module")
def relabelled_300():
    return [_relabelled(seed) for seed in range(300)]


def test_generator_is_deterministic():
    for seed in (0, 7, 123):
        assert network_to_json(random_network(seed)) == network_to_json(
            random_network(seed)
        )


def test_generated_networks_are_valid(random_nets_200):
    for net in random_nets_200:
        assert validate(net) == []
        assert len(net.nodes) <= 8
        assert len(net.edges) <= 14


def test_generated_networks_run_tie_free(random_nets_200):
    for net in random_nets_200[:80]:
        MechanismSpec("x").run(net, net.true_cost)  # raises TieError on a bad instance


def test_generation_failure_surfaces():
    with pytest.raises(GenerationFailed):
        random_network(0, node_budget=2, edge_budget=2, cost_range=(1, 1), max_attempts=5)


def test_generator_refuses_a_cost_range_below_one():
    """A drawn zero cost is no Network, so the range is refused up front
    rather than on whichever draw first hits it."""
    with pytest.raises(ValueError, match="^cost_range must start at 1 or above"):
        random_network(0, cost_range=(0, 9))


def test_rank_agrees_with_enumeration(random_nets_200, relabelled_300):
    for net in random_nets_200 + relabelled_300:
        ranked = enumerate_paths(net, net.true_cost)
        again = rank_paths(net, net.true_cost, k=len(ranked.paths) + 3)
        assert again.paths == ranked.paths


def test_shortest_is_the_enumeration_minimum(random_nets_200):
    for net in random_nets_200[:80]:
        ranked = enumerate_paths(net, net.true_cost)
        best = shortest_path(net, net.true_cost)
        assert best == ranked.paths[0]
        assert best.cost == rank_paths(net, net.true_cost, k=1).costs[0]


def test_zeroed_detour_identity(random_nets_200, relabelled_300):
    """Zeroing an agent on the unique best path shaves exactly its own cost,
    the closed form vcg prices with; zeroing anyone never makes things
    dearer."""
    for net in _FIXTURES + random_nets_200 + relabelled_300:
        best = shortest_path(net, net.true_cost)
        marginal = MechanismSpec("vcg").run(net, net.true_cost)
        for agent in net.agents:
            zeroed = detour_cost(net, agent, "zeroed", net.true_cost)
            assert zeroed <= best.cost
            if agent in best.owner_set:
                assert zeroed == best.cost - net.true_cost[agent]
                excluded = detour_cost(net, agent, "excluded", net.true_cost)
                assert marginal.payments[agent] == excluded - zeroed


def test_excluded_detour_is_the_first_absence(random_nets_200, relabelled_300):
    """The cheapest path avoiding a cheapest-path agent is the first ranked
    path without it, so its cost is costs[group]; tradeoff1 prices marginal
    payments from this."""
    for net in _FIXTURES + random_nets_200 + relabelled_300:
        ranked, assignment, _ = group_structure(net, net.true_cost)
        for agent, q in assignment.group_of.items():
            assert ranked.costs[q] == detour_cost(net, agent, "excluded", net.true_cost)


def _net(rows):
    edges = tuple(Edge(e, tail, head, e) for e, tail, head, _ in rows)
    costs = {e: F(c) for e, _, _, c in rows}
    nodes = tuple(sorted({n for _, tail, head, _ in rows for n in (tail, head)}))
    return Network(nodes, edges, "X", "Y", costs, dict(costs))


def _error(call):
    with pytest.raises(PathAuctionError) as info:
        call()
    return type(info.value), str(info.value)


def test_group_index_satisfies_the_membership_definition(random_nets_200, relabelled_300):
    """Group q means: on every one of the q cheapest paths, off the next.

    The live ranking of group_structure agrees with classify_groups over a
    full enumeration, in groups, prefix costs and errors."""
    from pathauction import classify_groups

    for net in _FIXTURES + random_nets_200[:60] + relabelled_300:
        ranked = enumerate_paths(net, net.true_cost)
        assignment = classify_groups(ranked)
        for agent, q in assignment.group_of.items():
            assert all(agent in ranked.paths[j].owner_set for j in range(q))
            assert agent not in ranked.paths[q].owner_set
        live, live_assignment, _ = group_structure(net, net.true_cost)
        assert live_assignment.group_of == assignment.group_of
        assert live.costs == ranked.costs[: assignment.max_group + 1]

    # Ranks 2 and 3 tie at cost 5, inside the prefix: the same TieError.
    tied = _net([("a", "X", "M", 1), ("b", "M", "Y", 1), ("c", "M", "Y", 4), ("d", "X", "Y", 5)])
    assert (
        _error(lambda: group_structure(tied))
        == _error(lambda: classify_groups(enumerate_paths(tied)))
        == (TieError, "paths ranked 2 and 3 tie at cost 5")
    )
    # Winner a owns a cut; b and c tie, but the ranking runs out first.
    cut = _net([("a", "X", "M", 1), ("b", "M", "Y", 1), ("c", "M", "Y", 1)])
    assert _error(lambda: group_structure(cut)) == (
        InsufficientPaths,
        "agents ['a'] appear on every source-to-sink path",
    )
    assert _error(lambda: classify_groups(enumerate_paths(cut))) == (
        InsufficientPaths,
        "agent a appears in every supplied path",
    )


def test_results_in_lowest_terms(random_nets_200):
    import math

    for net in random_nets_200[:30]:
        res = MechanismSpec("x").run(net, net.true_cost)
        for value in res.payments.values():
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1
