import dataclasses
import random
from fractions import Fraction

import pytest

from pathauction import Edge, Network, fixture, random_network


@pytest.fixture(scope="session")
def example1():
    return fixture("example1")


@pytest.fixture(scope="session")
def fig2():
    return fixture("fig2")


@pytest.fixture(scope="session")
def fig3():
    return fixture("fig3")


@pytest.fixture(scope="session")
def xsmall():
    return fixture("xsmall")


@pytest.fixture(scope="session")
def random_nets_200():
    """The seeded random population used by the property suites."""
    return [random_network(seed) for seed in range(200)]


@pytest.fixture(scope="session")
def random_small_25():
    """Small instances (at most 5 agents) for exhaustive best-response checks."""
    return [random_network(1000 + s, node_budget=5, edge_budget=5) for s in range(25)]


@pytest.fixture(scope="session")
def unit():
    return Fraction(1)


def renamed_owners(net, seed):
    """`net` with its owners renamed o0, o1, ... by a permutation seeded with
    `seed`, so that edge e03 may be owned by o1. The fixtures and the
    generator name each edge after its owner, so only such networks catch
    code that reads an owner where it needs an edge id, or the reverse.
    Test files import it: `from conftest import renamed_owners`."""
    names = [f"o{i}" for i in range(len(net.edges))]
    random.Random(seed).shuffle(names)
    owner = {edge.owner: name for edge, name in zip(net.edges, names)}
    edges = tuple(dataclasses.replace(edge, owner=owner[edge.owner]) for edge in net.edges)
    costs = {owner[agent]: cost for agent, cost in net.true_cost.items()}
    return dataclasses.replace(net, edges=edges, true_cost=costs, bid=dict(costs))


def _parallel_pairs(stages, tied=False):
    """A chain of `stages` pairs of parallel edges: 2**stages paths.

    Taking stage k's b edge instead of its a edge costs 1 + k/16 more, so
    the cheapest path and the single swaps rank first, without ties, and
    every group of x forms within them. `tied` raises the last stage's gap
    to the first two stages' together, so that single swap, where the last
    winner leaves, ties with the double swap of stages 0 and 1.
    """
    rows = []
    for k in range(stages):
        tail, head = f"v{k:02d}", f"v{k + 1:02d}"
        gap = 2 + Fraction(1, 16) if tied and k == stages - 1 else 1 + Fraction(k, 16)
        rows += [(f"a{k:02d}", tail, head, 1), (f"b{k:02d}", tail, head, 1 + gap)]
    edges = tuple(Edge(eid, tail, head, eid) for eid, tail, head, _ in rows)
    costs = {eid: Fraction(c) for eid, _, _, c in rows}
    nodes = tuple(f"v{k:02d}" for k in range(stages + 1))
    return Network(nodes, edges, nodes[0], nodes[-1], costs, dict(costs))


@pytest.fixture(scope="session")
def parallel_pairs():
    """Builds chains of parallel edge pairs: parallel_pairs(stages, tied=False)."""
    return _parallel_pairs
