"""MechanismSpec.run ranks and prices in integer units; here it meets an
oracle that ranks by enumeration and prices in Fractions, and the integer
ranking and detour it calls meet the public Fraction views."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import renamed_owners
from pathauction import (
    Disconnected,
    DistributionRule,
    Edge,
    InsufficientPaths,
    MechanismSpec,
    Network,
    PaymentResult,
    TieError,
    detour_cost,
    enumerate_paths,
    fixture,
)
from pathauction import graph
from pathauction.graph import _detour_units, _ranked_routes
from pathauction.mechanisms import _grouped, _price

PATH_MECHANISMS = ("fp-path", "vcg", "x", "tradeoff1", "tradeoff2", "tradeoff3")
DELTAS = (Fraction(0), Fraction(1, 3), Fraction(5, 2))
RULES = (
    DistributionRule("equal"),
    DistributionRule("reverse-rank"),
    *(DistributionRule(kind, delta) for kind in ("waterfall", "compound") for delta in DELTAS),
)
SPECS = (
    *(MechanismSpec(m, rule=r) for m, r in itertools.product(PATH_MECHANISMS, RULES)),
    MechanismSpec("tradeoff1", threshold=Fraction(1, 4)),
    MechanismSpec("tradeoff1", rule=DistributionRule("reverse-rank"), threshold=Fraction(1, 7)),
)


def _no_tie(paths):
    for j in range(1, len(paths)):
        if paths[j - 1].cost == paths[j].cost:
            raise TieError(f"paths ranked {j} and {j + 1} tie at cost {paths[j].cost}")


def _oracle(spec, net, bids):
    """The run `spec` makes, from the enumerated paths and _price on Fraction
    money: fp-path and vcg read two ranks and each winner's cheapest
    avoiding path, the group rules every rank down to each winner's first
    absence; utility is payment minus true cost."""
    paths = enumerate_paths(net, bids).paths
    chosen = paths[0]
    if spec.mechanism in ("fp-path", "vcg"):
        _no_tie(paths[:2])
        groups = None
        group_of = {a: r for r, a in enumerate(chosen.owners, 1)}
        costs = [chosen.cost]
        for agent in chosen.owners if spec.mechanism == "vcg" else ():
            avoiding = [p.cost for p in paths if agent not in p.owner_set]
            if not avoiding:
                raise Disconnected(f"removing agent {agent} disconnects the network")
            costs.append(avoiding[0])
    else:
        ranks = {a: [r for r, p in enumerate(paths) if a not in p.owner_set]
                 for a in chosen.owners}
        stuck = [a for a, absent in ranks.items() if not absent]
        if stuck:
            raise InsufficientPaths(f"agents {sorted(stuck)} appear on every source-to-sink path")
        group_of = {a: absent[0] for a, absent in ranks.items()}
        groups = dict(group_of)
        costs = [p.cost for p in paths[: max(group_of.values()) + 1]]
        _no_tie(paths[: len(costs)])
    pay, branch = _price(spec, bids, costs, _grouped(group_of))
    payments = {a: Fraction(0) for a in net.agents} | pay
    utilities = {a: Fraction(0) for a in net.agents}
    utilities |= {a: amount - net.true_cost[a] for a, amount in pay.items()}
    total = sum(pay.values(), Fraction(0))
    return PaymentResult(payments, utilities, total, -total, tuple(sorted(pay)), chosen,
                         groups=groups, branch=branch)


def _outcome(call):
    try:
        return call()
    except (Disconnected, InsufficientPaths, TieError) as exc:
        return type(exc), str(exc)


def _assert_runs_as_the_oracle(net, bids):
    for spec in SPECS:
        got = _outcome(lambda: spec.run(net, bids))
        assert got == _outcome(lambda: _oracle(spec, net, bids)), spec
        if isinstance(got, PaymentResult):
            money = [*got.payments.values(), *got.utilities.values(), got.total,
                     got.mechanism_utility]
            assert all(type(v) is Fraction for v in money), spec


_MONEY = st.builds(Fraction, st.integers(1, 12), st.integers(1, 7))


@st.composite
def _priced_multigraphs(draw):
    """Up to eight edges on up to five nodes (parallel edges, cycles, self
    loops), true costs and bids n/d with d in 1..7 drawn apart, and the
    owners renamed so that no edge is named after its owner. One edge runs
    from source to sink, so that most draws reach a payment."""
    nodes = tuple(f"v{i}" for i in range(draw(st.integers(2, 5))))
    endpoint = st.sampled_from(nodes)
    ends = [(nodes[0], nodes[-1])]
    ends += [(draw(endpoint), draw(endpoint)) for _ in range(draw(st.integers(1, 7)))]
    ends.insert(draw(st.integers(0, len(ends) - 1)), ends.pop(0))
    edges = tuple(Edge(f"e{i:02d}", *pair, f"e{i:02d}") for i, pair in enumerate(ends))
    costs = {edge.id: draw(_MONEY) for edge in edges}
    net = Network(nodes, edges, nodes[0], nodes[-1], costs, dict(costs))
    net = renamed_owners(net, draw(st.integers(0, 99)))
    return net, {agent: draw(_MONEY) for agent in sorted(net.agents)}


@settings(max_examples=200, deadline=None)
@given(_priced_multigraphs())
def test_run_is_the_fraction_oracle_on_multigraphs(case):
    _assert_runs_as_the_oracle(*case)


def _net(rows):
    """X to Y over `rows` of (owner, tail, head, true cost), each edge named
    after its owner and bid at its true cost."""
    nodes = tuple(dict.fromkeys(n for _, tail, head, _ in rows for n in (tail, head)))
    costs = {a: Fraction(c) for a, _, _, c in rows}
    return Network(nodes, tuple(Edge(a, t, h, a) for a, t, h, _ in rows), "X", "Y",
                   costs, dict(costs))


_THIRDS = {"A": "1/2", "B": "2/3", "C": "1/3", "D": "3/2", "E": "4/3", "F": "1/2",
           "G": "1", "K": "5/2", "H": "2", "I": "7/3", "J": "9/2", "P": "11/3", "M": "6",
           "L": "13/2", "N": "16", "O": "31/2"}
# Fractional true costs, whole bids: the units must cover the true costs.
_HALVES = _net([("a", "X", "M", "1/2"), ("b", "M", "Y", "4/3"), ("c", "X", "M", "5/3"),
                ("d", "X", "Y", "7/2")])
# One group of two unequal whole bids and a pool of 2: a waterfall's delta
# decides the split, so the units must cover the delta.
_SERIES = _net([("a", "X", "M", 1), ("b", "M", "Y", 4), ("c", "X", "Y", 7)])


@pytest.mark.parametrize(
    "net,bids",
    [
        (fixture("example1"), {a: Fraction(v) for a, v in _THIRDS.items()}),
        (fixture("example1"), None),
        (_HALVES, {"a": Fraction(1), "b": Fraction(2), "c": Fraction(3), "d": Fraction(6)}),
        (_SERIES, None),
        (fixture("fig2"), {a: Fraction(i + 2, 7) for i, a in enumerate(sorted("abcd"))}),
        (renamed_owners(fixture("xsmall"), 3), None),
    ],
    ids=["example1-thirds", "example1-whole", "halves", "series", "fig2-sevenths",
         "xsmall-renamed"],
)
def test_run_is_the_fraction_oracle_on_fixed_profiles(net, bids):
    """Whole bids with a delta of 1/3 or 5/2, whole bids over fractional true
    costs, and reverse-rank shares that are not whole in the run's units."""
    _assert_runs_as_the_oracle(net, dict(net.bid) if bids is None else bids)


def _assert_integer_searches_match_the_views(net, bids):
    """At scales S, 2S and 6S, S the bids' least common denominator, the
    integer ranking is the enumeration with each cost times the scale,
    route for route, and each integer detour is detour_cost times the
    scale (or both raise the same Disconnected)."""
    every = enumerate_paths(net, bids).paths
    lowest = math.lcm(*(bid.denominator for bid in bids.values()))
    for scale in (lowest, 2 * lowest, 6 * lowest):
        units = {agent: int(bid * scale) for agent, bid in bids.items()}
        kept = dict(units)
        routes = list(_ranked_routes(net, units))
        assert routes == [(p.cost * scale, p.edges, p.owners) for p in every], scale
        assert all(type(cost) is int for cost, _, _ in routes)
        for agent, mode in itertools.product(sorted(net.agents), ("excluded", "zeroed")):
            got = _outcome(lambda: _detour_units(net, agent, mode, units))
            want = _outcome(lambda: detour_cost(net, agent, mode, bids) * scale)
            assert got == want, (scale, agent, mode)
        assert units == kept


@settings(max_examples=200, deadline=None)
@given(_priced_multigraphs())
def test_integer_ranking_and_detours_are_the_views_on_multigraphs(case):
    _assert_integer_searches_match_the_views(*case)


@pytest.mark.parametrize("name", ["example1", "fig2", "fig3", "xsmall"])
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_integer_ranking_and_detours_are_the_views_on_fixtures(name, seed):
    net = fixture(name) if seed is None else renamed_owners(fixture(name), seed)
    _assert_integer_searches_match_the_views(net, net.bid)


def test_integer_ranking_runs_the_restricted_spur_on_a_cycle(monkeypatch):
    """The cheapest way on from M runs back through X by b, so the spur from
    X off the edge d walks through the blocked root node X and the tree
    cannot settle it; a restricted search from X must, and the ranking
    still equals the enumeration."""
    net = _net([("d", "X", "Y", 1), ("a", "X", "M", 1), ("b", "M", "X", 1),
                ("c", "M", "Y", 1)])
    spurs = []
    search = graph._best_path
    monkeypatch.setattr(
        graph, "_best_path", lambda *a, **k: spurs.append(k.get("start")) or search(*a, **k)
    )
    bids = {a: Fraction(v, 3) for a, v in zip("abcd", (2, 1, 30, 4))}
    _assert_integer_searches_match_the_views(net, bids)
    assert "X" in spurs
