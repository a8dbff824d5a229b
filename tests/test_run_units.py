"""MechanismSpec.run prices in integer units; here it meets an oracle that
ranks by enumeration and prices in Fractions."""

import itertools
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
    enumerate_paths,
    fixture,
)
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
