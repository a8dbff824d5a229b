"""Independent output oracles for the benchmark, run outside the timed region.

Path questions are answered by networkx's ``shortest_simple_paths`` with
exact ``Fraction`` weights. Every edge is subdivided (tail -> edge node ->
head), so parallel edges survive in a simple ``DiGraph`` and loopless paths
of the multigraph map one to one onto simple paths of the subdivided graph.
Grid questions are answered by a plain loop over the bid product that calls
``MechanismSpec.run`` once per profile, so they share no code with the
analysis layer they check.

A network is described here by plain data (see :class:`Net`); nothing in
this module imports ``pathauction``. networkx is imported only inside the
functions that use it: the timed process unpickles the expectations defined
here but never loads networkx, so its peak memory is not the oracles'.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

PATH_MECHANISMS = ("fp-path", "vcg", "x", "tradeoff1", "tradeoff2", "tradeoff3")


class Tie(Exception):
    """The oracle sees equal costs where the mechanism needs a strict order."""


@dataclass(frozen=True)
class Net:
    """A network as plain data: edges are (id, tail, head, owner) rows."""

    edges: tuple[tuple[str, str, str, str], ...]
    source: str
    sink: str
    true_cost: Mapping[str, Fraction]

    @classmethod
    def of(cls, network) -> "Net":
        """Copy the public fields of a ``pathauction.Network``."""
        rows = tuple((e.id, e.tail, e.head, e.owner) for e in network.edges)
        return cls(rows, network.source, network.sink, dict(network.true_cost))

    @property
    def owner_of(self) -> dict[str, str]:
        return {eid: owner for eid, _, _, owner in self.edges}


def _digraph(net: Net, bids: Mapping[str, Fraction], skip_edge: str | None = None):
    import networkx as nx

    graph = nx.DiGraph()
    for eid, tail, head, owner in net.edges:
        if eid == skip_edge:
            continue
        graph.add_edge(("n", tail), ("e", eid), weight=bids[owner])
        graph.add_edge(("e", eid), ("n", head), weight=Fraction(0))
    return graph


Ranked = list[tuple[Fraction, tuple[str, ...]]]  # (cost, edge ids) per path


def iter_paths(
    net: Net, bids: Mapping[str, Fraction],
) -> Iterator[tuple[Fraction, tuple[str, ...]]]:
    """(cost, edge ids) of every loopless path in nondecreasing cost order.

    Equal-cost paths come in networkx's order, not pathauction's, so callers
    compare costs, or edge sequences only where costs are distinct.
    """
    import networkx as nx

    graph = _digraph(net, bids)
    owner_of = net.owner_of
    ends = ("n", net.source), ("n", net.sink)
    for nodes in nx.shortest_simple_paths(graph, *ends, weight="weight"):
        edges = tuple(name for kind, name in nodes if kind == "e")
        yield sum((bids[owner_of[e]] for e in edges), Fraction(0)), edges


def ranked(net: Net, bids: Mapping[str, Fraction], limit: int) -> Ranked:
    return list(itertools.islice(iter_paths(net, bids), limit))


def detour_excluded(net: Net, bids: Mapping[str, Fraction], edge_id: str) -> Fraction:
    """Cost of the cheapest path that avoids one edge."""
    import networkx as nx

    graph = _digraph(net, bids, skip_edge=edge_id)
    return nx.dijkstra_path_length(graph, ("n", net.source), ("n", net.sink), weight="weight")


def grouping_prefix(net: Net, bids: Mapping[str, Fraction], paths: Ranked | None = None) -> Ranked:
    """Ranked paths up to the first one that misses the last cheapest-path agent.

    Raises Tie when costs are not strictly increasing over that prefix, which
    is exactly when the group-sharing rules must refuse the profile. `paths`
    is an already ranked list to read instead of ranking again.
    """
    owner_of = net.owner_of
    out: Ranked = []
    remaining: set[str] = set()
    for cost, edges in iter_paths(net, bids) if paths is None else paths:
        if out and cost == out[-1][0]:
            raise Tie(f"ranked paths {len(out)} and {len(out) + 1} tie at {cost}")
        out.append((cost, edges))
        owners = {owner_of[e] for e in edges}
        if len(out) == 1:
            remaining = owners
        else:
            remaining &= owners
            if not remaining:
                return out
    raise ValueError("an agent lies on every path")


def groups(net: Net, prefix: Ranked) -> dict[str, int]:
    """Survival group per cheapest-path agent: index of its first absent path."""
    owner_of = net.owner_of
    path_owners = [{owner_of[e] for e in edges} for _, edges in prefix]
    return {
        agent: next(j for j, owners in enumerate(path_owners) if agent not in owners)
        for agent in path_owners[0]
    }


@dataclass(frozen=True)
class PathExpectation:
    """What one path mechanism must return on one bid profile."""

    total: Fraction
    chosen: tuple[str, ...]
    payments: Mapping[str, Fraction] | None = None  # checked per agent where given


def path_expectations(
    net: Net, bids: Mapping[str, Fraction], paths: Ranked | None = None
) -> dict[str, PathExpectation | Tie]:
    """Expected outcome of every path mechanism (default parameters) on one profile.

    A Tie instance means the mechanism must raise TieError. `paths` is an
    already ranked list long enough to hold the grouping prefix.
    """
    top = ranked(net, bids, 2) if paths is None else paths[:2]
    chosen = top[0][1]
    owner_of = net.owner_of
    if len(top) == 2 and top[0][0] == top[1][0]:
        tie = Tie("two cheapest paths tie")
        return {m: tie for m in PATH_MECHANISMS}
    best = top[0][0]
    out: dict[str, PathExpectation | Tie] = {
        "fp-path": PathExpectation(best, chosen),
    }
    vcg_pay = {
        owner_of[e]: detour_excluded(net, bids, e) - (best - bids[owner_of[e]]) for e in chosen
    }
    vcg_total = sum(vcg_pay.values(), Fraction(0))
    out["vcg"] = PathExpectation(vcg_total, chosen, vcg_pay)
    try:
        prefix = grouping_prefix(net, bids, paths)
    except Tie as tie:
        out.update({m: tie for m in ("x", "tradeoff1", "tradeoff2", "tradeoff3")})
        return out
    group_of = groups(net, prefix)
    costs = [c for c, _ in prefix]
    x_total = costs[max(group_of.values())]
    out["x"] = PathExpectation(x_total, chosen)
    out["tradeoff1"] = savings_switch(out, Fraction(0))
    out["tradeoff2"] = PathExpectation(
        best + sum((costs[q] - costs[q - 1] for q in group_of.values()), Fraction(0)), chosen
    )
    out["tradeoff3"] = PathExpectation(
        best + sum((costs[q] - costs[0] for q in set(group_of.values())), Fraction(0)), chosen
    )
    return out


def savings_switch(
    expect: Mapping[str, PathExpectation | Tie], threshold: Fraction
) -> PathExpectation | Tie:
    """tradeoff1: the group-sharing total when it saves more than `threshold`
    of the marginal-pricing total, else the marginal-pricing total."""
    vcg, x = expect["vcg"], expect["x"]
    if isinstance(x, Tie):
        return x
    saving = (vcg.total - x.total) / vcg.total
    return PathExpectation(x.total if saving > threshold else vcg.total, vcg.chosen)


def single_item_expectation(
    bids: Mapping[str, Fraction], mechanism: str, orientation: str, lam: Fraction
) -> tuple[str, Fraction] | Tie:
    """(winner, amount) of a single-item auction, or Tie."""
    order = sorted(bids.values(), reverse=orientation == "forward")
    if order[0] == order[1]:
        return Tie("tied winning bid")
    winner = next(a for a, v in bids.items() if v == order[0])
    own, second = order[0], order[1]
    if mechanism == "fp-single":
        return winner, own
    if mechanism == "vickrey-single":
        return winner, second
    return winner, lam * own + (1 - lam) * second


# ---------------------------------------------------------------------------
# Grid oracles: one mechanism run per profile, no analysis-layer code
# ---------------------------------------------------------------------------


def grid_outcomes(
    run: Callable[[dict[str, Fraction]], object],
    tie_error: type,
    agents: Sequence[str],
    grid: Mapping[str, Sequence[Fraction]],
) -> dict[tuple[Fraction, ...], object | None]:
    """PaymentResult per profile (None where the mechanism raised a tie)."""
    out: dict[tuple[Fraction, ...], object | None] = {}
    for profile in itertools.product(*(grid[a] for a in agents)):
        try:
            out[profile] = run(dict(zip(agents, profile)))
        except tie_error:
            out[profile] = None
    return out


def mechanism_argmax(
    outcomes: Mapping[tuple[Fraction, ...], object | None]
) -> set[tuple[Fraction, ...]]:
    """Profiles reaching the maximum mechanism utility over the admissible grid."""
    admissible = {p: r.mechanism_utility for p, r in outcomes.items() if r is not None}
    if not admissible:
        return set()
    top = max(admissible.values())
    return {p for p, u in admissible.items() if u == top}


def partly_truthful_failures(
    outcomes: Mapping[tuple[Fraction, ...], object | None],
    agents: Sequence[str],
    grid: Mapping[str, Sequence[Fraction]],
    types: Mapping[str, Fraction],
) -> int:
    """Number of violated partial-truthfulness conditions, counted the way
    ``check_partly_truthful`` reports them: one per agent whose truthful bid
    does not maximise selection probability, one per adjacent bid pair where
    the probability rises, one per selected agent with utility <= 0."""
    failures = 0
    for i, agent in enumerate(agents):
        prob: dict[Fraction, Fraction] = {}
        for bid in grid[agent]:
            admissible = selected = 0
            for profile, result in outcomes.items():
                if profile[i] != bid or result is None:
                    continue
                admissible += 1
                selected += agent in result.selected
            prob[bid] = Fraction(selected, admissible) if admissible else Fraction(0)
        if prob.get(types[agent]) != max(prob.values()):
            failures += 1
        own = list(grid[agent])
        failures += sum(prob[b2] > prob[b1] for b1, b2 in zip(own, own[1:]))
    for result in outcomes.values():
        if result is not None:
            failures += sum(result.utilities[a] <= 0 for a in result.selected)
    return failures
