"""Directed-graph substrate for procurement path auctions.

The model is a directed multigraph from a source to a different sink in
which every edge is owned by exactly one self-interested agent and every
agent owns exactly one edge. Each agent carries a private true cost and a
declared bid, both strictly positive exact rationals. A Network holds every
one of these structural rules from construction. Every search refuses a
cost map that breaks the sign rule too, so the one zero a search sees is
the edge that a "zeroed" detour prices at 0, no zero-cost cycle forms, and
only the enumeration oracle does exponential work.

This module provides:

* validation of the reachability rules a Network admits breaking: some
  path joins source to sink, and no single agent's edge is a cut,
* deterministic shortest and k-shortest loopless path computation
  (Dijkstra plus Yen-style deviations with Lawler's refinement, ties
  broken by the lexicographically smallest edge-id sequence); a ranking
  reads its spurs off one unrestricted reverse shortest-path tree and
  runs a restricted search only for a spur the tree does not settle,
* a brute-force enumeration oracle for all loopless paths, used to
  cross-check the ranking algorithms on small instances,
* detour costs (cheapest path avoiding an agent, cheapest path with an
  agent's cost zeroed) that marginal-pricing rules are built from,
* the normative JSON file format for networks.

Every search runs in integers. The ranking (`_ranked_routes`) and the
detour (`_detour_units`) take costs a caller has already scaled to
positive whole units and answer in those units; the mechanism layer calls
them at its own pricing scale. The public views (`shortest_path`,
`iter_ranked_paths`, `rank_paths`, `detour_cost`, `enumerate_paths`)
scale their cost map once by its least common denominator and build a
`Fraction` only for what they return.

Every function here is pure; results depend only on arguments and are
safe to share between threads. Values are immutable, except a Network's
two cost maps: shared dicts, which nothing here mutates.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import Disconnected, FormatError, TooLarge
from .rational import format_cost, parse_cost

#: Edge-count guard for the brute-force enumeration oracle.
ENUMERATION_EDGE_GUARD = 24


@dataclass(frozen=True)
class Edge:
    """One directed edge; `owner` is the agent that prices it."""

    id: str
    tail: str
    head: str
    owner: str


@dataclass(frozen=True)
class Path:
    """A loopless source-to-sink route.

    `edges` and `owners` are aligned; `cost` is the sum of the designated
    cost of each edge under whatever cost map produced the path.
    """

    edges: tuple[str, ...]
    owners: tuple[str, ...]
    cost: Fraction

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.owners):
            raise ValueError("edges and owners must be aligned")

    @property
    def owner_set(self) -> frozenset[str]:
        return frozenset(self.owners)


@dataclass(frozen=True)
class RankedPaths:
    """Paths in nondecreasing cost order (ties: smaller edge-id sequence)."""

    paths: tuple[Path, ...]

    @property
    def costs(self) -> tuple[Fraction, ...]:
        return tuple(p.cost for p in self.paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths)


@dataclass(frozen=True)
class Violation:
    """One broken invariant: the rule that failed and the offending element."""

    rule: str
    subject: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.subject}"


@dataclass(frozen=True, eq=True)
class Network:
    """Directed multigraph with one pricing agent per edge.

    Construction, `dataclasses.replace` included, raises ValueError for
    any structural rule broken, naming the first: node names are distinct,
    source and sink are different nodes, edge ids are distinct and every
    endpoint is a node ("unknown node: edge e2 endpoint 'Z'"), each agent
    owns exactly one edge ("agent owns multiple edges: a"), and `true_cost`
    and `bid` are keyed by exactly the edge owners with positive values
    ("nonpositive cost: bid a=0"). So every layer prices an agent by its
    one edge; only reachability is left to `validate`. The fields cannot be
    reassigned, but the two cost maps are the dicts given at construction,
    shared rather than copied: callers must not mutate them. Derived lookup
    tables are built once at construction.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    source: str
    sink: str
    true_cost: dict[str, Fraction]
    bid: dict[str, Fraction]

    _adjacency: dict[str, tuple[Edge, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _radjacency: dict[str, tuple[Edge, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _edge_by_id: dict[str, Edge] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _edge_of_owner: dict[str, Edge] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # What `validate` found, set by its first call: it reads only the
    # structure, which cannot change.
    _violations: tuple[Violation, ...] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        nodes = set(self.nodes)
        if len(nodes) != len(self.nodes):
            raise ValueError("duplicate node: nodes list repeats a name")
        for endpoint, label in ((self.source, "source"), (self.sink, "sink")):
            if endpoint not in nodes:
                raise ValueError(f"unknown node: {label} {endpoint!r}")
        if self.source == self.sink:
            raise ValueError(f"source equals sink: {self.source}")
        fwd: dict[str, list[Edge]] = {}
        rev: dict[str, list[Edge]] = {}
        by_id, of_owner = self._edge_by_id, self._edge_of_owner
        for edge in self.edges:
            if edge.id in by_id:
                raise ValueError(f"duplicate edge id: {edge.id}")
            if edge.tail not in nodes or edge.head not in nodes:
                endpoint = edge.tail if edge.tail not in nodes else edge.head
                raise ValueError(f"unknown node: edge {edge.id} endpoint {endpoint!r}")
            if edge.owner in of_owner:
                raise ValueError(f"agent owns multiple edges: {edge.owner}")
            by_id[edge.id] = of_owner[edge.owner] = edge
            fwd.setdefault(edge.tail, []).append(edge)
            rev.setdefault(edge.head, []).append(edge)
        owners = of_owner.keys()
        for label, costs in (("true_cost", self.true_cost), ("bid", self.bid)):
            if missing := owners - costs.keys():
                raise ValueError(f"missing cost: {label} for agent {min(missing)}")
            if extra := costs.keys() - owners:
                raise ValueError(f"unexpected cost entry: {label} for {min(extra)}")
            for agent, value in costs.items():
                # A Fraction's sign is its numerator's; an int compares far faster.
                if value.numerator <= 0:
                    raise ValueError(f"nonpositive cost: {label} {agent}={format_cost(value)}")
        for node, out in fwd.items():
            self._adjacency[node] = tuple(sorted(out, key=lambda e: e.id))
        for node, inc in rev.items():
            self._radjacency[node] = tuple(sorted(inc, key=lambda e: e.id))

    @property
    def agents(self) -> tuple[str, ...]:
        """All edge owners, sorted."""
        return tuple(sorted(self._edge_of_owner))

    def edge_of(self, agent: str) -> Edge:
        return self._edge_of_owner[agent]

    def edge(self, edge_id: str) -> Edge:
        return self._edge_by_id[edge_id]

    def out_edges(self, node: str) -> tuple[Edge, ...]:
        return self._adjacency.get(node, ())

    def in_edges(self, node: str) -> tuple[Edge, ...]:
        return self._radjacency.get(node, ())


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(network: Network) -> list[Violation]:
    """Check the reachability rules, the model invariants a Network admits
    breaking: some path joins source to sink, and no agent owns a cut. Every
    structural rule holds from construction. An empty list means the
    network is valid.

    Violations are data, not failures: each one names the broken rule and
    the offending element so callers can print or collect them. Cuts are
    found by one growing search, not one search per edge, and reported in
    edge order. The search runs once per Network; each call returns a
    fresh list.
    """
    if network._violations is None:
        cuts = _cut_edge_ids(network)
        if cuts is None:
            found = (Violation("disconnected", f"no path {network.source} -> {network.sink}"),)
        else:
            found = tuple(
                Violation("agent owns a cut", edge.owner)
                for edge in network.edges
                if edge.id in cuts
            )
        object.__setattr__(network, "_violations", found)
    return list(network._violations)


def _cut_edge_ids(network: Network) -> set[str] | None:
    """The ids of the edges without which no path joins source to sink, in
    one pass; None when no path joins them at all.

    Take one source-to-sink path P, edges e_0..e_{L-1} through nodes
    v_0..v_L; no edge off P is a cut. Edge e_i is one exactly when a search
    from the source that may not use e_i..e_{L-1} reaches no v_j with
    j > i: P leads on from such a v_j to the sink, and a path that avoids
    e_i first meets v_{i+1}..v_L by none of e_i..e_{L-1}. Step i frees
    e_{i-1}, so a single search, grown step by step, covers every i in
    O(nodes + edges).
    """
    source, sink = network.source, network.sink
    via: dict[str, Edge | None] = {source: None}
    frontier = [source]
    while frontier and sink not in via:
        for edge in network.out_edges(frontier.pop()):
            if edge.head not in via:
                via[edge.head] = edge
                frontier.append(edge.head)
    if sink not in via:
        return None
    path: list[Edge] = []
    while (edge := via[path[-1].tail if path else sink]) is not None:
        path.append(edge)
    path.reverse()
    step_of = {edge.id: i for i, edge in enumerate(path)}
    index = {edge.head: i for i, edge in enumerate(path, 1)}
    seen, frontier, reach, cuts = {source}, [source], 0, set()
    for i, edge in enumerate(path):
        if edge.tail not in seen:  # e_{i-1}, freed at this step, reaches v_i.
            seen.add(edge.tail)
            frontier.append(edge.tail)
            reach = max(reach, i)
        while frontier:
            for out in network.out_edges(frontier.pop()):
                if out.head not in seen and step_of.get(out.id, -1) < i:
                    seen.add(out.head)
                    frontier.append(out.head)
                    reach = max(reach, index.get(out.head, 0))
        if reach <= i:
            cuts.add(edge.id)
    return cuts


# ---------------------------------------------------------------------------
# Shortest paths
# ---------------------------------------------------------------------------


def _scaled_costs(
    network: Network, costs: Mapping[str, Fraction] | None
) -> tuple[dict[str, int], int]:
    """The cost map in integers, and the scale it was multiplied by.

    The scale is the least common denominator of the map, so a sum of
    scaled costs over the scale is the exact rational sum. The public
    views search with these integers and return `Fraction(cost, scale)`.
    A cost that is not positive is a ValueError.
    """
    resolved = network.bid if costs is None else costs
    scale = math.lcm(*(value.denominator for value in resolved.values()))
    scaled = {
        agent: value.numerator * (scale // value.denominator)
        for agent, value in resolved.items()
    }
    # Checked on the integers, which compare far faster than Fractions.
    for agent, value in scaled.items():
        if value < 1:
            raise ValueError(f"nonpositive cost for agent {agent}")
    return scaled, scale


# A search result in scaled integers: (cost, edge ids, owners).
_Route = tuple[int, tuple[str, ...], tuple[str, ...]]


def _path(route: _Route, scale: int) -> Path:
    cost, edges, owners = route
    return Path(edges, owners, Fraction(cost, scale))


def _distance_to_sink(
    network: Network,
    costs: Mapping[str, int],
    excluded_edges: frozenset[str],
    excluded_nodes: frozenset[str],
    origin: str | None,
) -> dict[str, int]:
    """Dijkstra over reversed edges: exact min cost from each node to the sink.

    The search stops once `origin` is settled: costs are positive, so the
    nodes a tight-edge walk from `origin` takes are closer to the sink and
    settled first. (A "zeroed" detour, which reads only the cost, may walk
    past its zero edge to another path of that cost.) With no origin it
    settles every node that reaches the sink.
    """
    dist: dict[str, int] = {}
    heap: list[tuple[int, str]] = [(0, network.sink)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        if node == origin:
            break
        for edge in network.in_edges(node):
            if edge.id in excluded_edges or edge.tail in excluded_nodes or edge.tail in dist:
                continue
            heapq.heappush(heap, (d + costs[edge.owner], edge.tail))
    return dist


# A tight walk: its edge ids, their owners and every node it visits.
_Walk = tuple[tuple[str, ...], tuple[str, ...], set[str]]


def _tight_walk(
    network: Network,
    costs: Mapping[str, int],
    dist: Mapping[str, int],
    origin: str,
    excluded_edges: frozenset[str] = frozenset(),
) -> _Walk:
    """The walk from `origin` to the sink along tight edges under `dist`.

    At each node it takes the first out-edge by id, not excluded and not
    back to a node already walked, with cost + dist[head] == dist[node].
    This is the one tie-break rule of every search: with strictly positive
    costs (at most one zeroed edge) such an edge always exists and the
    walk cannot revisit a node, so it is the lexicographic minimum over
    all minimum-cost paths. Nodes that `dist` lacks are never entered.
    """
    sink = network.sink
    edges: list[str] = []
    owners: list[str] = []
    visited = {origin}
    node = origin
    while node != sink:
        target = dist[node]
        for edge in network.out_edges(node):
            if edge.id in excluded_edges or edge.head in visited:
                continue
            head_dist = dist.get(edge.head)
            if head_dist is not None and costs[edge.owner] + head_dist == target:
                break
        edges.append(edge.id)
        owners.append(edge.owner)
        visited.add(edge.head)
        node = edge.head
    return tuple(edges), tuple(owners), visited


def _best_path(
    network: Network,
    costs: Mapping[str, int],
    excluded_edges: frozenset[str] = frozenset(),
    excluded_nodes: frozenset[str] = frozenset(),
    start: str | None = None,
) -> _Route | None:
    """Minimum-cost loopless path, lexicographically smallest edge ids among ties.

    Works by computing exact distances to the sink, which leave out the
    excluded nodes (never the origin or sink), then taking the tight walk
    (`_tight_walk`); None when the sink is out of reach.
    """
    origin = network.source if start is None else start
    dist = _distance_to_sink(network, costs, excluded_edges, excluded_nodes, origin)
    if origin not in dist:
        return None
    edges, owners, _ = _tight_walk(network, costs, dist, origin, excluded_edges)
    return dist[origin], edges, owners


class _ReverseTree:
    """One unrestricted reverse search, read for every spur of one ranking.

    `dist` holds every node's distance D to the sink with nothing removed,
    and each node's tight walk under D is cached on first use.
    """

    def __init__(self, network: Network, costs: Mapping[str, int]) -> None:
        self.network = network
        self.costs = costs
        self.dist = _distance_to_sink(network, costs, frozenset(), frozenset(), None)
        self.walks: dict[str, _Walk] = {}

    def walk(self, node: str) -> _Walk:
        if node not in self.walks:
            self.walks[node] = _tight_walk(self.network, self.costs, self.dist, node)
        return self.walks[node]

    def spur(
        self, start: str, removed: set[str], blocked: set[str]
    ) -> tuple[bool, _Route | None]:
        """The restricted search's answer from `start`, read off D when D
        settles it: (True, route or None), else (False, None).

        `blocked` holds the root nodes and `start`; `removed` holds the
        out-edges of `start` the spur must avoid. Take the allowed edge e
        (not removed, head not blocked and in D) that is smallest by
        (cost + D(head), edge id). With none there is no spur. When the
        head's walk avoids `blocked`, the spur is e and that walk:
        restricted distances never fall below D and equal it along such a
        walk, so the restricted search picks the same edges. Otherwise D
        does not settle it. On an acyclic network no walk can reach a root
        node, so D settles every spur.
        """
        dist, costs = self.dist, self.costs
        best: Edge | None = None
        best_cost = 0
        for edge in self.network.out_edges(start):
            if edge.id in removed or edge.head in blocked:
                continue
            head_dist = dist.get(edge.head)
            if head_dist is None:
                continue
            cost = costs[edge.owner] + head_dist
            if best is None or cost < best_cost:
                best, best_cost = edge, cost
        if best is None:
            return True, None
        walk = self.walk(best.head)
        if not blocked.isdisjoint(walk[2]):
            return False, None
        return True, (best_cost, (best.id,) + walk[0], (best.owner,) + walk[1])


def shortest_path(network: Network, costs: Mapping[str, Fraction] | None = None) -> Path:
    """Minimum-cost loopless source-to-sink path under the given cost map.

    `costs` maps agent id to a positive cost; None means the declared
    bids. Ties at the minimum are resolved toward the lexicographically
    smallest edge-id sequence, so the result is deterministic.

    Raises Disconnected when the sink is unreachable, and ValueError for a
    cost that is not positive.
    """
    scaled, scale = _scaled_costs(network, costs)
    route = _best_path(network, scaled)
    if route is None:
        raise Disconnected(f"no path {network.source} -> {network.sink}")
    return _path(route, scale)


def _ranked_routes(network: Network, scaled: Mapping[str, int]) -> Iterator[_Route]:
    """Yield loopless routes in nondecreasing cost order (Yen-style deviations).

    `scaled` maps every agent to a positive whole number of units, at a
    scale of the caller's choosing; each route's cost is in those units.
    The iterator is exhaustive: run to completion it produces every
    loopless source-to-sink route exactly once. Candidate deviations are
    ordered by (cost, edge-id sequence), matching the enumeration oracle's
    sort. Raises Disconnected on the first `next` when no path joins
    source and sink.

    Lawler's refinement: a path that deviated from an earlier one at index
    d shares that path's first d edges, and those roots were spurred when
    the earlier path was yielded, so spurs start at d. A candidate found
    again from a later root keeps its first, smaller index. `branches` maps
    each root (edge-id prefix) to the next edges of the yielded paths
    through it, which the spur from that root must avoid.

    One reverse search per ranking: the first path is the source's tight
    walk under the unrestricted distances to the sink, and each spur is
    read off the same tree (`_ReverseTree.spur`, after Feng's node
    classification). Only a spur the tree does not settle, which needs a
    cycle through a root node, runs its own restricted search. With
    positive costs no search here is exhaustive.
    """
    tree = _ReverseTree(network, scaled)
    if network.source not in tree.dist:
        raise Disconnected(f"no path {network.source} -> {network.sink}")
    edges, owners, _ = tree.walk(network.source)
    # Heap entries: route fields, then the deviation index. Edge sequences
    # are unique in the heap, so entries never compare past them.
    heap = [(tree.dist[network.source], edges, owners, 0)]
    seen = {edges}
    branches: dict[tuple[str, ...], set[str]] = {}
    while heap:
        cost, edges, owners, deviation = heapq.heappop(heap)
        yield cost, edges, owners
        nodes = _node_sequence(network, edges)
        root_cost = sum(scaled[owner] for owner in owners[:deviation])
        blocked = set(nodes[:deviation])
        for i in range(deviation, len(edges)):
            root = edges[:i]
            removed = branches.setdefault(root, set())
            removed.add(edges[i])
            blocked.add(nodes[i])
            settled, spur = tree.spur(nodes[i], removed, blocked)
            if not settled:
                spur = _best_path(
                    network,
                    scaled,
                    excluded_edges=frozenset(removed),
                    excluded_nodes=frozenset(nodes[:i]),
                    start=nodes[i],
                )
            if spur is not None:
                candidate = root + spur[1]
                if candidate not in seen:
                    seen.add(candidate)
                    heapq.heappush(
                        heap, (root_cost + spur[0], candidate, owners[:i] + spur[2], i)
                    )
            root_cost += scaled[owners[i]]


def iter_ranked_paths(
    network: Network, costs: Mapping[str, Fraction] | None = None
) -> Iterator[Path]:
    """Yield loopless paths in nondecreasing cost order, ties broken by the
    smaller edge-id sequence, until every loopless source-to-sink path has
    been yielded once.

    A view of `_ranked_routes`: the cost map (None means the declared
    bids) is scaled once by its least common denominator, and each route
    becomes a `Path` with a `Fraction` cost as it is yielded. Costs must be
    positive (ValueError otherwise); Disconnected when no path exists.
    Both are raised on the first `next`.
    """
    scaled, scale = _scaled_costs(network, costs)
    for route in _ranked_routes(network, scaled):
        yield _path(route, scale)


def rank_paths(
    network: Network, costs: Mapping[str, Fraction] | None = None, k: int = 1
) -> RankedPaths:
    """The first min(k, total) loopless paths in nondecreasing cost order."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    scaled, scale = _scaled_costs(network, costs)
    routes = itertools.islice(_ranked_routes(network, scaled), k)
    return RankedPaths(tuple(_path(route, scale) for route in routes))


def _node_sequence(network: Network, edges: tuple[str, ...]) -> tuple[str, ...]:
    nodes = [network.source]
    for edge_id in edges:
        nodes.append(network.edge(edge_id).head)
    return tuple(nodes)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _walk_all(network: Network, costs: Mapping[str, int]) -> Iterator[_Route]:
    """Every loopless source-to-sink route, in no set order. The explicit
    stack leaves no reference cycle behind, as a self-calling closure would."""
    sink = network.sink
    stack = [(0, (), (), (network.source,))]  # route fields, then the nodes walked
    while stack:
        cost, edges, owners, nodes = stack.pop()
        if nodes[-1] == sink:
            yield cost, edges, owners
            continue
        for edge in network.out_edges(nodes[-1]):
            if edge.head not in nodes:
                stack.append((cost + costs[edge.owner], edges + (edge.id,),
                              owners + (edge.owner,), nodes + (edge.head,)))


def enumerate_paths(
    network: Network, costs: Mapping[str, Fraction] | None = None
) -> RankedPaths:
    """Every loopless source-to-sink path, sorted exactly as rank_paths sorts.

    This is the desk-scale oracle the ranking algorithms are checked
    against, and the only search that raises TooLarge: it refuses graphs
    with more than ENUMERATION_EDGE_GUARD edges.
    """
    if len(network.edges) > ENUMERATION_EDGE_GUARD:
        raise TooLarge(
            f"{len(network.edges)} edges exceeds the enumeration guard of "
            f"{ENUMERATION_EDGE_GUARD}"
        )
    scaled, scale = _scaled_costs(network, costs)
    routes = sorted(_walk_all(network, scaled))
    if not routes:
        raise Disconnected(f"no path {network.source} -> {network.sink}")
    return RankedPaths(tuple(_path(route, scale) for route in routes))


# ---------------------------------------------------------------------------
# Detour costs
# ---------------------------------------------------------------------------


def _detour_units(
    network: Network, agent: str, mode: str, scaled: Mapping[str, int]
) -> int:
    """Cost, in the units of `scaled`, of the cheapest path after sidelining
    `agent`, an owner of `network`; `scaled` is as `_ranked_routes` takes
    it and is not mutated. The modes are `detour_cost`'s."""
    if mode == "excluded":
        route = _best_path(
            network, scaled, excluded_edges=frozenset({network.edge_of(agent).id})
        )
        if route is None:
            raise Disconnected(f"removing agent {agent} disconnects the network")
        return route[0]
    if mode == "zeroed":
        route = _best_path(network, {**scaled, agent: 0})
        if route is None:
            raise Disconnected(f"no path {network.source} -> {network.sink}")
        return route[0]
    raise ValueError(f"unknown detour mode {mode!r}")


def detour_cost(
    network: Network,
    agent: str,
    mode: str,
    costs: Mapping[str, Fraction] | None = None,
) -> Fraction:
    """Cost of the cheapest path after sidelining one agent.

    mode "excluded": the agent's edge is removed entirely (the agent must
    not own a cut). mode "zeroed": the agent's edge is kept but priced at
    zero, the one zero a search ever sees. An agent that owns no edge is a
    ValueError (the Network holds one per owner), as is a nonpositive cost.
    A view of `_detour_units` at the cost map's least common denominator.
    """
    if agent not in network._edge_of_owner:
        raise ValueError(f"unknown agent {agent!r}")
    scaled, scale = _scaled_costs(network, costs)
    return Fraction(_detour_units(network, agent, mode, scaled), scale)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

# Each ASCII character a JSON string escapes, as json.dumps escapes it: the
# control characters and DEL by code, the quote, the backslash and five
# controls by a letter.
_ESCAPES = {c: "\\u%04x" % c for c in (*range(0x20), 0x7F)}
_ESCAPES.update({ord(c): "\\" + e for c, e in zip('"\\\b\t\n\f\r', '"\\btnfr')})


def _escape_non_ascii(char: str) -> str:
    code = ord(char)
    if code < 0x80:
        return char
    if code < 0x10000:
        return "\\u%04x" % code
    code -= 0x10000
    return "\\u%04x\\u%04x" % (0xD800 | code >> 10, 0xDC00 | code & 0x3FF)


def _json_string(text: str) -> str:
    if text.isprintable() and text.isascii() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    text = text.translate(_ESCAPES)
    if not text.isascii():
        text = "".join(map(_escape_non_ascii, text))
    return f'"{text}"'


def _to_json(value, indent: str = "\n") -> str:
    """`value` byte for byte as json.dumps writes it at an indent of two
    spaces, non-ASCII escaped, for dicts with str keys, lists, strs, ints
    and None, nested in any way; any other type raises TypeError. `indent`
    is a newline and the enclosing container's indentation. Every JSON
    text the package writes comes from here: json's encoder falls back to
    pure Python whenever it indents, and this writer is faster. A str item
    is quoted in place, saving a call per item."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = [
            f"{_json_string(k)}: {_json_string(v) if type(v) is str else _to_json(v, inner)}"
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        items = [_json_string(v) if type(v) is str else _to_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"cannot write {kind.__name__} as JSON")


_NETWORK_KEYS = {"nodes", "edges", "source", "sink"}
_EDGE_REQUIRED = {"id", "from", "to", "owner", "true_cost"}
_EDGE_KEYS = _EDGE_REQUIRED | {"bid"}


def network_from_json(text: str) -> Network:
    """Parse the normative JSON network format.

    Unknown keys are rejected; a missing edge `bid` defaults to the edge's
    `true_cost`. Costs must be canonical cost strings. A file the Network
    constructor refuses raises FormatError with the constructor's message,
    so every file the library cannot model is a FormatError.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise FormatError("network file must be a JSON object")
    unknown = set(raw) - _NETWORK_KEYS
    if unknown:
        raise FormatError(f"unknown network keys: {sorted(unknown)}")
    missing = _NETWORK_KEYS - set(raw)
    if missing:
        raise FormatError(f"missing network keys: {sorted(missing)}")
    if not isinstance(raw["nodes"], list) or not all(isinstance(n, str) for n in raw["nodes"]):
        raise FormatError("nodes must be an array of strings")
    if not isinstance(raw["edges"], list):
        raise FormatError("edges must be an array of objects")

    edges: list[Edge] = []
    true_cost: dict[str, Fraction] = {}
    bid: dict[str, Fraction] = {}
    for item in raw["edges"]:
        if not isinstance(item, dict):
            raise FormatError("each edge must be a JSON object")
        unknown = set(item) - _EDGE_KEYS
        if unknown:
            raise FormatError(f"unknown edge keys: {sorted(unknown)}")
        missing = _EDGE_REQUIRED - set(item)
        if missing:
            raise FormatError(f"edge missing keys: {sorted(missing)}")
        for key in ("id", "from", "to", "owner"):
            if not isinstance(item[key], str):
                raise FormatError(f"edge field {key} must be a string")
        owner = item["owner"]
        edges.append(Edge(item["id"], item["from"], item["to"], owner))
        true_cost[owner] = parse_cost(item["true_cost"])
        bid[owner] = parse_cost(item["bid"]) if "bid" in item else true_cost[owner]

    for key in ("source", "sink"):
        if not isinstance(raw[key], str):
            raise FormatError(f"{key} must be a string")

    try:
        return Network(
            nodes=tuple(raw["nodes"]),
            edges=tuple(edges),
            source=raw["source"],
            sink=raw["sink"],
            true_cost=true_cost,
            bid=bid,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def network_to_json(network: Network) -> str:
    """Canonical serialization: sorted nodes and edges, bid always explicit."""
    payload = {
        "nodes": sorted(network.nodes),
        "edges": [
            {
                "id": e.id,
                "from": e.tail,
                "to": e.head,
                "owner": e.owner,
                "true_cost": format_cost(network.true_cost[e.owner]),
                "bid": format_cost(network.bid[e.owner]),
            }
            for e in sorted(network.edges, key=lambda e: e.id)
        ],
        "source": network.source,
        "sink": network.sink,
    }
    return _to_json(payload) + "\n"


def load_network(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as handle:
        return network_from_json(handle.read())


def save_network(network: Network, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(network_to_json(network))


def bids_from_json(text: str, network: Network | None = None) -> dict[str, Fraction]:
    """Parse a bid-profile file: a JSON object mapping agent id to cost string."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise FormatError("bid file must be a JSON object")
    bids = {}
    for agent, value in raw.items():
        bids[agent] = parse_cost(value)
    if network is not None and set(bids) != set(network.agents):
        raise FormatError("bid profile must cover exactly the network's agents")
    return bids


def bids_to_json(bids: Mapping[str, Fraction]) -> str:
    return _to_json({a: format_cost(v) for a, v in sorted(bids.items())}) + "\n"
