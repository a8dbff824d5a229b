import dataclasses
import gc
import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathauction import graph as graph_module
from pathauction import (
    Disconnected,
    Edge,
    FormatError,
    MechanismSpec,
    Network,
    Path,
    TieError,
    TooLarge,
    bids_from_json,
    bids_to_json,
    detour_cost,
    enumerate_paths,
    iter_ranked_paths,
    fixture,
    load_network,
    network_from_json,
    network_to_json,
    random_network,
    rank_paths,
    save_network,
    shortest_path,
    validate,
)


def _net(rows, source, sink, bids=None):
    nodes = sorted({n for _, t, h, _ in rows for n in (t, h)})
    edges = tuple(Edge(eid, t, h, eid) for eid, t, h, _ in rows)
    costs = {eid: Fraction(c) for eid, _, _, c in rows}
    return Network(
        nodes=tuple(nodes),
        edges=edges,
        source=source,
        sink=sink,
        true_cost=costs,
        bid=dict(bids) if bids else dict(costs),
    )


def test_path_refuses_misaligned_edges_and_owners():
    with pytest.raises(ValueError, match="^edges and owners must be aligned$"):
        Path(edges=("a", "b"), owners=("a",), cost=Fraction(2))


def test_example1_is_valid(example1):
    assert validate(example1) == []


def test_single_edge_network_owns_a_cut():
    net = _net([("only", "X", "Y", 3)], "X", "Y")
    rules = {v.rule for v in validate(net)}
    assert "agent owns a cut" in rules


_PAIR = _net([("a", "X", "Y", 1), ("b", "X", "Y", 2)], "X", "Y")
_A_AND_B = {"a": Fraction(1), "b": Fraction(2)}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"nodes": ("X", "Y", "X")}, "duplicate node: nodes list repeats a name"),
        ({"source": "S"}, "unknown node: source 'S'"),
        ({"sink": "Z"}, "unknown node: sink 'Z'"),
        ({"sink": "X"}, "source equals sink: X"),
        ({"edges": (Edge("a", "X", "Y", "a"), Edge("a", "X", "Y", "b"))},
         "duplicate edge id: a"),
        ({"edges": (Edge("a", "X", "Y", "a"), Edge("e2", "X", "Z", "b"))},
         "unknown node: edge e2 endpoint 'Z'"),
        ({"true_cost": {"a": Fraction(0), "b": Fraction(2)}}, "nonpositive cost: true_cost a=0"),
        ({"bid": {"a": Fraction(0), "b": Fraction(2)}}, "nonpositive cost: bid a=0"),
        ({"bid": {"a": Fraction(1), "b": Fraction(-1, 3)}}, "nonpositive cost: bid b=-1/3"),
        ({"edges": (Edge("a", "X", "Y", "a"), Edge("b", "X", "Y", "a"))},
         "agent owns multiple edges: a"),
        ({"true_cost": {"a": Fraction(1)}}, "missing cost: true_cost for agent b"),
        ({"bid": {}}, "missing cost: bid for agent a"),
        ({"true_cost": {**_A_AND_B, "z": Fraction(3)}}, "unexpected cost entry: true_cost for z"),
        ({"bid": {**_A_AND_B, "z": Fraction(3), "y": Fraction(1)}},
         "unexpected cost entry: bid for y"),
    ],
    ids=["duplicate-node", "unknown-source", "unknown-sink", "source-is-sink",
         "duplicate-edge", "unknown-endpoint", "zero-true-cost", "zero-bid", "negative-bid",
         "two-edge-owner", "missing-true-cost", "missing-bid", "unexpected-true-cost",
         "unexpected-bid"],
)
def test_network_holds_one_edge_and_one_cost_per_owner(changes, message):
    """Every structural rule of the model is the constructor's: a repeated
    node name or edge id, an unknown endpoint, one node as source and sink,
    an owner with a second edge, and a cost map that does not give exactly
    the owners a positive cost are each refused however the network is
    built."""
    fields = {f.name: getattr(_PAIR, f.name) for f in dataclasses.fields(Network) if f.init}
    for build in (lambda: Network(**{**fields, **changes}),
                  lambda: dataclasses.replace(_PAIR, **changes)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_network_refuses_the_walk_without_end():
    """Two edges named `a` once let the ranking yield ('a', 'd', 'b'),
    ('a', 'd', 'd', 'b'), ... without end, where the enumeration listed
    three paths; the network cannot be built."""
    rows = [("a", "v0", "v2", 3), ("c", "v2", "v3", 2), ("b", "v1", "v3", 1),
            ("e", "v0", "v3", 4), ("a", "v3", "v2", 1), ("d", "v2", "v2", 2),
            ("d", "v2", "v1", 3)]
    edges = tuple(Edge(eid, t, h, f"o{i}") for i, (eid, t, h, _) in enumerate(rows))
    costs = {f"o{i}": Fraction(c) for i, (*_, c) in enumerate(rows)}
    with pytest.raises(ValueError, match="^duplicate edge id: a$"):
        Network(("v0", "v1", "v2", "v3"), edges, "v0", "v3", costs, dict(costs))


def test_disconnected_flagged():
    net = _net([("e1", "X", "M", 1), ("e2", "Y", "M", 1), ("e3", "X", "M", 1)], "X", "Y")
    rules = {v.rule for v in validate(net)}
    assert "disconnected" in rules


def _cut_owners_by_edge_searches(net):
    """validate's cut verdicts by brute force: one reachability search with
    each edge removed in turn, in edge order."""

    def reaches_sink(removed):
        seen, frontier = {net.source}, [net.source]
        while frontier:
            for edge in net.out_edges(frontier.pop()):
                if edge.id != removed and edge.head not in seen:
                    seen.add(edge.head)
                    frontier.append(edge.head)
        return net.sink in seen

    if not reaches_sink(None):
        return ["disconnected"]
    return [edge.owner for edge in net.edges if not reaches_sink(edge.id)]


def _unit_multigraphs(count, seed):
    """Up to seven nodes and fourteen unit-cost edges between random
    endpoints, listed in shuffled id order: parallel edges, self loops,
    cycles and edges into the source are all common."""
    rng = random.Random(seed)
    for _ in range(count):
        n_nodes = rng.randint(2, 7)
        rows = [
            (f"e{i:02d}", f"v{rng.randrange(n_nodes)}", f"v{rng.randrange(n_nodes)}", 1)
            for i in range(rng.randint(1, 14))
        ]
        rng.shuffle(rows)
        yield _multigraph(n_nodes, rows)


def test_one_pass_cut_check_matches_per_edge_searches():
    nets = [fixture(name) for name in ("example1", "fig2", "fig3", "xsmall")]
    nets += [random_network(seed) for seed in range(300)]
    nets += _unit_multigraphs(3000, seed=7)
    cut_counts = Counter()
    for net in nets:
        expected = _cut_owners_by_edge_searches(net)
        found = [v.subject if v.rule == "agent owns a cut" else v.rule for v in validate(net)]
        assert found == expected, net
        cut_counts[min(len(expected), 2) if expected != ["disconnected"] else -1] += 1
    # Valid, disconnected, one cut and several cuts all occur.
    assert set(cut_counts) == {-1, 0, 1, 2}


def test_a_parallel_edge_is_no_cut_but_the_edge_all_paths_share_is():
    net = _net(
        [("z", "M", "Y", 1), ("b", "X", "M", 2), ("a", "X", "M", 1), ("loop", "M", "M", 1)],
        "X",
        "Y",
    )
    assert [str(v) for v in validate(net)] == ["agent owns a cut: z"]


def test_negative_costs_are_rejected_by_every_search(example1):
    """Zero is refused too: a search only ever sees the one zero that a
    zeroed detour puts on its agent's edge."""
    searches = (
        shortest_path,
        enumerate_paths,
        lambda net, c: next(iter_ranked_paths(net, c)),
        lambda net, c: rank_paths(net, c, k=3),
        lambda net, c: detour_cost(net, "A", "excluded", c),
        lambda net, c: detour_cost(net, "A", "zeroed", c),
    )
    for cost in (Fraction(0), Fraction(-1, 3)):
        costs = {**example1.bid, "B": cost}
        for search in searches:
            with pytest.raises(ValueError, match="^nonpositive cost for agent B$"):
                search(example1, costs)


def test_shortest_path_example1(example1):
    path = shortest_path(example1, example1.true_cost)
    assert path.edges == ("A", "B", "C", "D", "E", "F")
    assert path.cost == 6


def test_shortest_path_avoiding_best_route(example1):
    """With A priced out of reach, the best remaining route is J P E F."""
    costs = dict(example1.true_cost)
    costs["A"] = Fraction(10**6)
    path = shortest_path(example1, costs)
    assert path.edges == ("J", "P", "E", "F")
    assert sum(example1.true_cost[a] for a in path.owners) == 10


def test_shortest_path_fig3(fig3):
    path = shortest_path(fig3, fig3.true_cost)
    assert path.edges == ("e",)
    assert path.cost == 1


def test_shortest_path_tie_breaks_lexicographically():
    net = _net([("b", "X", "Y", 3), ("a", "X", "Y", 3), ("c", "X", "Y", 4)], "X", "Y")
    assert shortest_path(net).edges == ("a",)


def test_search_settles_nodes_at_the_origin_distance():
    """With a zeroed, M is as far from the sink as the source A but sorts
    after it, so the reverse search stops at A before it settles M. The
    zeroed detour, the one search with a zero edge, still costs 5."""
    net = _net([("a", "A", "M", 1), ("c", "M", "Y", 5), ("b", "A", "Y", 5)], "A", "Y")
    assert detour_cost(net, "a", "zeroed") == 5
    assert [p.edges for p in rank_paths(net, k=2)] == [("b",), ("a", "c")]


def test_rank_paths_example1(example1):
    ranked = rank_paths(example1, example1.true_cost, k=6)
    assert ranked.costs == (6, 7, 9, 10, 15, 16)


def test_rank_paths_fig2(fig2):
    ranked = rank_paths(fig2, fig2.true_cost, k=2)
    assert ranked.costs == (3, 5)


def test_rank_k1_equals_shortest(example1, fig2, fig3, xsmall):
    for net in (example1, fig2, fig3, xsmall):
        assert rank_paths(net, net.true_cost, k=1).paths[0] == shortest_path(
            net, net.true_cost
        )


def test_enumerate_counts(example1, fig2, fig3):
    assert len(enumerate_paths(example1, example1.true_cost)) == 6
    assert len(enumerate_paths(fig2, fig2.true_cost)) == 2
    assert len(enumerate_paths(fig3, fig3.true_cost)) == 2


def _multigraph(n_nodes, rows, owners=None):
    """Nodes v0..v{n_nodes-1}, source first, sink last; the edges of `rows`
    are owned by `owners` in row order, or each by its own edge id."""
    nodes = [f"v{i}" for i in range(n_nodes)]
    owners = owners or [eid for eid, *_ in rows]
    edges = tuple(Edge(eid, t, h, owner) for (eid, t, h, _), owner in zip(rows, owners))
    costs = {owner: Fraction(c) for (*_, c), owner in zip(rows, owners)}
    return Network(tuple(nodes), edges, nodes[0], nodes[-1], costs, dict(costs))


@st.composite
def _multigraphs(draw):
    """Up to ten edges on up to five nodes: parallel edges, cycles, self
    loops, and costs n/d with n drawn from 1..3, so ties are common. Each
    graph draws one to three denominators from 1..6, so the searches'
    integer scale (their least common multiple) is often not 1. The owners
    o0..o{m-1} go to the edges in a drawn order, so no edge is named after
    its owner and the owners' order is seldom the edge ids'."""
    n_nodes = draw(st.integers(2, 5))
    endpoint = st.sampled_from([f"v{i}" for i in range(n_nodes)])
    denominator = st.sampled_from(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    rows = [
        (f"e{i:02d}", draw(endpoint), draw(endpoint),
         Fraction(draw(st.integers(1, 3)), draw(denominator)))
        for i in range(draw(st.integers(1, 10)))
    ]
    owners = draw(st.permutations([f"o{i}" for i in range(len(rows))]))
    return _multigraph(n_nodes, rows, owners)


# Two stages of parallel unit-cost edges: every path ties, and only the
# edge-id order can rank the candidates.
_ALL_TIED = _multigraph(
    3,
    [
        ("e00", "v0", "v1", 1),
        ("e01", "v0", "v1", 1),
        ("e02", "v1", "v2", 1),
        ("e03", "v1", "v2", 1),
    ],
)


@settings(max_examples=600, deadline=None)
@given(_multigraphs())
@example(_ALL_TIED)
def test_ranking_yields_the_enumeration_order(net):
    """Tie verdicts that read the ranked order depend on this equality."""
    try:
        every = enumerate_paths(net).paths
    except Disconnected:
        with pytest.raises(Disconnected):
            next(iter_ranked_paths(net))
        return
    assert tuple(iter_ranked_paths(net)) == every


@settings(max_examples=300, deadline=None)
@given(_multigraphs())
def test_detour_cost_is_the_cheapest_enumerated_path(net):
    try:
        every = enumerate_paths(net).paths
    except Disconnected:
        every = ()
    for agent in net.agents:
        avoiding = [p.cost for p in every if agent not in p.owner_set]
        if avoiding:
            assert detour_cost(net, agent, "excluded") == min(avoiding)
        else:
            with pytest.raises(Disconnected):
                detour_cost(net, agent, "excluded")
        zeroed = [p.cost - (net.bid[agent] if agent in p.owner_set else 0) for p in every]
        if zeroed:
            assert detour_cost(net, agent, "zeroed") == min(zeroed)
        else:
            with pytest.raises(Disconnected):
                detour_cost(net, agent, "zeroed")


def _lattice(k, cost):
    """k x k lattice, right and down edges, source top left, sink bottom
    right; `cost()` is called once per edge in row-major order."""
    rows = []
    for r in range(k):
        for c in range(k):
            for eid, (hr, hc) in ((f"r{r}_{c}", (r, c + 1)), (f"d{r}_{c}", (r + 1, c))):
                if max(hr, hc) < k:
                    rows.append((eid, f"v{r * k + c}", f"v{hr * k + hc}", cost()))
    return _multigraph(k * k, rows)


@pytest.mark.parametrize("k", [6, 8])
@pytest.mark.parametrize("kind", ["small-range", "fractional"])
def test_ranking_matches_networkx_past_the_enumeration_guard(k, kind):
    """networkx's k-shortest simple paths are the oracle where enumerate_paths
    refuses: the cost sequences agree, and so do the paths at distinct costs."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(k)
    if kind == "small-range":
        net = _lattice(k, lambda: rng.randint(1, 3))
    else:
        net = _lattice(k, lambda: Fraction(rng.randint(1, 6), rng.randint(1, 6)))
    assert len(net.edges) > graph_module.ENUMERATION_EDGE_GUARD
    graph = nx.DiGraph()
    for edge in net.edges:
        graph.add_edge(edge.tail, edge.head, id=edge.id, weight=net.bid[edge.owner])
    count = 41
    theirs = []
    for nodes in itertools.islice(
        nx.shortest_simple_paths(graph, net.source, net.sink, weight="weight"), count
    ):
        edges = tuple(graph[u][v]["id"] for u, v in zip(nodes, nodes[1:]))
        theirs.append((sum(net.bid[e] for e in edges), edges))
    ours = [(p.cost, p.edges) for p in itertools.islice(iter_ranked_paths(net), count)]
    assert [c for c, _ in ours] == [c for c, _ in theirs]
    costs = [c for c, _ in ours]
    assert len(set(costs)) < len(costs)  # ties present
    for j in range(count - 1):
        if costs[j] not in costs[:j] + costs[j + 1:]:
            assert ours[j][1] == theirs[j][1]


def _count_searches(monkeypatch):
    """Patch the reverse search to count its calls; returns the count list."""
    searches = []
    search = graph_module._distance_to_sink
    monkeypatch.setattr(
        graph_module, "_distance_to_sink", lambda *a: searches.append(1) or search(*a)
    )
    return searches


def test_lawler_spurs_cut_the_reverse_searches(monkeypatch):
    """`x` on the 8 x 8 lattice with costs from random.Random(1) needed 477
    reverse searches with a spur at every index of every ranked path, and 185
    with one search per spur from the deviation index onward. The lattice is
    acyclic, so the one unrestricted reverse tree settles every spur."""
    rng = random.Random(1)
    net = _lattice(8, lambda: rng.randint(1, 10**6))
    searches = _count_searches(monkeypatch)
    MechanismSpec("x").run(net)
    assert len(searches) == 1


def test_x_on_the_20x20_lattice_ranks_to_its_tie_from_one_search(monkeypatch):
    """One search per spur took 39,198 reverse searches here."""
    rng = random.Random(1)
    net = _lattice(20, lambda: rng.randint(1, 10**6))
    searches = _count_searches(monkeypatch)
    with pytest.raises(TieError, match="paths ranked 986 and 987 tie"):
        MechanismSpec("x").run(net)
    assert len(searches) == 1


def _ranking_or_error(net, limit=None):
    try:
        return [
            (p.cost, p.edges, p.owners)
            for p in itertools.islice(iter_ranked_paths(net), limit)
        ]
    except Disconnected as exc:
        return type(exc), str(exc)


def _ranking_by_per_spur_searches(net, limit=None):
    """The ranking with every spur left to its own restricted search."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module._ReverseTree, "spur", lambda *a: (False, None))
        return _ranking_or_error(net, limit)


@settings(max_examples=600, deadline=None)
@given(_multigraphs())
@example(_ALL_TIED)
def test_reverse_tree_spurs_match_per_spur_searches(net):
    assert _ranking_or_error(net) == _ranking_by_per_spur_searches(net)


def _random_dags(count, seed):
    """Three to eight nodes in topological order v0..vn-1 and up to sixteen
    forward edges, parallel ones included, costs n/d with n from 1..3."""
    rng = random.Random(seed)
    for _ in range(count):
        n_nodes = rng.randint(3, 8)
        rows = []
        for i in range(rng.randint(1, 16)):
            tail, head = sorted(rng.sample(range(n_nodes), 2))
            rows.append((f"e{i:02d}", f"v{tail}", f"v{head}",
                         Fraction(rng.randint(1, 3), rng.randint(1, 3))))
        rng.shuffle(rows)
        yield _multigraph(n_nodes, rows)


def test_reverse_tree_settles_every_spur_on_acyclic_networks(monkeypatch):
    """On a DAG no tight walk can reach a root node, so the whole ranking
    costs one reverse search and matches the per-spur searches."""
    searches = _count_searches(monkeypatch)
    ranked = 0
    for net in _random_dags(400, seed=11):
        searches.clear()
        ours = _ranking_or_error(net, 200)
        assert len(searches) == 1
        assert ours == _ranking_by_per_spur_searches(net, 200)
        ranked += isinstance(ours, list)
    assert ranked > 200


def test_a_spur_whose_walk_meets_its_root_runs_its_own_search(monkeypatch):
    """Below D(c) = 3 lies the walk c -> S -> A -> T, which returns to the
    root node S and to the spur node A. So the spur at A that avoids A -> T
    is not settled by the tree; its own search finds A -> C -> T."""
    net = _net(
        [("st", "S", "A", 1), ("at", "A", "T", 1), ("ac", "A", "C", 1),
         ("cs", "C", "S", 1), ("ct", "C", "T", 5)],
        "S",
        "T",
    )
    searches = _count_searches(monkeypatch)
    ranked = rank_paths(net, k=10).paths
    assert len(searches) == 2
    assert [p.edges for p in ranked] == [("st", "at"), ("st", "ac", "ct")]
    assert ranked == enumerate_paths(net).paths


def test_enumerate_guard(parallel_pairs):
    """24 edges enumerate; the 25th is refused."""
    chain = parallel_pairs(12)
    assert len(chain.edges) == graph_module.ENUMERATION_EDGE_GUARD
    assert len(enumerate_paths(chain)) == 2**12
    rows = [(f"e{i:02d}", "X", "Y", i + 1) for i in range(25)]
    net = _net(rows, "X", "Y")
    with pytest.raises(TooLarge):
        enumerate_paths(net)


def test_only_enumeration_refuses_a_network_past_the_guard():
    """Past the 24-edge guard, with a cycle S -> X -> S beside the source,
    every search but the enumeration oracle still answers."""
    rows = [("e00", "S", "X", 1), ("e01", "X", "S", 1), ("e02", "S", "T", 1)]
    rows += [(f"p{i:02d}", "S", "T", 5) for i in range(22)]
    net = _net(rows, "S", "T")
    assert len(net.edges) == 25
    assert shortest_path(net).edges == ("e02",)
    assert [p.edges for p in rank_paths(net, k=3)] == [("e02",), ("p00",), ("p01",)]
    assert detour_cost(net, "e02", "excluded") == 5
    assert detour_cost(net, "e02", "zeroed") == 0
    with pytest.raises(TooLarge):
        enumerate_paths(net)


def test_enumeration_leaves_no_cyclic_garbage(example1):
    """The walk keeps its state on an explicit stack; a self-calling
    closure would leave 73 objects per call on example1 for the cycle
    collector."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert len(enumerate_paths(example1)) == 6
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_disconnected_raises():
    net = _net([("e1", "X", "M", 1), ("e2", "Y", "M", 1), ("e3", "X", "M", 2)], "X", "Y")
    with pytest.raises(Disconnected):
        shortest_path(net)


@pytest.mark.parametrize(
    "agent,mode,expected",
    [
        ("E", "excluded", 15),
        ("E", "zeroed", 5),
        ("A", "excluded", 10),
        ("A", "zeroed", 5),
        ("B", "excluded", 7),
        ("F", "excluded", 16),
    ],
)
def test_detour_costs_example1(example1, agent, mode, expected):
    assert detour_cost(example1, agent, mode, example1.true_cost) == expected


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda net: rank_paths(net, k=0), "k must be a positive integer"),
        (lambda net: detour_cost(net, "A", "sideways"), "unknown detour mode 'sideways'"),
        (lambda net: detour_cost(net, "nobody", "excluded"), "unknown agent 'nobody'"),
        (lambda net: detour_cost(net, "nobody", "zeroed"), "unknown agent 'nobody'"),
    ],
    ids=["k-zero", "unknown-mode", "unknown-agent-excluded", "unknown-agent-zeroed"],
)
def test_searches_refuse_arguments_outside_their_domain(example1, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(example1)


def test_json_round_trip_is_byte_exact(example1):
    text = network_to_json(example1)
    again = network_to_json(network_from_json(text))
    assert text == again


def test_files_round_trip(example1, tmp_path):
    path = tmp_path / "net.json"
    save_network(example1, str(path))
    assert network_to_json(load_network(str(path))) == network_to_json(example1)
    bids = {**example1.bid, "A": Fraction(7, 3)}
    assert bids_from_json(bids_to_json(bids), example1) == bids


def _edited(edit):
    """A valid two-edge network file, its parsed JSON changed by `edit`."""
    raw = json.loads(network_to_json(_PAIR))
    edit(raw)
    return json.dumps(raw)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (network_from_json, "[]", "network file must be a JSON object"),
        (network_from_json, _edited(lambda raw: raw.pop("sink")),
         "missing network keys: ['sink']"),
        (network_from_json, _edited(lambda raw: raw.update(nodes="XY")),
         "nodes must be an array of strings"),
        (network_from_json, _edited(lambda raw: raw.update(edges={})),
         "edges must be an array of objects"),
        (network_from_json, _edited(lambda raw: raw["edges"].append("c")),
         "each edge must be a JSON object"),
        (network_from_json, _edited(lambda raw: raw["edges"][0].update(weight=1)),
         "unknown edge keys: ['weight']"),
        (network_from_json, _edited(lambda raw: raw["edges"][0].pop("owner")),
         "edge missing keys: ['owner']"),
        (network_from_json, _edited(lambda raw: raw["edges"][0].update(to=2)),
         "edge field to must be a string"),
        (network_from_json, _edited(lambda raw: raw["edges"][1].update(owner="a")),
         "agent owns multiple edges: a"),
        (network_from_json, _edited(lambda raw: raw["edges"][1].update(id="a")),
         "duplicate edge id: a"),
        (network_from_json, _edited(lambda raw: raw["edges"][0].update(true_cost="0")),
         "nonpositive cost: true_cost a=0"),
        (network_from_json, _edited(lambda raw: raw.update(sink="X")),
         "source equals sink: X"),
        (network_from_json, _edited(lambda raw: raw.update(source=None)),
         "source must be a string"),
        (bids_from_json, '["1"]', "bid file must be a JSON object"),
    ],
    ids=["not-an-object", "missing-key", "nodes", "edges", "edge-not-an-object",
         "unknown-edge-key", "edge-missing-key", "edge-field", "shared-owner",
         "duplicate-edge-id", "zero-cost", "source-is-sink", "source", "bids-not-an-object"],
)
def test_json_refuses_each_malformed_file(parse, text, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse(text)


def test_json_rejects_unknown_keys(example1):
    text = network_to_json(example1).replace('"source"', '"extra": 1, "source"', 1)
    with pytest.raises(FormatError):
        network_from_json(text)


def test_json_rejects_bad_cost(example1):
    text = network_to_json(example1).replace('"true_cost": "1"', '"true_cost": "1/0"', 1)
    with pytest.raises(FormatError):
        network_from_json(text)


def test_bid_profile_must_cover_agents(example1):
    from pathauction import bids_from_json

    with pytest.raises(FormatError):
        bids_from_json('{"A": "1"}', example1)
    with pytest.raises(FormatError):
        bids_from_json('{"A": 1}', example1)


def test_missing_bid_defaults_to_true_cost():
    text = """
    {"nodes": ["X", "Y"],
     "edges": [{"id": "a", "from": "X", "to": "Y", "owner": "a", "true_cost": "3/2"},
               {"id": "b", "from": "X", "to": "Y", "owner": "b", "true_cost": "4", "bid": "5"}],
     "source": "X", "sink": "Y"}
    """
    net = network_from_json(text)
    assert net.bid["a"] == Fraction(3, 2)
    assert net.bid["b"] == Fraction(5)
