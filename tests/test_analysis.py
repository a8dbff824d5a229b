import dataclasses
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from pathauction import mechanisms
from pathauction import (
    EQUAL_SPLIT,
    BidGrid,
    DistributionRule,
    Edge,
    GridTooLarge,
    MechanismSpec,
    Network,
    PathGame,
    PropertyReport,
    SingleItemGame,
    TieError,
    TooLarge,
    alignment_report,
    best_response_set,
    check_critical,
    check_degenerate_vickrey,
    check_group_truthfulness,
    check_partly_truthful,
    check_strongly_critical,
    check_vcg_truthful,
    classify_consistency,
    default_grid,
    enumerate_paths,
    group_structure,
    random_network,
    selection_probability,
)

TYPE_VECTORS = [
    {"b1": F(3), "b2": F(7)},
    {"b1": F(2), "b2": F(5)},
    {"b1": F(1), "b2": F(4)},
    {"b1": F(2), "b2": F(5), "b3": F(9)},
    {"b1": F(1), "b2": F(4), "b3": F(6)},
    {"b1": F(2), "b2": F(3), "b3": F(8)},
]


def _vcg_game(net, cap=3):
    return PathGame(net, MechanismSpec("vcg")), BidGrid.procurement(
        net.true_cost, F(1), cap
    )


# -- selection probability ---------------------------------------------------


def test_selection_probability_two_edges(fig3):
    game, grid = _vcg_game(fig3)
    assert selection_probability(game, grid, "e", F(1)) == 1
    assert selection_probability(game, grid, "f", F(5)) == 0


def test_selection_probability_maximal_at_truthful_forward():
    types = {"b1": F(3), "b2": F(7)}
    for mech in ("fp-single", "vickrey-single"):
        game = SingleItemGame(types, MechanismSpec(mech, orientation="forward"))
        grid = BidGrid.forward(types)
        for agent in game.agents:
            probs = {
                b: selection_probability(game, grid, agent, b)
                for b in grid.bids_for[agent]
            }
            assert probs[types[agent]] == max(probs.values())


def test_selection_probability_monotone(fig3, xsmall):
    for net, mech in ((fig3, "vcg"), (xsmall, "x"), (xsmall, "vcg"), (xsmall, "fp-path")):
        game = PathGame(net, MechanismSpec(mech))
        grid = BidGrid.procurement(net.true_cost, F(1), 3)
        for agent in net.agents:
            bids = grid.bids_for[agent]
            probs = [selection_probability(game, grid, agent, b) for b in bids]
            assert probs == sorted(probs, reverse=True)
            assert probs[0] == max(probs)  # truthful bid is the grid minimum


# -- best responses and optimal bid sets --------------------------------------


def test_best_response_second_price_forward():
    types = {"b1": F(7), "b2": F(9)}
    game = SingleItemGame(types, MechanismSpec("vickrey-single", orientation="forward"))
    grid = BidGrid.forward(types)
    assert best_response_set(game, grid, "b1", {"b2": F(5)}) == {F(6), F(7)}


def test_best_response_first_price_forward():
    types = {"b1": F(7), "b2": F(9)}
    game = SingleItemGame(types, MechanismSpec("fp-single", orientation="forward"))
    grid = BidGrid.forward(types)
    assert best_response_set(game, grid, "b1", {"b2": F(3)}) == {F(4)}


def test_truthful_is_best_response_under_marginal_pricing(example1):
    game, grid = _vcg_game(example1, cap=2)
    opponents = {a: example1.true_cost[a] for a in example1.agents if a != "E"}
    assert F(1) in best_response_set(game, grid, "E", opponents)


def test_first_price_optimal_bids_shave_the_type():
    types = {"b1": F(7), "b2": F(7)}
    game = SingleItemGame(types, MechanismSpec("fp-single", orientation="forward"))
    grid = BidGrid.forward(types)
    # Bidding the full type is weakly dominated; bidding 1 can never win
    # strictly on a unit grid, so the undominated set is 2..6.
    assert alignment_report(game, grid).agent_optimal["b1"] == (F(2), F(3), F(4), F(5), F(6))


def test_second_price_optimal_bid_is_truthful():
    for types in TYPE_VECTORS:
        game = SingleItemGame(types, MechanismSpec("vickrey-single", orientation="forward"))
        grid = BidGrid.forward(types)
        agent_optimal = alignment_report(game, grid).agent_optimal
        for agent in game.agents:
            assert agent_optimal[agent] == (types[agent],)


def test_marginal_pricing_optimal_bid_is_truthful(fig2, fig3):
    for net in (fig2, fig3):
        game, grid = _vcg_game(net, cap=1 if net.agents == fig2.agents else 3)
        agent_optimal = alignment_report(game, grid).agent_optimal
        for agent in net.agents:
            assert agent_optimal[agent] == (net.true_cost[agent],)


def test_group_share_keeps_overbids_in_play(xsmall):
    game = PathGame(xsmall, MechanismSpec("x"))
    grid = BidGrid.procurement(xsmall.true_cost, F(1), 3)
    bids = alignment_report(game, grid).agent_optimal["r"]
    assert xsmall.true_cost["r"] in bids
    assert any(b > xsmall.true_cost["r"] for b in bids)


def test_mode_containment(fig3, xsmall):
    for net, mech in ((fig3, "vcg"), (xsmall, "x")):
        game = PathGame(net, MechanismSpec(mech))
        grid = BidGrid.procurement(net.true_cost, F(1), 3)
        dominant, undominated, everything = (
            alignment_report(game, grid, mode).agent_optimal
            for mode in ("dominant", "undominated", "all")
        )
        for agent in net.agents:
            assert set(dominant[agent]) <= set(undominated[agent]) <= set(everything[agent])


# -- profile sets -------------------------------------------------------------


def test_series_parallel_alignment(fig2):
    game, grid = _vcg_game(fig2, cap=1)
    report = alignment_report(game, grid)
    assert report.agent_optimal == {
        "a": (F(1),), "b": (F(1),), "c": (F(1),), "d": (F(5),)
    }
    assert report.joint_optimal == ((F(1), F(1), F(1), F(5)),)
    assert report.aligned == ()
    assert report.verdict == "empty"


def test_series_parallel_mechanism_argmax_flips_the_path(fig2):
    """Overbidding all three series agents hands the job to the parallel
    edge at a spend of 6, below any profile that keeps the series route."""
    game, grid = _vcg_game(fig2, cap=1)
    argmax = alignment_report(game, grid).mechanism_optimal
    assert argmax == ((F(2), F(2), F(2), F(5)),)
    # Independent oracle: walk the grid by hand and track the best spend.
    best = None
    for a in (F(1), F(2)):
        for b in (F(1), F(2)):
            for c in (F(1), F(2)):
                for d in (F(5), F(6)):
                    series = a + b + c
                    if series == d:
                        continue
                    if series < d:
                        total = sum(d - (series - own) for own in (a, b, c))
                    else:
                        total = series
                    best = total if best is None else min(best, total)
    assert best == 6


def test_two_edge_alignment(fig3):
    game, grid = _vcg_game(fig3)
    report = alignment_report(game, grid)
    assert report.mechanism_optimal == tuple(
        (F(e), F(5)) for e in (1, 2, 3, 4)
    )
    assert report.aligned == ((F(1), F(5)),)
    assert report.verdict == "nonempty"
    assert set(report.aligned) == set(report.joint_optimal) & set(
        report.mechanism_optimal
    )


def test_classify_marginal_pricing_is_partial(fig2, fig3):
    items = [
        (_vcg_game(fig2, cap=1)),
        (_vcg_game(fig3, cap=3)),
    ]
    assert classify_consistency(items).verdict == "partially-consistent"


def test_classify_single_item_suites():
    def suite(mechanism):
        games = [SingleItemGame(t, MechanismSpec(mechanism, orientation="forward"))
                 for t in TYPE_VECTORS]
        return [(g, default_grid(g)) for g in games]

    fp = suite("fp-single")
    second = suite("vickrey-single")
    assert classify_consistency(fp).verdict == "impossible-consistent"
    assert classify_consistency(second).verdict == "strongly-consistent"


def test_classify_consistent_short_of_strongly():
    """x on this random network aligns the two sides on some profiles, but
    the aligned set is neither side's optimal set."""
    net = random_network(3, 4, 4)
    grid = BidGrid.procurement(net.true_cost, F(1), 2)
    result = classify_consistency([(PathGame(net, MechanismSpec("x")), grid)], "all")
    assert result.verdict == "consistent"


def test_second_price_forward_profile_sets():
    types = {"b1": F(3), "b2": F(7)}
    game = SingleItemGame(types, MechanismSpec("vickrey-single", orientation="forward"))
    report = alignment_report(game, default_grid(game))
    assert report.joint_optimal == ((F(3), F(7)),)
    # Revenue is the runner-up bid, so the low type must bid its full value.
    assert report.mechanism_optimal == tuple((F(3), F(b2)) for b2 in (4, 5, 6, 7))
    assert report.aligned == report.joint_optimal
    assert report.verdict == "nonempty"


def test_group_share_alignment_nonempty(xsmall):
    game = PathGame(xsmall, MechanismSpec("x"))
    grid = BidGrid.procurement(xsmall.true_cost, F(1), 3)
    report = alignment_report(game, grid)
    assert report.verdict == "nonempty"
    assert (F(1), F(1), F(4)) in report.aligned


def test_grid_guard(example1):
    game, grid = _vcg_game(example1)
    with pytest.raises(GridTooLarge):
        alignment_report(game, grid)


def test_grid_limit_per_agent():
    """No agent may get more than PROFILE_GUARD bids, whatever the product."""
    with pytest.raises(GridTooLarge, match="^1000001 bids for one agent exceed 1000000$"):
        BidGrid.procurement({"a": F(1)}, F(1), 10**6)
    with pytest.raises(GridTooLarge, match="^2000000 bids for one agent exceed 1000000$"):
        BidGrid.forward({"a": F(1)}, F(1, 2 * 10**6))


def test_guards_admit_their_exact_bound(fig3):
    """Each guard refuses only past its bound. The grid helpers are called
    directly, so no grid of 10**6 bids is built."""
    from pathauction import analysis

    for require in (analysis._require_grid_size, analysis._require_enumerable):
        require(analysis.PROFILE_GUARD)
        with pytest.raises(GridTooLarge):
            require(analysis.PROFILE_GUARD + 1)
    report = check_group_truthfulness(fig3, trials=10_000)
    assert report.detail.endswith(" accepted of 10000 trials")
    with pytest.raises(TooLarge, match="^10001 trials exceed the trials guard of 10000$"):
        check_group_truthfulness(fig3, trials=10_001)


def test_forward_grid_rejects_a_nonpositive_unit():
    """A unit of zero or less never reaches the type, so the grid refuses
    it. Run in a child process, so a grid that loops cannot stall the suite."""
    import os
    import subprocess
    import sys

    import pathauction

    src = os.path.dirname(os.path.dirname(pathauction.__file__))
    code = (
        "from fractions import Fraction as F\n"
        "from pathauction import BidGrid\n"
        "for unit in (F(0), F(-1)):\n"
        "    try:\n"
        "        BidGrid.forward({'a': F(3)}, unit)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.stdout == "unit must be positive\n" * 2


def test_procurement_grid_rejects_a_nonpositive_unit():
    """A unit of zero or less would not make a grid rising from the type; at
    cap 0 it would even pass as the one-bid grid."""
    for unit in (F(0), F(-1)):
        for cap in (0, 3):
            with pytest.raises(ValueError, match="^unit must be positive$"):
                BidGrid.procurement({"a": F(3), "b": F(5)}, unit, cap)


def test_report_json_shape(fig3):
    game, grid = _vcg_game(fig3)
    payload = alignment_report(game, grid).to_json_dict()
    assert payload["obs"] == {"e": ["1"], "f": ["5"]}
    assert payload["ioa"] == [{"e": "1", "f": "5"}]
    assert payload["verdict"] == "nonempty"


# -- property checkers --------------------------------------------------------


def test_partly_truthful_verdicts(xsmall):
    grid = BidGrid.procurement(xsmall.true_cost, F(1), 3)
    assert check_partly_truthful(PathGame(xsmall, MechanismSpec("x")), grid).holds
    assert check_partly_truthful(PathGame(xsmall, MechanismSpec("vcg")), grid).holds
    report = check_partly_truthful(PathGame(xsmall, MechanismSpec("fp-path")), grid)
    assert report.verdict == "fails"
    assert any("nonpositive utility" in row[0] for row in report.counterexamples)


def test_partly_truthful_reports_a_selection_probability_that_rises():
    """x with a on its own edge X-Y, q1-q2 the other winners' path X-M-Y
    and r1, r2 their alternatives at 2. At a = 5/2 a wins unless q1 = q2 =
    1, where it ranks second and x reads no further: 3 of 4 profiles. At
    7/2 a wins only at q1 = q2 = 2; on the other three profiles two paths
    through M tie within the prefix x reads: 1 of 1."""
    rows = [("a", "X", "Y", F(5, 2)), ("q1", "X", "M", 1), ("q2", "M", "Y", 1),
            ("r1", "X", "M", 2), ("r2", "M", "Y", 2)]
    costs = {eid: F(c) for eid, _, _, c in rows}
    net = Network(("M", "X", "Y"), tuple(Edge(e, t, h, e) for e, t, h, _ in rows),
                  "X", "Y", costs, dict(costs))
    game = PathGame(net, MechanismSpec("x"))
    grid = BidGrid({"a": (F(5, 2), F(7, 2)), "q1": (F(1), F(2)), "q2": (F(1), F(2)),
                    "r1": (F(2),), "r2": (F(2),)})
    assert [selection_probability(game, grid, "a", b) for b in grid.bids_for["a"]] == [
        F(3, 4), F(1)]
    assert check_partly_truthful(game, grid).counterexamples == (
        ("selection probability not maximal at truthful bid", "a"),
        ("selection probability rises with the bid", "a", F(5, 2), F(7, 2)),
    )


def test_critical_verdicts(example1, fig3):
    assert check_critical(fig3, MechanismSpec("x")).holds
    assert check_critical(fig3, MechanismSpec("vcg")).holds
    report = check_critical(example1, MechanismSpec("vcg"), example1.true_cost)
    assert report.verdict == "fails"
    assert len(report.counterexamples) == 6  # every route fits under the spend


def test_strongly_critical_identity(example1, xsmall):
    report = check_strongly_critical(example1, example1.true_cost)
    assert report.holds
    rows = {q: (lhs, rhs) for q, lhs, rhs in report.witnesses}
    assert rows[1] == (F(3), F(3))  # 7 - (1+1+1+1)
    assert rows[3] == (F(8), F(8))  # 10 - (1+1)
    assert check_strongly_critical(xsmall, xsmall.true_cost).holds


def test_strongly_critical_fails_where_one_unit_less_misses_the_substitute(example1):
    """Exact shares make each prefix's payment equal its substitute's cost
    minus the other winners' bids, so only the affordability half can fail:
    at unit 0 each substitute is still affordable, at -1/2 none is."""
    rows = ((1, F(3), F(3)), (3, F(8), F(8)), (4, F(14), F(14)), (5, F(16), F(16)))
    report = check_strongly_critical(example1, unit=F(0))
    assert (report.verdict, report.witnesses, report.counterexamples) == ("holds", rows, ())
    report = check_strongly_critical(example1, unit=F(-1, 2))
    assert (report.verdict, report.witnesses, report.counterexamples) == ("fails", rows, rows)


def test_group_truthfulness_examples(example1):
    bids = dict(example1.true_cost)
    base = MechanismSpec("x").run(example1, bids)

    shifted = dict(bids)
    shifted["B"] = F(3, 2)
    shifted["C"] = F(1, 2)
    moved = MechanismSpec("x").run(example1, shifted)
    assert enumerate_paths(example1, shifted).paths[0].edges == ("A", "B", "C", "D", "E", "F")
    assert (
        moved.payments["B"] + moved.payments["C"]
        == base.payments["B"] + base.payments["C"]
        == 3
    )

    from pathauction import TieError

    bumped = dict(bids)
    bumped["A"] = F(2)
    with pytest.raises(TieError):
        MechanismSpec("x").run(example1, bumped)  # rank 1 and 2 now tie at 7

    report = check_group_truthfulness(example1, bids, trials=60, seed=7)
    assert report.holds
    assert not report.counterexamples


def _group_truthfulness_by_rerunning(network, bids, rule, trials, seed):
    """The checker as a per-trial loop over public names: each trial draws
    the checker's perturbation, enumerates every path again and runs x.
    Returns the report and a count of the reasons trials were rejected."""
    spec = MechanismSpec("x", rule=rule)
    base = spec.run(network, bids).payments
    _, assignment, _ = group_structure(network, bids)
    base_order = [p.edges for p in enumerate_paths(network, bids)]
    prefix = assignment.max_group + 1
    rng = random.Random(seed)
    accepted, counterexamples, rejected = 0, [], Counter()
    for _ in range(trials):
        q = rng.choice(assignment.present_groups)
        members = assignment.members(q)
        deltas = {a: F(rng.randint(-3, 3), rng.choice((2, 3, 4, 5))) for a in members}
        if len(members) > 1 and rng.random() < F(1, 2):
            mean = sum(deltas.values(), F(0)) / len(members)
            deltas = {a: d - mean for a, d in deltas.items()}
        perturbed = {**bids, **{a: bids[a] + deltas[a] for a in members}}
        if any(v <= 0 for v in perturbed.values()):
            rejected["nonpositive bid"] += 1
            continue
        ranked = enumerate_paths(network, perturbed).paths
        order = [p.edges for p in ranked]
        if order != base_order:
            cost_of = {p.edges: p.cost for p in ranked}
            costs = [cost_of[edges] for edges in base_order]
            if costs == sorted(costs):
                rejected["order moved by edge ids alone"] += 1
            elif order[:prefix] == base_order[:prefix]:
                rejected["order moved past the prefix"] += 1
            else:
                rejected["order moved within the prefix"] += 1
            continue
        try:
            payments = spec.run(network, perturbed).payments
        except TieError:
            rejected["prefix tie"] += 1
            continue
        accepted += 1
        before = sum((base[a] for a in members), F(0))
        after = sum((payments[a] for a in members), F(0))
        if before != after:
            counterexamples.append((q, perturbed, before, after))
    report = PropertyReport(
        name="group-truthful",
        verdict="fails" if counterexamples else "holds-budget-exhausted",
        counterexamples=tuple(counterexamples),
        detail=f"{accepted} ranking-preserving perturbations accepted of {trials} trials",
    )
    return report, rejected


RULES = (
    EQUAL_SPLIT,
    DistributionRule("reverse-rank"),
    DistributionRule("waterfall", F(1, 3)),
    DistributionRule("compound", F(1, 4)),
)


def test_group_truthfulness_matches_the_per_trial_reference(example1, fig2, fig3, xsmall):
    nets = [example1, fig2, fig3, xsmall]
    nets += [random_network(s, node_budget=6, edge_budget=8) for s in range(100)]
    for net in nets:
        for rule in RULES:
            for seed in (0, 1):
                expected, _ = _group_truthfulness_by_rerunning(net, net.bid, rule, 12, seed)
                assert check_group_truthfulness(net, net.bid, rule, 12, seed) == expected


def test_group_truthfulness_matches_the_reference_on_fractional_bids(example1, fig2, fig3, xsmall):
    """Bids with denominators 3 and 7: the checker's unit must make them, the
    rule's delta and every drawn change whole. Under the equal split no
    delta supplies the factor 7."""
    accepted = 0
    for net in (example1, fig2, fig3, xsmall):
        bids = {
            agent: bid + (F(1, 3) if i % 2 else F(2, 7))
            for i, (agent, bid) in enumerate(sorted(net.bid.items()))
        }
        assert {b.denominator for b in bids.values()} == {3, 7}
        for rule in (DistributionRule("waterfall", F(2, 7)), EQUAL_SPLIT):
            for seed in (0, 1, 2):
                expected, _ = _group_truthfulness_by_rerunning(net, bids, rule, 20, seed)
                assert check_group_truthfulness(net, bids, rule, 20, seed) == expected
                accepted += int(expected.detail.split()[0])
    assert accepted > 0


def _tied_stages():
    """Two stages of parallel edges whose paths tie at 5 past the prefix
    x reads (e4-e0 and e1-e3), and whose unit bids small draws drive to 0."""
    rows = [
        ("e0", "v1", "v2", 4), ("e1", "v0", "v1", 3), ("e2", "v1", "v2", 1),
        ("e3", "v1", "v2", 2), ("e4", "v0", "v1", 1), ("e5", "v1", "v2", 5),
    ]
    costs = {eid: F(c) for eid, _, _, c in rows}
    edges = tuple(Edge(eid, t, h, eid) for eid, t, h, _ in rows)
    return Network(("v0", "v1", "v2"), edges, "v0", "v2", costs, dict(costs))


def test_group_truthfulness_rejects_as_the_reference_on_tied_paths():
    """Every kind of rejection occurs, and the checker agrees trial for
    trial: the same accepted count means the same trials were kept."""
    net = _tied_stages()
    assert [p.cost for p in enumerate_paths(net)].count(5) == 2
    seen = Counter()
    for rule in RULES:
        for seed in (0, 1):
            expected, rejected = _group_truthfulness_by_rerunning(net, net.bid, rule, 40, seed)
            assert check_group_truthfulness(net, net.bid, rule, 40, seed) == expected
            seen.update(rejected)
    assert {
        "nonpositive bid",
        "order moved by edge ids alone",
        "order moved past the prefix",
        "order moved within the prefix",
        "prefix tie",
    } <= set(seen)


def test_group_truthfulness_reports_the_reference_counterexamples(monkeypatch, example1):
    """Under a broken pricer that pays each winner twice its bid, a group's
    total moves with its bids: the checker must report the reference's rows."""
    from pathauction import analysis, mechanisms

    def doubled(spec, bids, costs, groups):
        return {k: 2 * bids[k] for _, members in groups for k in members}, None

    monkeypatch.setattr(mechanisms, "_price", doubled)
    monkeypatch.setattr(analysis, "_price", doubled)
    for net in (example1, _tied_stages()):
        expected, _ = _group_truthfulness_by_rerunning(net, net.bid, EQUAL_SPLIT, 30, 0)
        assert expected.verdict == "fails"
        assert check_group_truthfulness(net, net.bid, EQUAL_SPLIT, 30, 0) == expected


@pytest.mark.parametrize("trials", [0, 1, 50])
def test_group_truthfulness_enumerates_once_and_runs_nothing(monkeypatch, example1, trials):
    from pathauction import analysis

    calls = Counter()

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(analysis, "enumerate_paths", counted("enumerate", analysis.enumerate_paths))
    monkeypatch.setattr(MechanismSpec, "run", counted("run", MechanismSpec.run))
    check_group_truthfulness(example1, trials=trials, seed=3)
    assert calls == Counter(enumerate=1)


def test_group_truthfulness_rejects_negative_trials(fig2):
    with pytest.raises(ValueError, match="trials must be nonnegative"):
        check_group_truthfulness(fig2, trials=-5)
    untested = check_group_truthfulness(fig2, trials=0)
    assert untested.detail == "0 ranking-preserving perturbations accepted of 0 trials"
    assert untested.verdict == "inconclusive"
    assert not untested.holds


def test_vcg_truthful_checker(fig2):
    game, grid = _vcg_game(fig2, cap=1)
    assert check_vcg_truthful(game, grid).holds


def test_degenerate_vickrey_checker(fig3, example1):
    assert check_degenerate_vickrey(fig3).holds
    assert not check_degenerate_vickrey(example1).holds


def test_degenerate_vickrey_checks_the_vcg_run_against_the_ranking(monkeypatch, fig3):
    """The vcg payment comes from a run with its own detour search, so a
    detour one unit too dear breaks the check on a one-edge cheapest path."""
    detour = mechanisms._detour_units
    monkeypatch.setattr(mechanisms, "_detour_units", lambda *args: detour(*args) + 1)
    report = check_degenerate_vickrey(fig3)
    assert report.verdict == "fails" and not report.holds
    assert report.detail == "winner e paid 5"


@pytest.mark.parametrize(
    "checker",
    [
        lambda net, bids: check_critical(net, MechanismSpec("x"), bids),
        check_strongly_critical,
        check_group_truthfulness,
        check_degenerate_vickrey,
    ],
    ids=["critical", "strongly-critical", "group-truthful", "degenerate-vickrey"],
)
@pytest.mark.parametrize(
    "broken,message",
    [
        (lambda bids: {a: v for a, v in bids.items() if a != "f"}, "cover exactly"),
        (lambda bids: {**bids, "f": F(0)}, "nonpositive bid for f"),
    ],
    ids=["incomplete", "nonpositive"],
)
def test_checkers_reject_invalid_bid_profiles(fig3, checker, broken, message):
    with pytest.raises(ValueError, match=message):
        checker(fig3, broken(dict(fig3.true_cost)))


_NOBODY = "unknown agent 'nobody'"
_BUDGETS = "need room for at least two parallel edges"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda game, grid: best_response_set(game, grid, "nobody", dict(game.types)), _NOBODY),
        (lambda game, grid: selection_probability(game, grid, "nobody", F(2)), _NOBODY),
        (lambda game, grid: selection_probability(game, BidGrid({"a": (F(1),)}), "a", F(1)),
         "grid must cover exactly the game's agents"),
        (lambda game, grid: best_response_set(game, grid, "a", {}),
         "opponent profile must cover exactly the other agents"),
        (lambda game, grid: best_response_set(game, grid, "a", {"b": F(9), "c": F(1), "d": F(5)}),
         "bid 9 for b is off the grid"),
        (lambda game, grid: alignment_report(game, grid, "sideways"),
         "unknown strategy mode 'sideways'"),
        (lambda game, grid: classify_consistency([]), "need at least one instance"),
        (lambda game, grid: classify_consistency([_tied_fig2(game)]),
         "an instance admitted no tie-free profile at all"),
        (lambda game, grid: BidGrid({"a": (F(2), F(2))}),
         "grid for agent a must be strictly increasing"),
        (lambda game, grid: BidGrid.forward({"a": F(3)}, F(0)), "unit must be positive"),
        (lambda game, grid: BidGrid.forward({"a": F(1, 2)}),
         "type 1/2 of a is below one currency unit"),
        (lambda game, grid: random_network(0, node_budget=1), _BUDGETS),
        (lambda game, grid: random_network(0, edge_budget=1), _BUDGETS),
        (lambda game, grid: MechanismSpec("nope"), "unknown mechanism 'nope'"),
    ],
    ids=["best-response-agent", "selection-agent", "grid-cover",
         "opponent-cover", "opponent-off-grid", "report-mode",
         "empty-suite", "inadmissible-suite", "grid-order", "forward-unit", "forward-type",
         "node-budget", "edge-budget", "mechanism-id"],
)
def test_arguments_outside_their_domain_are_refused(fig2, call, message):
    game, grid = _vcg_game(fig2, cap=1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(game, grid)


def _tied_fig2(game):
    """fig2's game with d's true cost 3, the series path's, and the grid of
    truthful bids, whose one profile ties."""
    costs = {**game.network.true_cost, "d": F(3)}
    net = dataclasses.replace(game.network, true_cost=costs, bid=dict(costs))
    return PathGame(net, game.spec), BidGrid.procurement(costs, F(1), 0)


@pytest.mark.parametrize("mechanism", ["fp-single", "vickrey-single", "avg-single"])
def test_path_game_refuses_a_single_item_rule(fig3, mechanism):
    with pytest.raises(ValueError, match=f"^'{mechanism}' is not a path mechanism$"):
        PathGame(fig3, MechanismSpec(mechanism))


@pytest.mark.parametrize("bids", [(F(0), F(1)), (F(-3), F(-1, 2))], ids=["zero", "negative"])
def test_bid_grid_refuses_a_nonpositive_bid(fig3, bids):
    with pytest.raises(ValueError, match="^nonpositive bid for f$"):
        BidGrid({"e": (F(1), F(2)), "f": bids})
    game = PathGame(fig3, MechanismSpec("x"))
    grid = BidGrid.procurement(fig3.true_cost, F(1), 1)
    with pytest.raises(ValueError, match="^nonpositive bid for f$"):
        selection_probability(game, grid, "f", F(0))


def test_single_item_game_runs_the_spec_of_the_network_run(fig3):
    """A single-item game over fig3's types prices as the same spec run on
    fig3, whose two parallel edges make it a two-bidder auction."""
    for mechanism in ("fp-single", "vickrey-single", "avg-single"):
        for orientation in ("forward", "reverse"):
            spec = MechanismSpec(mechanism, lam=F(1, 3), orientation=orientation)
            game = SingleItemGame(fig3.true_cost, spec)
            bids = {"e": F(2), "f": F(9, 2)}
            assert game.run(bids) == spec.run(fig3, bids)
            assert game.procurement == (orientation == "reverse")
    with pytest.raises(ValueError, match="not a single-item mechanism"):
        SingleItemGame(fig3.true_cost, MechanismSpec("vcg"))
