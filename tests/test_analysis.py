from fractions import Fraction as F

import pytest

from pathauction import (
    BidGrid,
    GridTooLarge,
    MechanismSpec,
    PathGame,
    SingleItemGame,
    agent_optimal_bids,
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
    mechanism_optimal_profiles,
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
    assert agent_optimal_bids(game, grid, "b1") == (F(2), F(3), F(4), F(5), F(6))


def test_second_price_optimal_bid_is_truthful():
    for types in TYPE_VECTORS:
        game = SingleItemGame(types, MechanismSpec("vickrey-single", orientation="forward"))
        grid = BidGrid.forward(types)
        for agent in game.agents:
            assert agent_optimal_bids(game, grid, agent) == (types[agent],)


def test_marginal_pricing_optimal_bid_is_truthful(fig2, fig3):
    for net in (fig2, fig3):
        game, grid = _vcg_game(net, cap=1 if net.agents == fig2.agents else 3)
        for agent in net.agents:
            assert agent_optimal_bids(game, grid, agent) == (net.true_cost[agent],)


def test_group_share_keeps_overbids_in_play(xsmall):
    game = PathGame(xsmall, MechanismSpec("x"))
    grid = BidGrid.procurement(xsmall.true_cost, F(1), 3)
    bids = agent_optimal_bids(game, grid, "r")
    assert xsmall.true_cost["r"] in bids
    assert any(b > xsmall.true_cost["r"] for b in bids)


def test_mode_containment(fig3, xsmall):
    for net, mech in ((fig3, "vcg"), (xsmall, "x")):
        game = PathGame(net, MechanismSpec(mech))
        grid = BidGrid.procurement(net.true_cost, F(1), 3)
        for agent in net.agents:
            dominant = set(agent_optimal_bids(game, grid, agent, "dominant"))
            undominated = set(agent_optimal_bids(game, grid, agent, "undominated"))
            everything = set(agent_optimal_bids(game, grid, agent, "all"))
            assert dominant <= undominated <= everything


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
    argmax = mechanism_optimal_profiles(game, grid)
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


def test_vcg_truthful_checker(fig2):
    game, grid = _vcg_game(fig2, cap=1)
    assert check_vcg_truthful(game, grid).holds


def test_degenerate_vickrey_checker(fig3, example1):
    assert check_degenerate_vickrey(fig3).holds
    assert not check_degenerate_vickrey(example1).holds


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
