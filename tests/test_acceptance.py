"""End-to-end acceptance suite.

Every check here asserts exact rational equality (zero tolerance) and
prints one [PASS]/[FAIL] line; run with `pytest -s tests/test_acceptance.py`
to see the lines stream. The whole suite is designed to finish well under
a minute on a desktop.
"""

from contextlib import contextmanager
from fractions import Fraction as F

from pathauction import (
    BidGrid,
    DistributionRule,
    EQUAL_SPLIT,
    MechanismSpec,
    PathGame,
    SingleItemGame,
    alignment_report,
    check_strongly_critical,
    check_vcg_truthful,
    classify_consistency,
    default_grid,
    distribute,
    enumerate_paths,
    fixture,
    group_structure,
    member_gap_schedule,
    rank_paths,
)


@contextmanager
def reported(label):
    try:
        yield
    except Exception:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


RULES = (
    EQUAL_SPLIT,
    DistributionRule("reverse-rank"),
    DistributionRule("waterfall", F(1)),
    DistributionRule("compound", F(1)),
)


def test_equal_split_payments_on_six_route_benchmark(example1):
    with reported("six-route benchmark: equal-split group payments exact"):
        res = MechanismSpec("x").run(example1, example1.true_cost)
        assert res.payments["B"] == F(3, 2)
        assert res.payments["C"] == F(3, 2)
        assert res.payments["A"] == F(5, 2)
        assert res.payments["D"] == F(5, 2)
        assert res.payments["E"] == F(6)
        assert res.payments["F"] == F(2)
        assert res.total == F(16)


def test_group_pools_on_six_route_benchmark(example1):
    with reported("six-route benchmark: group profit pools exact"):
        _, _, pools = group_structure(example1, example1.true_cost)
        assert pools == {1: F(1), 3: F(3), 4: F(5), 5: F(1)}


def test_marginal_pricing_on_six_route_benchmark(example1):
    with reported("six-route benchmark: marginal payments, totals and bid-raise effect"):
        bids = example1.true_cost
        res = MechanismSpec("vcg").run(example1, bids)
        assert res.payments["A"] == F(5)
        assert res.payments["D"] == F(5)
        assert res.payments["E"] == F(10)
        assert res.payments["F"] == F(11)

        # Independent oracle for B and C: recompute both detours straight
        # from the enumerated path list.
        ranked = enumerate_paths(example1, bids)
        for agent in ("B", "C"):
            excluded = min(p.cost for p in ranked.paths if agent not in p.owner_set)
            zeroed = min(
                p.cost - (bids[agent] if agent in p.owner_set else 0)
                for p in ranked.paths
            )
            assert excluded - zeroed == F(2)
            assert res.payments[agent] == F(2)
        assert res.total == F(35)

        shared = MechanismSpec("x").run(example1, bids)
        assert shared.total == F(16) < res.total

        raised = dict(bids)
        raised["A"] = F(4)
        res_raised = MechanismSpec("vcg").run(example1, raised)
        assert res_raised.total == F(27) < F(35)


def test_waterfall_worked_sequence():
    with reported("waterfall split: worked sequence lands on payments (22, 22, 31)"):
        group = [("a", F(10)), ("b", F(20)), ("c", F(30))]
        shares = distribute(DistributionRule("waterfall", F(1)), group, F(15))
        payments = {agent: shares[agent] + bid for agent, bid in group}
        assert payments == {"a": F(22), "b": F(22), "c": F(31)}


def test_reverse_rank_fractions():
    with reported("reverse-rank split: profit fractions are 30/60, 20/60, 10/60 of the pool"):
        group = [("a", F(10)), ("b", F(20)), ("c", F(30))]
        for pool in (F(1), F(15), F(7, 3)):
            shares = distribute(DistributionRule("reverse-rank"), group, pool)
            assert shares == {
                "a": pool * F(30, 60),
                "b": pool * F(20, 60),
                "c": pool * F(10, 60),
            }


def _series_parallel_report(fig2):
    game = PathGame(fig2, MechanismSpec("vcg"))
    grid = BidGrid.procurement(fig2.true_cost, F(1), 1)
    return alignment_report(game, grid)


def test_series_parallel_grid_agent_optimal_profiles(fig2):
    with reported("series-parallel grid: agents' joint optimal set is the truthful profile"):
        report = _series_parallel_report(fig2)
        assert report.joint_optimal == ((F(1), F(1), F(1), F(5)),)


def test_series_parallel_grid_buyer_optimal_profiles(fig2):
    with reported("series-parallel grid: buyer-optimal set is the three one-step-raised profiles"):
        report = _series_parallel_report(fig2)
        stated = {
            (F(2), F(1), F(1), F(5)),
            (F(1), F(2), F(1), F(5)),
            (F(1), F(1), F(2), F(5)),
        }
        assert set(report.mechanism_optimal) == stated, (
            "exhaustive argmax disagrees with the stated target: raising all three "
            "series agents one step flips the award to the parallel edge at a "
            f"spend of 6 < 7; computed {sorted(report.mechanism_optimal)}"
        )


def test_series_parallel_grid_alignment_empty(fig2):
    with reported("series-parallel grid: agent-optimal and buyer-optimal sets are disjoint"):
        report = _series_parallel_report(fig2)
        assert report.aligned == ()
        assert report.verdict == "empty"


def test_two_edge_grid_alignment(fig3):
    with reported("two-edge grid: alignment is exactly the truthful profile (1, 5)"):
        game = PathGame(fig3, MechanismSpec("vcg"))
        grid = BidGrid.procurement(fig3.true_cost, F(1), 3)
        report = alignment_report(game, grid)
        assert report.aligned == ((F(1), F(5)),)


def test_marginal_pricing_classification_is_partial(fig2, fig3):
    with reported("marginal pricing classifies partially-consistent across the two grids"):
        items = [
            (PathGame(fig2, MechanismSpec("vcg")), BidGrid.procurement(fig2.true_cost, F(1), 1)),
            (PathGame(fig3, MechanismSpec("vcg")), BidGrid.procurement(fig3.true_cost, F(1), 3)),
        ]
        assert classify_consistency(items).verdict == "partially-consistent"


def test_single_item_classifications():
    with reported("single-item suites: pay-as-bid impossible, second-price strongly consistent"):
        vectors = [
            {"b1": F(3), "b2": F(7)},
            {"b1": F(2), "b2": F(5)},
            {"b1": F(1), "b2": F(4)},
            {"b1": F(2), "b2": F(5), "b3": F(9)},
            {"b1": F(1), "b2": F(4), "b3": F(6)},
            {"b1": F(2), "b2": F(3), "b3": F(8)},
        ]
        fp = []
        second = []
        for types in vectors:
            g1 = SingleItemGame(types, MechanismSpec("fp-single", orientation="forward"))
            g2 = SingleItemGame(types, MechanismSpec("vickrey-single", orientation="forward"))
            fp.append((g1, default_grid(g1)))
            second.append((g2, default_grid(g2)))
        assert classify_consistency(fp).verdict == "impossible-consistent"
        assert classify_consistency(second).verdict == "strongly-consistent"


def test_random_population_identities(random_nets_200):
    with reported("200 random networks: totals, conservation, criticality, positivity, degeneracy"):
        degenerate_seen = 0
        for i, net in enumerate(random_nets_200):
            bids = net.true_cost
            rule = RULES[i % len(RULES)]
            res = MechanismSpec("x", rule=rule).run(net, bids)
            ranked, assignment, pools = group_structure(net, bids)

            # Total equals the cost of the path past the deepest group.
            assert res.total == ranked.costs[assignment.max_group]
            # Conservation: bids on the winning path plus all pools, exactly.
            on_path = sum((bids[a] for a in ranked.paths[0].owners), F(0))
            assert res.total == on_path + sum(pools.values())
            assert sum(pools.values()) == ranked.costs[assignment.max_group] - ranked.costs[0]
            # Every winner clears a strictly positive profit.
            for agent in res.selected:
                assert res.payments[agent] > bids[agent]
            # Cumulative per-group criticality identity.
            assert check_strongly_critical(net, bids, rule).holds

            if len(ranked.paths[0].edges) == 1:
                degenerate_seen += 1
                marginal = MechanismSpec("vcg").run(net, bids)
                second = ranked.costs[1]
                winner = ranked.paths[0].owners[0]
                assert res.payments == marginal.payments
                assert res.payments[winner] == second
                reverse = SingleItemGame(
                    bids, MechanismSpec("vickrey-single", orientation="reverse")
                ).run({a: bids[a] for a in net.agents}) if len(net.agents) == 2 else None
                if reverse is not None:
                    assert reverse.payments[winner] == second
        assert degenerate_seen > 0


def test_oracle_equivalence(random_nets_200):
    with reported("200 random networks: ranking and marginal payments match the enumeration oracle"):
        for net in random_nets_200:
            bids = net.true_cost
            ranked = enumerate_paths(net, bids)
            again = rank_paths(net, bids, k=len(ranked.paths) + 3)
            assert again.paths == ranked.paths

            res = MechanismSpec("vcg").run(net, bids)
            for agent in ranked.paths[0].owners:
                excluded = min(p.cost for p in ranked.paths if agent not in p.owner_set)
                zeroed = min(
                    p.cost - (bids[agent] if agent in p.owner_set else 0)
                    for p in ranked.paths
                )
                assert res.payments[agent] == excluded - zeroed


def test_marginal_pricing_truthfulness_exhaustive(random_small_25):
    with reported("25 small instances: truthful bidding is a best response everywhere"):
        for net in random_small_25:
            game = PathGame(net, MechanismSpec("vcg"))
            grid = BidGrid.procurement(net.true_cost, F(1), 3)
            report = check_vcg_truthful(game, grid)
            assert report.holds, report.counterexamples[:3]


def test_raise_schedule_brackets(example1):
    with reported("raise schedule: flat across the first bracket, zero past the widest gap"):
        bids = example1.true_cost
        base = member_gap_schedule(example1, "E", F(0), bids)
        assert base == F(6)
        value = F(0)
        while value <= F(5):  # adjacent gap for E is 15 - 10 = 5
            assert member_gap_schedule(example1, "E", value, bids) == base
            value += F(1, 4)
        beyond = F(9)  # widest gap for E is 15 - 6 = 9
        assert member_gap_schedule(example1, "E", beyond + F(1, 4), bids) == F(0)
        assert member_gap_schedule(example1, "E", F(100), bids) == F(0)
