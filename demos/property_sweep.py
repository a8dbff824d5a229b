"""Sweep seeded random networks and verify the exact structural identities.

Everything here is exact rational arithmetic, so each identity either
holds on the nose or the run crashes. Run:

    python demos/property_sweep.py [count]
"""

import sys
from fractions import Fraction as F

from pathauction import (
    DistributionRule,
    EQUAL_SPLIT,
    MechanismSpec,
    check_strongly_critical,
    enumerate_paths,
    format_cost,
    group_structure,
    random_network,
    rank_paths,
)

RULES = (
    EQUAL_SPLIT,
    DistributionRule("reverse-rank"),
    DistributionRule("waterfall", F(1)),
)


def main(count: int) -> None:
    degenerate = 0
    group_counts: dict[int, int] = {}
    savings = []
    for seed in range(count):
        net = random_network(seed)
        bids = net.true_cost
        rule = RULES[seed % len(RULES)]

        ranked = enumerate_paths(net, bids)
        assert rank_paths(net, bids, k=len(ranked.paths)).paths == ranked.paths

        shared = MechanismSpec("x", rule=rule).run(net, bids)
        marginal = MechanismSpec("vcg").run(net, bids)
        _, assignment, pools = group_structure(net, bids)

        assert shared.total == ranked.costs[assignment.max_group]
        assert sum(pools.values()) == shared.total - ranked.costs[0]
        assert all(shared.payments[a] > bids[a] for a in shared.selected)
        assert check_strongly_critical(net, bids, rule).holds
        assert shared.total <= marginal.total

        n_groups = len(assignment.present_groups)
        group_counts[n_groups] = group_counts.get(n_groups, 0) + 1
        if len(ranked.paths[0].edges) == 1:
            degenerate += 1
            assert shared.payments == marginal.payments
        if marginal.total:
            savings.append((marginal.total - shared.total) / marginal.total)

    print(f"checked {count} seeded networks, every identity exact:")
    print("  group-share total = cost of the route past the deepest group")
    print("  pools telescope, winners profit, per-group criticality holds")
    print("  group-share total never exceeds the marginal-pricing total")
    print()
    print(f"instances whose cheapest route is a single edge: {degenerate}")
    print("  (on those, group sharing and marginal pricing coincide exactly)")
    dist = ", ".join(f"{k}:{v}" for k, v in sorted(group_counts.items()))
    print(f"distribution of group counts on the cheapest route: {dist}")
    avg = sum(savings) / len(savings)
    print(f"mean relative saving of group sharing over marginal pricing: "
          f"{format_cost(avg)} (~{float(avg):.3f})")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 120)
