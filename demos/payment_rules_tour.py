"""Tour of every payment rule on the six-route benchmark network.

Builds the bundled example1 network (16 agents, six source-to-sink
routes costing 6, 7, 9, 10, 15, 16 at truthful bids) and prints what
each mechanism would pay, side by side. Run:

    python demos/payment_rules_tour.py
"""

from fractions import Fraction as F

from pathauction import (
    MechanismSpec,
    fixture,
    format_cost,
)


def main() -> None:
    net = fixture("example1")
    bids = net.true_cost
    print("network: example1, truthful bids, cheapest route A B C D E F at cost 6")
    print()

    specs = [
        MechanismSpec("fp-path"),
        MechanismSpec("vcg"),
        MechanismSpec("x"),
        MechanismSpec("tradeoff2"),
        MechanismSpec("tradeoff3"),
        MechanismSpec("tradeoff1", threshold=F(1, 4)),
    ]
    rows = [(spec, spec.run(net, bids)) for spec in specs]

    winners = sorted(rows[0][1].selected)
    header = f"{'mechanism':<12}" + "".join(f"{a:>8}" for a in winners) + f"{'total':>9}"
    print(header)
    for spec, res in rows:
        label = spec.mechanism
        if res.branch:
            label += f"->{res.branch}"
        cells = "".join(f"{format_cost(res.payments[a]):>8}" for a in winners)
        print(f"{label:<12}{cells}{format_cost(res.total):>9}")

    print()
    print("pay-as-bid spends the least but leaves every winner at zero profit;")
    print("marginal pricing (vcg) pays each agent its full replacement value;")
    print("group sharing (x) pools that value per survival group instead, and")
    print("its grand total is always the cost of the route past the deepest group.")

    print()
    print("raising a bid can HELP the buyer under marginal pricing:")
    raised = dict(bids)
    raised["A"] = F(4)
    vcg = MechanismSpec("vcg")
    print(f"  truthful total: {format_cost(vcg.run(net, bids).total)}")
    print(f"  after A bids 4: {format_cost(vcg.run(net, raised).total)}")

    print()
    print("under group sharing the same move cannot change the group's take:")
    res = MechanismSpec("x").run(net, bids)
    print(f"  total stays {format_cost(res.total)}: it is pinned to the")
    print("  cost of the first route that avoids the deepest-surviving agent.")


if __name__ == "__main__":
    main()
