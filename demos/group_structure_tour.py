"""How the group-sharing rule carves up the cheapest path.

Walks through the ranking, the survival groups, each group's profit
pool, and the three ways a pool can be split among members. Run:

    python demos/group_structure_tour.py
"""

from fractions import Fraction as F

from pathauction import (
    DistributionRule,
    MechanismSpec,
    TieError,
    distribute,
    fixture,
    format_cost,
    group_structure,
)


def main() -> None:
    net = fixture("example1")
    ranked, assignment, pools = group_structure(net, net.true_cost)

    print("ranked routes (cost, edges):")
    for i, path in enumerate(ranked.paths, start=1):
        print(f"  {i}: cost {format_cost(path.cost):>3}   {' '.join(path.edges)}")

    print()
    print("survival groups on the cheapest route:")
    print("  an agent is in group q when it sits on every one of the q")
    print("  cheapest routes but not on the (q+1)-th.")
    for q in assignment.present_groups:
        members = ", ".join(assignment.members(q))
        print(f"  group {q}: {members:<10} pool {format_cost(pools[q])}")
    print("  pools telescope to cost(rank max+1) - cost(rank 1) ="
          f" {format_cost(sum(pools.values()))}")

    print()
    print("splitting one pool of 15 among bids (10, 20, 30):")
    group = [("a", F(10)), ("b", F(20)), ("c", F(30))]
    for rule in (
        DistributionRule("equal"),
        DistributionRule("reverse-rank"),
        DistributionRule("waterfall", F(1)),
    ):
        shares = distribute(rule, group, F(15))
        payments = {agent: shares[agent] + bid for agent, bid in group}
        cells = ", ".join(f"{a}={format_cost(payments[a])}" for a, _ in group)
        print(f"  {rule.kind:<13} payments: {cells}")
    print("  the waterfall floors everyone at the minimum, then levels the")
    print("  lowest payments upward until the pool is gone: (11,21,31) ->")
    print("  (21,21,31) -> (22,22,31).")

    print()
    print("payment to agent E under the per-member gap rule (tradeoff2), as E")
    print("alone raises its bid above its true cost of 1:")
    for raise_by in (F(0), F(3), F(5), F(11, 2), F(13, 2), F(17, 2), F(19, 2)):
        bids = {**net.true_cost, "E": net.true_cost["E"] + raise_by}
        try:
            payment = format_cost(MechanismSpec("tradeoff2").run(net, bids).payments["E"])
        except TieError:
            payment = "tie (TieError: two ranked routes cost the same)"
        print(f"  raise {format_cost(raise_by):>4}: payment {payment}")
    print("flat within the adjacent gap, stepped above it, zero once E prices")
    print("itself past the cheapest alternative route; each whole raise from")
    print("5 to 10 ties two routes.")


if __name__ == "__main__":
    main()
