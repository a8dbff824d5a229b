"""Exhaustive incentive analysis on grids small enough to enumerate.

For each instance this prints, computed by brute force over a finite bid
grid: each agent's rational bid set, the profiles the buyer itself would
prefer, and whether the two can coincide. Run:

    python demos/incentive_analysis_tour.py
"""

from fractions import Fraction as F

from pathauction import (
    BidGrid,
    MechanismSpec,
    PathGame,
    SingleItemGame,
    alignment_report,
    check_partly_truthful,
    classify_consistency,
    default_grid,
    fixture,
)


def show(title: str, report) -> None:
    print(title)
    for agent in report.agents:
        bids = ", ".join(str(b) for b in report.agent_optimal[agent])
        print(f"  rational bids for {agent}: {{{bids}}}")
    for label, which in (
        ("agents jointly prefer", "joint_optimal"),
        ("buyer prefers", "mechanism_optimal"),
        ("both at once", "aligned"),
    ):
        rows = report.profile_dicts(which)
        text = "; ".join(
            "(" + ", ".join(f"{a}={row[a]}" for a in report.agents) + ")" for row in rows
        )
        print(f"  {label}: {text or 'nothing'}")
    print(f"  verdict: {report.verdict}")
    print()


def main() -> None:
    fig2 = fixture("fig2")
    fig3 = fixture("fig3")
    xsmall = fixture("xsmall")

    g2 = PathGame(fig2, MechanismSpec("vcg"))
    grid2 = BidGrid.procurement(fig2.true_cost, F(1), 1)
    show("marginal pricing, series route (3) vs parallel edge (5):",
         alignment_report(g2, grid2))

    g3 = PathGame(fig3, MechanismSpec("vcg"))
    grid3 = BidGrid.procurement(fig3.true_cost, F(1), 3)
    show("marginal pricing, two parallel edges (1, 5):", alignment_report(g3, grid3))

    verdict = classify_consistency([(g2, grid2), (g3, grid3)]).verdict
    print(f"marginal pricing across both instances: {verdict}")
    print()

    gx = PathGame(xsmall, MechanismSpec("x"))
    gridx = BidGrid.procurement(xsmall.true_cost, F(1), 3)
    show("group sharing, two-edge route (1+1) vs parallel edge (4):",
         alignment_report(gx, gridx))
    print("note the winners' rational sets keep bids above the true cost:")
    print("overbidding raises their own payment for as long as they survive,")
    print("so only the selection risk holds them near the truth.")
    print()

    report = check_partly_truthful(gx, gridx)
    print(f"group sharing is partly truthful on this instance: {report.verdict}")

    types = {"low": F(3), "high": F(7)}
    fp = SingleItemGame(types, MechanismSpec("fp-single", orientation="forward"))
    second = SingleItemGame(types, MechanismSpec("vickrey-single", orientation="forward"))
    fp_verdict = classify_consistency([(fp, default_grid(fp))]).verdict
    sp_verdict = classify_consistency([(second, default_grid(second))]).verdict
    print()
    print(f"single item, types (3, 7): pay-as-bid -> {fp_verdict},"
          f" second price -> {sp_verdict}")


if __name__ == "__main__":
    main()
