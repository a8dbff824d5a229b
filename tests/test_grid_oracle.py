"""The grid consumers against a plain per-profile loop over MechanismSpec.run.

The oracle here walks bid dicts with itertools.product and prices each
profile with the game's own `run`, so it shares no position, stride or
section code with the analysis layer. The grids give the agents unequal
sizes (2, 3, 4 and 5 bids, in both agent orders), and half of them leave
out the truthful bid: there the truthful bid is only ever the agent's own,
never an opponent's.
"""

import itertools
from fractions import Fraction as F

import pytest
from conftest import renamed_owners

from pathauction import (
    BidGrid,
    DistributionRule,
    MechanismSpec,
    PathGame,
    SingleItemGame,
    TieError,
    alignment_report,
    check_partly_truthful,
    check_vcg_truthful,
    default_grid,
    fixture,
    random_network,
    selection_probability,
)
from pathauction import analysis
from pathauction.analysis import MODES

HALF = F(1, 2)


class Oracle:
    """Exhaustive answers for one game and grid, one `run` per bid profile."""

    def __init__(self, game, grid):
        self.game, self.grid = game, grid
        self.agents = tuple(sorted(grid.bids_for))
        self._runs = {}
        self._vectors = {}

    def run(self, bids):
        # Fractions hash slowly; their integer pairs do not.
        key = tuple((bids[a].numerator, bids[a].denominator) for a in self.agents)
        if key not in self._runs:
            try:
                self._runs[key] = self.game.run(dict(bids))
            except TieError:
                self._runs[key] = None
        return self._runs[key]

    def utility(self, agent, bids):
        result = self.run(bids)
        return 0 if result is None else result.utilities[agent]

    def others(self, agent):
        return [a for a in self.agents if a != agent]

    def opponent_profiles(self, agent):
        others = self.others(agent)
        for combo in itertools.product(*(self.grid.bids_for[a] for a in others)):
            yield dict(zip(others, combo))

    def selection_probability(self, agent, bid):
        admissible = selected = 0
        for opponents in self.opponent_profiles(agent):
            result = self.run({**opponents, agent: bid})
            if result is not None:
                admissible += 1
                selected += agent in result.selected
        return F(selected, admissible) if admissible else F(0)

    def vectors(self, agent):
        """The agent's utility per own bid over its opponent profiles."""
        if agent not in self._vectors:
            self._vectors[agent] = {
                bid: tuple(
                    self.utility(agent, {**o, agent: bid}) for o in self.opponent_profiles(agent)
                )
                for bid in self.grid.bids_for[agent]
            }
        return self._vectors[agent]

    def optimal_bids(self, agent, mode):
        own = self.grid.bids_for[agent]
        vectors = self.vectors(agent)
        best = [
            {b for b, u in zip(own, column) if u == top}
            for column in zip(*vectors.values())
            for top in [max(column)]
        ]
        if mode == "all":
            return tuple(sorted(set().union(*best)))
        base = set(own).intersection(*best) if mode == "dominant" else set().union(*best)

        def dominated(bid):
            mine = vectors[bid]
            return any(
                all(x >= y for x, y in zip(vectors[b], mine)) and vectors[b] != mine
                for b in own
                if b != bid
            )

        survivors = sorted(b for b in base if not dominated(b))
        truthful = self.game.types[agent]
        kept = []
        for bid in survivors:
            twins = [b for b in survivors if vectors[b] == vectors[bid]]
            if bid == min(twins, key=lambda b: (abs(b - truthful), b)):
                kept.append(bid)
        return tuple(kept)

    def profiles(self):
        for combo in itertools.product(*(self.grid.bids_for[a] for a in self.agents)):
            yield combo, dict(zip(self.agents, combo))

    def report(self, mode):
        per_agent = {a: self.optimal_bids(a, mode) for a in self.agents}
        joint = tuple(
            combo
            for combo in itertools.product(*(per_agent[a] for a in self.agents))
            if self.run(dict(zip(self.agents, combo))) is not None
        )
        scored = [(c, self.run(b)) for c, b in self.profiles()]
        scored = [(c, r.mechanism_utility) for c, r in scored if r is not None]
        top = max((u for _, u in scored), default=None)
        mech = tuple(c for c, u in scored if u == top)
        aligned = tuple(sorted(set(joint) & set(mech)))
        if not mech and not joint:
            verdict = "inadmissible"
        else:
            verdict = "nonempty" if aligned else "empty"
        return per_agent, joint, mech, aligned, verdict

    def partly_truthful(self):
        found = []
        for agent in self.agents:
            own = self.grid.bids_for[agent]
            probs = [self.selection_probability(agent, b) for b in own]
            truthful = self.game.types[agent]
            if truthful not in own or probs[own.index(truthful)] != max(probs):
                found.append(("selection probability not maximal at truthful bid", agent))
            for low, high, p_low, p_high in zip(own, own[1:], probs, probs[1:]):
                if p_high > p_low:
                    found.append(("selection probability rises with the bid", agent, low, high))
        for combo, bids in self.profiles():
            result = self.run(bids)
            if result is None:
                continue
            for agent in sorted(result.selected):
                if result.utilities[agent] <= 0:
                    found.append(
                        ("selected agent with nonpositive utility", agent, combo,
                         result.utilities[agent])
                    )
        return found

    def vcg_truthful(self):
        found = []
        for agent in self.agents:
            for opponents in self.opponent_profiles(agent):
                truthful_u = self.utility(agent, {**opponents, agent: self.game.types[agent]})
                for bid in self.grid.bids_for[agent]:
                    if self.utility(agent, {**opponents, agent: bid}) > truthful_u:
                        found.append((agent, bid, tuple(opponents[a] for a in self.others(agent))))
        return found


def _grids(types):
    """Unequal grids, 2, 3, 4 and 5 bids, in both agent orders; on the truthful
    bid and a step above it, or straddling it in half units without it."""
    agents = sorted(types)
    for sizes in (range(2, 2 + len(agents)), range(1 + len(agents), 1, -1)):
        size_of = dict(zip(agents, sizes))
        yield BidGrid({a: tuple(types[a] + i for i in range(size_of[a])) for a in agents})
        yield BidGrid(
            {a: tuple(types[a] - HALF + i for i in range(size_of[a])) for a in agents}
        )


def _four_agent_nets():
    nets = [fixture("fig2")]
    seed = 0
    while len(nets) < 3:
        net = random_network(seed, node_budget=5, edge_budget=5)
        if len(net.agents) == 4:
            nets.append(net)
        seed += 1
    return nets


GAMES = [
    PathGame(net, MechanismSpec(mechanism))
    for net in _four_agent_nets()
    for mechanism in ("vcg", "x", "fp-path")
] + [
    SingleItemGame(
        {"b1": F(3), "b2": F(4), "b3": F(6)}, MechanismSpec("vickrey-single", orientation="reverse")
    ),
    SingleItemGame(
        {"b1": F(3), "b2": F(4), "b3": F(6)}, MechanismSpec("fp-single", orientation="reverse")
    ),
]


def _game_id(game):
    where = f"{len(game.network.edges)}-edge" if isinstance(game, PathGame) else "single"
    return f"{game.spec.mechanism}-{where}"


def _assert_consumers_match(game, grid):
    """Every consumer against the oracle, alignment_report in every mode."""
    oracle = Oracle(game, grid)
    for report_mode in MODES:
        report = alignment_report(game, grid, report_mode)
        per_agent, joint, mech, aligned, verdict = oracle.report(report_mode)
        assert report.agent_optimal == per_agent, (report_mode, grid)
        assert report.joint_optimal == joint, (report_mode, grid)
        assert report.mechanism_optimal == mech, grid
        assert report.aligned == aligned, (report_mode, grid)
        assert report.verdict == verdict, (report_mode, grid)
    assert list(check_partly_truthful(game, grid).counterexamples) == oracle.partly_truthful()
    assert list(check_vcg_truthful(game, grid).counterexamples) == oracle.vcg_truthful()
    for agent, bids in grid.bids_for.items():
        for bid in (*bids, game.types[agent]):
            want = oracle.selection_probability(agent, bid)
            assert selection_probability(game, grid, agent, bid) == want, (agent, bid)


@pytest.mark.parametrize("game", GAMES, ids=_game_id)
def test_consumers_match_the_per_profile_loop(game):
    for grid in _grids(game.types):
        _assert_consumers_match(game, grid)


def test_a_1024_path_chain_matches_the_per_profile_loop(parallel_pairs):
    """The compiled table on a 10-stage chain of parallel pairs. Three
    agents vary over 2, 2 and 3 bids that straddle their types, so their
    truthful bids are off the grid; the others bid their types."""
    net = parallel_pairs(10)
    sizes = {"a00": 2, "a09": 2, "b04": 3}
    grid = BidGrid(
        {
            a: tuple(t - HALF + i for i in range(sizes[a])) if a in sizes else (t,)
            for a, t in net.true_cost.items()
        }
    )
    _assert_consumers_match(PathGame(net, MechanismSpec("x")), grid)


def _renamed_four_agent_net():
    """The first four-agent random network whose renamed owners sort in an
    order other than their edges'."""
    seed = 0
    while True:
        net = renamed_owners(random_network(seed, node_budget=5, edge_budget=5), seed)
        owners = [edge.owner for edge in net.edges]
        if len(owners) == 4 and owners != sorted(owners):
            return net
        seed += 1


@pytest.mark.parametrize("mechanism", ["vcg", "x", "fp-path"])
def test_renamed_owners_match_the_per_profile_loop(mechanism):
    """Agents sort by name and paths by edge ids: where the two orders
    differ, every consumer still gives the loop's answers."""
    game = PathGame(_renamed_four_agent_net(), MechanismSpec(mechanism))
    for grid in _grids(game.types):
        _assert_consumers_match(game, grid)


def test_the_grids_exercise_the_orders():
    """The comparisons above are only as strong as the outputs are varied:
    the vcg checker must report counterexamples at several own bids and
    opponent profiles, and a truthful bid must fall off the grid."""
    game = GAMES[1]
    assert game.spec.mechanism == "x"
    grids = list(_grids(game.types))
    assert any(t not in grids[1].bids_for[a] for a, t in game.types.items())
    found = Oracle(game, grids[1]).vcg_truthful()
    assert len({c[1] for c in found}) > 1 and len({c[2] for c in found}) > 1


def _failing_instances():
    """fp-path on xsmall pays every winner its bid, so truthful winners earn
    0; reverse-rank x on fig2 with bids half a unit below the types pays
    shares that are not whole at the table's scale."""
    xsmall = PathGame(fixture("xsmall"), MechanismSpec("fp-path"))
    yield xsmall, default_grid(xsmall)
    fig2 = fixture("fig2")
    reverse = MechanismSpec("x", rule=DistributionRule("reverse-rank"))
    yield PathGame(fig2, reverse), BidGrid(
        {a: (t - HALF, t, t + F(1, 3)) for a, t in fig2.true_cost.items()}
    )


@pytest.mark.parametrize("game, grid", list(_failing_instances()), ids=["fp-path", "reverse-rank"])
def test_partly_truthful_rows_are_the_loops_rows(game, grid):
    """The selected-agent rows come out as the plain loop lists them: in
    profile order, then agents in sorted order, each utility converted from
    the columns' units to the run's exact Fraction."""
    report = check_partly_truthful(game, grid)
    want = Oracle(game, grid).partly_truthful()
    rows = [c for c in report.counterexamples if c[0] == "selected agent with nonpositive utility"]
    assert report.verdict == "fails" and len(rows) > 1
    assert list(report.counterexamples) == want
    assert all(type(c[3]) is F for c in rows)
    if game.spec.rule.kind == "reverse-rank":
        scale = analysis._Evaluator(game, grid).scale
        assert any((c[3] * scale).denominator != 1 for c in rows)
    else:
        assert len({c[2] for c in rows}) < len(rows)  # profiles with two failing winners
