"""Exhaustive small-instance incentive analysis.

Given an auction game (a path mechanism on a network, or a single-item
auction over a type vector) and a finite bid grid per agent, this module
answers, by full enumeration:

* how often an agent is selected at a given bid (selection probability
  over the uniform grid of opponent profiles),
* which bids are best responses, and which survive as each agent's
  rational bid set under three strategy refinements,
* which full profiles the mechanism itself prefers (its utility argmax),
* whether the agents' preferred profiles and the mechanism's preferred
  profiles can coincide, and how a mechanism classifies across a suite
  of instances (strongly/partially/impossible consistent),
* executable property checkers: partial truthfulness, criticality of the
  total payment, the exact per-group criticality identity of the
  group-sharing rule, per-group payment invariance under rank-preserving
  bid changes (random trials priced from one path enumeration), and
  exhaustive best-response truthfulness.

Profiles that violate a mechanism's strict-order precondition (cost ties)
are excluded from profile sets and scored as "not selected, utility 0"
inside best-response evaluation. All reports are canonically ordered
(agents lexicographic, profiles lexicographic) so results do not depend
on enumeration order; enumeration may be parallelized freely.

Every operation prices whole grids, each once its profile count passes
PROFILE_GUARD: every profile once, in one pass, into a flat list read by
stride. A query that reads one line of a grid prices the grid that is
that line, the fixed agents narrowed to one bid. A PathGame of any path
rule, on a network within ENUMERATION_EDGE_GUARD in which each agent
owns one edge, is compiled once per grid: its loopless paths are listed
a single time, and one loop of the table prices the whole grid. Each
profile ranks the paths lazily, only as deep as its rule reads, checking
ties as it ranks; the winners are grouped once per ranking shape, and
the payment formulas MechanismSpec.run uses (mechanisms._price) price
the profile. Single-item games, larger networks, agents that own more
than one edge and nonpositive bids run MechanismSpec.run per profile;
that path is also the reference the compiled one is tested against.

The compiled table prices and compares money in integers: one scale per
operation makes every bid, cost and share a whole number of 1/scale units
(see _PathTable), except reverse-rank shares, which stay exact Fractions
in the same units. Python compares ints and Fractions exactly, so the
argmax, dominance and best-response comparisons need no conversion; the
one value a report exposes, check_partly_truthful's nonpositive utility,
converts back to a Fraction.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    Disconnected,
    GenerationFailed,
    GridTooLarge,
    TieError,
    TooLarge,
)
from .graph import ENUMERATION_EDGE_GUARD, Edge, Network, enumerate_paths, validate
from .graph import _walk_all
from .mechanisms import (
    EQUAL_SPLIT,
    DistributionRule,
    MechanismSpec,
    PaymentResult,
    _group_structure,
    _grouped,
    _price,
    _resolve_bids,
    _run_single_item,
)
from .rational import format_cost

#: Upper bound on the full profile product space any operation will enumerate.
PROFILE_GUARD = 10**6

# Upper bound on the trials one group-truthfulness check will draw; each
# trial re-costs every enumerated path, so the work grows with the count.
_TRIALS_GUARD = 10_000

MODES = ("undominated", "all", "dominant")


# ---------------------------------------------------------------------------
# Games and grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleItemGame:
    """A sealed-bid single-item auction over a fixed private type vector.

    `spec` names a `*-single` mechanism; its orientation and blend weight
    apply as they do in MechanismSpec.run on a network.
    """

    types: dict[str, Fraction]
    spec: MechanismSpec = MechanismSpec("vickrey-single", orientation="forward")

    def __post_init__(self) -> None:
        if not self.spec.mechanism.endswith("-single"):
            raise ValueError(f"{self.spec.mechanism!r} is not a single-item mechanism")

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(sorted(self.types))

    @property
    def procurement(self) -> bool:
        return self.spec.orientation == "reverse"

    def run(self, bids: Mapping[str, Fraction]) -> PaymentResult:
        return _run_single_item(self.spec, bids, self.types)


@dataclass(frozen=True)
class PathGame:
    """A path mechanism played on a fixed network (procurement side)."""

    network: Network
    spec: MechanismSpec = MechanismSpec("x")

    @property
    def agents(self) -> tuple[str, ...]:
        return self.network.agents

    @property
    def types(self) -> dict[str, Fraction]:
        return dict(self.network.true_cost)

    @property
    def procurement(self) -> bool:
        return True

    def run(self, bids: Mapping[str, Fraction]) -> PaymentResult:
        return self.spec.run(self.network, bids)


@dataclass(frozen=True)
class BidGrid:
    """A finite, strictly increasing list of allowed bids per agent.

    No agent may have more than PROFILE_GUARD bids: every evaluator builds
    state for each of them, and best_response_set prices them all. The
    constructors raise GridTooLarge before building any bid.
    """

    bids_for: dict[str, tuple[Fraction, ...]]

    def __post_init__(self) -> None:
        for agent, bids in self.bids_for.items():
            if not bids:
                raise ValueError(f"empty grid for agent {agent}")
            _require_grid_size(len(bids))
            if any(b2 <= b1 for b1, b2 in zip(bids, bids[1:])):
                raise ValueError(f"grid for agent {agent} must be strictly increasing")

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(sorted(self.bids_for))

    def product_size(self) -> int:
        size = 1
        for bids in self.bids_for.values():
            size *= len(bids)
        return size

    @classmethod
    def procurement(
        cls, types: Mapping[str, Fraction], unit: Fraction = Fraction(1), cap: int = 3
    ) -> "BidGrid":
        """Each agent may bid its true cost or up to `cap` units above it."""
        if unit <= 0:
            raise ValueError("unit must be positive")
        _require_grid_size(cap + 1)
        return cls(
            {a: tuple(t + i * unit for i in range(cap + 1)) for a, t in types.items()}
        )

    @classmethod
    def forward(
        cls, types: Mapping[str, Fraction], unit: Fraction = Fraction(1)
    ) -> "BidGrid":
        """Each bidder may bid any positive multiple of `unit` up to its value."""
        if unit <= 0:
            raise ValueError("unit must be positive")
        grids: dict[str, tuple[Fraction, ...]] = {}
        for agent, t in types.items():
            count = t // unit
            if count < 1:
                raise ValueError(f"type {t} of {agent} is below one currency unit")
            _require_grid_size(count)
            grids[agent] = tuple(i * unit for i in range(1, count + 1))
        return cls(grids)


def _require_grid_size(bids: int) -> None:
    """GridTooLarge when one agent would have more than PROFILE_GUARD bids."""
    if bids > PROFILE_GUARD:
        raise GridTooLarge(f"{bids} bids for one agent exceed {PROFILE_GUARD}")


def _require_cover(game, grid: BidGrid) -> None:
    if set(grid.agents) != set(game.agents):
        raise ValueError("grid must cover exactly the game's agents")


def _require_enumerable(size: int) -> None:
    """GridTooLarge when a walk would price more than PROFILE_GUARD profiles."""
    if size > PROFILE_GUARD:
        raise GridTooLarge(f"profile space {size} exceeds {PROFILE_GUARD}")


def default_grid(game, unit: Fraction = Fraction(1), cap: int = 3) -> BidGrid:
    """The conventional grid for a game: procurement above type, forward below."""
    if game.procurement:
        return BidGrid.procurement(game.types, unit, cap)
    return BidGrid.forward(game.types, unit)


# ---------------------------------------------------------------------------
# Profile evaluation
# ---------------------------------------------------------------------------


class _Outcome(NamedTuple):
    """One profile's outcome, its money in units of 1/scale of its evaluator.

    Utilities align with the sorted agent order. Compiled outcomes hold
    ints, or exact Fractions where a reverse-rank share is not whole at the
    table's scale; reference outcomes hold the run's Fractions at scale 1.
    """

    utilities: tuple
    mechanism_utility: int | Fraction
    selected: frozenset[str]


def _units(value: Fraction, scale: int) -> int:
    """`value` in units of 1/scale, for a scale its denominator divides."""
    return value.numerator * (scale // value.denominator)


def _unit_scale(
    spec: MechanismSpec, money: Iterable[Fraction], factor: int
) -> tuple[int, MechanismSpec]:
    """The least scale at which every value in `money`, and the rule delta of
    x and tradeoff1, is a whole number of 1/scale units, times `factor`;
    and `spec` with that delta in those units."""
    delta = spec.rule.delta if spec.mechanism in ("x", "tradeoff1") else None
    if delta is not None:
        money = itertools.chain(money, (delta,))
    scale = math.lcm(*(v.denominator for v in money)) * factor
    if delta is not None:
        spec = replace(spec, rule=DistributionRule(spec.rule.kind, _units(delta, scale)))
    return scale, spec


class _PathTable:
    """A path game compiled once into its loopless paths, ranked lazily.

    The set of loopless source-to-sink paths does not depend on the bids,
    so it is enumerated once and each path kept as the positions of its
    owners in the sorted agent order, indexed in edge-id order. No cost of
    a path falls below its bound, the sum of its owners' smallest values.
    Per profile the table scans the paths in (bound, index) order onto a
    heap of (cost, index), and ranks the heap's minimum once the next
    unscanned bound lies strictly above its cost, as no unscanned path can
    then precede it. The ranks come out in the (cost, edge ids) order of
    `enumerate_paths` and `iter_ranked_paths`, so the tie checks see the
    same ranks as MechanismSpec.run and give the same verdicts.

    `outcomes` prices every profile of the grid in one loop. It ranks
    until every winner has been absent once (fp-path stops at two) and
    compares each rank with the one before it as it is ranked. The
    verdicts keep the run's precedence: a tie of the two cheapest paths
    (fp-path, vcg) scores None at once; a ranking that runs out (a winner
    owns a cut) is left to `reference`, the game's run, to raise; only
    then does a tie within a group rule's prefix score None. The ranking's
    shape, its first path and each winner's first absence, keys `shapes`,
    which holds the winners grouped as mechanisms._price reads them (agent
    positions for keys) and the selected set, built the first time the
    shape is priced. mechanisms._price, the formulas MechanismSpec.run
    uses, then pays the profile from the ranked costs.

    All money is in integers counting units of 1/scale. The scale is the
    least common multiple of every value's denominator (with the
    distribution delta of x and tradeoff1 among the values). For x,
    tradeoff1 and tradeoff3 it is multiplied by lcm(1..L), L the most
    owners on any path: every bid, and so every path cost, pool and delta,
    is then a multiple of each possible group size, which makes each
    equal, waterfall, compound and tradeoff3 share a whole number. A
    reverse-rank share, pool * bid / total, need not be; `distribute`
    keeps it an exact Fraction in the same units.
    """

    def __init__(
        self,
        game: PathGame,
        agents: tuple[str, ...],
        values: tuple[tuple[Fraction, ...], ...],
        true_cost: tuple[Fraction, ...],
        paths: tuple[tuple[int, ...], ...],
    ):
        self.owners = paths
        self.reference = game.run
        bits = [1 << i for i in range(len(agents))]
        self.masks = [sum(map(bits.__getitem__, owners)) for owners in paths]
        # Per ranking shape priced so far, its winners grouped and its selected set.
        self.shapes: dict[tuple, tuple[tuple, frozenset[str]]] = {}
        self.mechanism = game.spec.mechanism
        self.agents = agents
        factor = 1
        if self.mechanism in ("x", "tradeoff1", "tradeoff3"):
            factor = math.lcm(*range(1, max(map(len, paths)) + 1))
        money = itertools.chain(true_cost, *values)
        scale, self.spec = _unit_scale(game.spec, money, factor)
        self.scale = scale
        self.scaled = tuple([_units(v, scale) for v in vs] for vs in values)
        self.true_scaled = tuple(_units(t, scale) for t in true_cost)
        least = [min(vs) for vs in self.scaled]
        bounds = [sum(map(least.__getitem__, owners)) for owners in paths]
        self.scan = sorted(range(len(paths)), key=bounds.__getitem__)
        self.bounds = [bounds[j] for j in self.scan] + [math.inf]

    def outcomes(self) -> list[_Outcome | None]:
        """The outcome of every profile of the scaled grid, in product order."""
        owners, masks, scan, bounds = self.owners, self.masks, self.scan, self.bounds
        spec, true_scaled, shapes = self.spec, self.true_scaled, self.shapes
        name = self.mechanism
        top_two = name in ("fp-path", "vcg")
        n, m = len(scan), len(self.agents)
        outcomes: list[_Outcome | None] = []
        emit = outcomes.append
        for bids in itertools.product(*self.scaled):
            bid_of = bids.__getitem__
            heap: list[tuple[int, int]] = []
            ranked: list[int] = []
            tied = False
            s = 0
            while True:
                if heap:
                    while bounds[s] <= heap[0][0]:
                        j = scan[s]
                        heappush(heap, (sum(map(bid_of, owners[j])), j))
                        s += 1
                    cost, j = heappop(heap)
                elif s < n:
                    # A path below the next bound ranks at once, without the heap.
                    j = scan[s]
                    cost = sum(map(bid_of, owners[j]))
                    s += 1
                    if bounds[s] <= cost:
                        heappush(heap, (cost, j))
                        continue
                else:
                    break
                if not ranked:
                    ranked.append(cost)
                    shape, remaining = [j], masks[j]
                    continue
                if cost == ranked[-1] and (len(ranked) == 1 or not top_two):
                    tied = True
                    if top_two:
                        break
                ranked.append(cost)
                if name == "fp-path":
                    break
                if gone := remaining & ~masks[j]:
                    remaining ^= gone
                    shape += (len(ranked) - 1, gone)
                    if not remaining:
                        break
            # A top-two tie scores None first; a ranking that runs out goes to
            # the reference, which raises; only then does any other tie.
            if tied and (top_two or not remaining):
                emit(None)
                continue
            if remaining and name != "fp-path":
                self.reference({a: Fraction(b, self.scale) for a, b in zip(self.agents, bids)})
                raise AssertionError("the reference priced a profile with a cut winner")
            key = tuple(shape)
            grouped = shapes.get(key)
            if grouped is None:
                grouped = shapes[key] = self._shape(shape)
            pay, _ = _price(spec, bids, ranked, grouped[0])
            utilities = [0] * m
            for i, amount in pay.items():
                utilities[i] = amount - true_scaled[i]
            emit(_Outcome(tuple(utilities), -sum(pay.values()), grouped[1]))
        return outcomes

    def _shape(self, shape: list[int]) -> tuple[tuple, frozenset[str]]:
        """The winners of a ranking shape, [first path, rank, absent winners'
        mask, rank, mask, ...], grouped for _price, and their selected set."""
        winners = self.owners[shape[0]]
        group_of = dict.fromkeys(winners, 0)
        for rank, gone in zip(shape[1::2], shape[2::2]):
            for i in winners:
                if gone >> i & 1:
                    group_of[i] = rank
        return _grouped(group_of), frozenset(map(self.agents.__getitem__, winners))


def _compile(
    game, agents: tuple[str, ...], values: tuple[tuple[Fraction, ...], ...]
) -> _PathTable | None:
    """The compiled path table of `game`, or None where only MechanismSpec.run applies.

    Compiled: a PathGame of any path rule, on a network within
    ENUMERATION_EDGE_GUARD in which each agent owns one edge and some
    path joins source to sink, with strictly positive bids. Everything
    else, including bids the reference rejects, runs the reference; a
    spec's own fields were checked when it was built.
    """
    if not isinstance(game, PathGame) or game.spec.mechanism.endswith("-single"):
        return None
    network = game.network
    if len(network.edges) > ENUMERATION_EDGE_GUARD:
        return None
    if len({e.owner for e in network.edges}) != len(network.edges):
        return None
    if any(v <= 0 for vs in values for v in vs):
        return None
    # The walk ignores costs; the routes' order is set here.
    walk = _walk_all(network, dict.fromkeys(agents, 0), frozenset(), frozenset(), network.source)
    routes = sorted(walk, key=lambda route: route[1])
    if not routes:
        return None
    index = {a: i for i, a in enumerate(agents)}
    owners = tuple(tuple(map(index.__getitem__, route[2])) for route in routes)
    true_cost = tuple(network.true_cost[a] for a in agents)
    return _PathTable(game, agents, values, true_cost, owners)


def _run_profile(run, agents: tuple[str, ...], bids: tuple) -> _Outcome | None:
    """The reference pricer: a game's `run` on one bid tuple in `agents` order."""
    try:
        result = run(dict(zip(agents, bids)))
    except TieError:
        return None
    utilities = tuple(result.utilities[a] for a in agents)
    return _Outcome(utilities, result.mechanism_utility, frozenset(result.selected))


class _Evaluator:
    """The outcomes of every profile of one game's grid, priced when built,
    once the grid has passed the product guard.

    A profile is a tuple of positions aligned with the sorted agent order;
    entry i indexes `values[i]`, agent i's grid bids. `outcomes` lists the
    outcomes in product order, profile p at sum(p[i] * strides[i]), and
    `section` reads it at one agent's bid by stride. None marks a profile
    that violates the mechanism's preconditions (a cost tie). The compiled
    path table prices the games it covers, the game's own `run` all others.

    Outcome money is in units of 1/`scale`: the table's scale, or 1 (the
    run's own Fractions). Comparisons within one evaluator need no
    conversion; a value handed to a caller converts back as
    `Fraction(u) / scale`.
    """

    def __init__(self, game, grid: BidGrid):
        _require_cover(game, grid)
        _require_enumerable(grid.product_size())
        self.game = game
        self.agents: tuple[str, ...] = grid.agents
        self.index = {a: i for i, a in enumerate(self.agents)}
        self.values = tuple(grid.bids_for[a] for a in self.agents)
        self.sizes = tuple(map(len, self.values))
        self.strides = tuple(math.prod(self.sizes[i + 1 :]) for i in range(len(self.sizes)))
        self._table = _compile(game, self.agents, self.values)
        if self._table is None:
            self.scale = 1
            price = functools.partial(_run_profile, game.run, self.agents)
            self.outcomes = list(map(price, itertools.product(*self.values)))
        else:
            self.scale = self._table.scale
            self.outcomes = self._table.outcomes()

    def bids(self, profile: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(vs[p] for vs, p in zip(self.values, profile))

    def opponent_bids(self, agent: str, opponents: tuple[int, ...]) -> tuple[Fraction, ...]:
        others = [vs for a, vs in zip(self.agents, self.values) if a != agent]
        return tuple(vs[p] for vs, p in zip(others, opponents))

    def section(self, agent: str, pos: int) -> list[_Outcome | None]:
        """The outcomes with `agent` at `pos`, in opponent-product order."""
        i = self.index[agent]
        outcomes, stride = self.outcomes, self.strides[i]
        block = stride * self.sizes[i]
        if stride == 1:
            return outcomes[pos::block]
        starts = range(pos * stride, len(outcomes), block)
        return list(itertools.chain.from_iterable(outcomes[s : s + stride] for s in starts))

    def profiles(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*map(range, self.sizes))

    def opponent_profiles(self, agent: str) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(n) for a, n in zip(self.agents, self.sizes) if a != agent))


def _line(grid: BidGrid, fixed: Mapping[str, Fraction]) -> BidGrid:
    """`grid` with each agent in `fixed` narrowed to its one bid there."""
    return BidGrid({**grid.bids_for, **{a: (b,) for a, b in fixed.items()}})


# ---------------------------------------------------------------------------
# Selection probability and best responses
# ---------------------------------------------------------------------------


def selection_probability(game, grid: BidGrid, agent: str, bid: Fraction) -> Fraction:
    """Fraction of admissible opponent profiles under which `agent` is selected.

    Opponent profiles are weighted uniformly; profiles whose completed bid
    vector violates the mechanism's preconditions are excluded from the
    count entirely.
    """
    _require_cover(game, grid)
    ev = _Evaluator(game, _line(grid, {agent: bid}))
    return _selection_probability(agent, ev.outcomes)


def _selection_probability(agent: str, outcomes: Iterable[_Outcome | None]) -> Fraction:
    admissible = 0
    selected = 0
    for out in outcomes:
        if out is None:
            continue
        admissible += 1
        if agent in out.selected:
            selected += 1
    if admissible == 0:
        return Fraction(0)
    return Fraction(selected, admissible)


def best_response_set(
    game, grid: BidGrid, agent: str, opponent_profile: Mapping[str, Fraction]
) -> set[Fraction]:
    """All grid bids maximizing the agent's utility against one fixed profile.

    Profiles that hit a cost tie score as "not selected, utility 0".
    """
    _require_cover(game, grid)
    others = tuple(a for a in grid.agents if a != agent)
    if set(opponent_profile) != set(others):
        raise ValueError("opponent profile must cover exactly the other agents")
    for other in others:
        if opponent_profile[other] not in grid.bids_for[other]:
            raise ValueError(f"bid {opponent_profile[other]} for {other} is off the grid")
    ev = _Evaluator(game, _line(grid, opponent_profile))
    i = ev.index[agent]
    utilities = {
        bid: 0 if out is None else out.utilities[i]
        for bid, out in zip(grid.bids_for[agent], ev.outcomes)
    }
    best = max(utilities.values())
    return {bid for bid, u in utilities.items() if u == best}


def _utilities(ev: _Evaluator, agent: str, pos: int) -> tuple:
    """The agent's utility at `pos` over the ordered opponent product; a tie scores 0."""
    i = ev.index[agent]
    return tuple(0 if out is None else out.utilities[i] for out in ev.section(agent, pos))


def _utility_vectors(ev: _Evaluator, agent: str) -> list[tuple]:
    """Utility vector per grid position over the full ordered opponent product."""
    return [_utilities(ev, agent, pos) for pos in range(ev.sizes[ev.index[agent]])]


def _optimal_positions(ev: _Evaluator, agent: str, mode: str) -> tuple[int, ...]:
    vectors = _utility_vectors(ev, agent)
    own = range(len(vectors))

    best_anywhere: set[int] = set()
    best_everywhere: set[int] = set(own)
    for column in zip(*vectors):
        column_best = max(column)
        winners = {pos for pos, u in enumerate(column) if u == column_best}
        best_anywhere |= winners
        best_everywhere &= winners

    if mode == "all":
        return tuple(sorted(best_anywhere))

    base = best_everywhere if mode == "dominant" else best_anywhere
    survivors = [
        pos
        for pos in sorted(base)
        if not any(_dominates(vectors[other], vectors[pos]) for other in own if other != pos)
    ]

    # Bids whose utility vectors are exactly equal are interchangeable on
    # the grid; a rational risk-averse agent resolves the indifference
    # toward the truthful bid, so each equal class keeps only its member
    # closest to the true type.
    truthful = ev.game.types[agent]
    values = ev.values[ev.index[agent]]
    by_vector: dict[tuple, list[int]] = {}
    for pos in survivors:
        by_vector.setdefault(vectors[pos], []).append(pos)
    kept = [
        min(group, key=lambda p: (abs(values[p] - truthful), p)) for group in by_vector.values()
    ]
    return tuple(sorted(kept))


def _dominates(left: tuple, right: tuple) -> bool:
    """Weak dominance: at least as good everywhere, strictly better somewhere."""
    strict = False
    for lv, rv in zip(left, right):
        if lv < rv:
            return False
        if lv > rv:
            strict = True
    return strict


def agent_optimal_bids(
    game, grid: BidGrid, agent: str, mode: str = "undominated"
) -> tuple[Fraction, ...]:
    """The agent's rational bid set under the chosen refinement.

    "all": every bid that is a best response to at least one opponent
    profile. "undominated": those of them not weakly dominated by another
    grid bid, with exact-tie indifference resolved toward the truthful
    bid. "dominant": bids that are best responses to every profile, same
    indifference resolution.
    """
    if mode not in MODES:
        raise ValueError(f"unknown strategy mode {mode!r}")
    ev = _Evaluator(game, grid)
    return tuple(grid.bids_for[agent][p] for p in _optimal_positions(ev, agent, mode))


# ---------------------------------------------------------------------------
# Profile sets and the alignment report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    """Agent-optimal and mechanism-optimal bid sets for one instance."""

    agents: tuple[str, ...]
    mode: str
    grid: dict[str, tuple[Fraction, ...]]
    agent_optimal: dict[str, tuple[Fraction, ...]]
    joint_optimal: tuple[tuple[Fraction, ...], ...]
    mechanism_optimal: tuple[tuple[Fraction, ...], ...]
    aligned: tuple[tuple[Fraction, ...], ...]
    verdict: str  # "nonempty" | "empty" | "inadmissible"

    def profile_dicts(self, which: str) -> list[dict[str, str]]:
        profiles = getattr(self, which)
        return [
            {a: format_cost(v) for a, v in zip(self.agents, profile)}
            for profile in profiles
        ]

    def to_json_dict(self) -> dict:
        return {
            "agents": list(self.agents),
            "mode": self.mode,
            "grid": {a: [format_cost(v) for v in g] for a, g in sorted(self.grid.items())},
            "obs": {
                a: [format_cost(v) for v in bids]
                for a, bids in sorted(self.agent_optimal.items())
            },
            "oab": self.profile_dicts("joint_optimal"),
            "aes": self.profile_dicts("mechanism_optimal"),
            "ioa": self.profile_dicts("aligned"),
            "verdict": self.verdict,
        }


def _joint_optimal(
    ev: _Evaluator, per_agent: Mapping[str, tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """The admissible profiles of the per-agent positions' product, in lexicographic order."""
    outcomes, strides = ev.outcomes, ev.strides
    product = itertools.product(*(per_agent[a] for a in ev.agents))
    return tuple(p for p in product if outcomes[sum(map(int.__mul__, p, strides))] is not None)


def mechanism_optimal_profiles(game, grid: BidGrid) -> tuple[tuple[Fraction, ...], ...]:
    """Admissible profiles maximizing the mechanism's own utility, exactly."""
    ev = _Evaluator(game, grid)
    return tuple(map(ev.bids, _mechanism_optimal(ev)))


def _mechanism_optimal(ev: _Evaluator) -> tuple[tuple[int, ...], ...]:
    best = None
    argmax: list[tuple[int, ...]] = []
    for profile, out in zip(ev.profiles(), ev.outcomes):
        if out is None:
            continue
        if best is None or out.mechanism_utility > best:
            best = out.mechanism_utility
            argmax = [profile]
        elif out.mechanism_utility == best:
            argmax.append(profile)
    return tuple(sorted(argmax))


def alignment_report(game, grid: BidGrid, mode: str = "undominated") -> ConsistencyReport:
    """Full report: per-agent sets, their product, the mechanism's argmax,
    and the intersection of the two profile sets."""
    if mode not in MODES:
        raise ValueError(f"unknown strategy mode {mode!r}")
    ev = _Evaluator(game, grid)
    per_agent = {a: _optimal_positions(ev, a, mode) for a in ev.agents}
    joint = _joint_optimal(ev, per_agent)
    mech = _mechanism_optimal(ev)
    aligned = tuple(sorted(set(joint) & set(mech)))
    if not mech and not joint:
        verdict = "inadmissible"
    else:
        verdict = "nonempty" if aligned else "empty"
    # Grid positions sort as their bids do, so the orders carry over.
    return ConsistencyReport(
        agents=ev.agents,
        mode=mode,
        grid={a: grid.bids_for[a] for a in ev.agents},
        agent_optimal={
            a: tuple(ev.values[ev.index[a]][p] for p in per_agent[a]) for a in ev.agents
        },
        joint_optimal=tuple(map(ev.bids, joint)),
        mechanism_optimal=tuple(map(ev.bids, mech)),
        aligned=tuple(map(ev.bids, aligned)),
        verdict=verdict,
    )


@dataclass(frozen=True)
class ClassificationResult:
    """Verdict over a finite suite of instances, with per-instance reports.

    The verdict is relative to the supplied instances: enumeration cannot
    decide a claim quantified over all possible situations.
    """

    verdict: str
    reports: tuple[ConsistencyReport, ...]


def classify_consistency(
    instances: Sequence[tuple[object, BidGrid]], mode: str = "undominated"
) -> ClassificationResult:
    """Classify a mechanism over a suite of (game, grid) instances.

    impossible-consistent: alignment empty on every instance.
    partially-consistent: empty on some instances, nonempty on others.
    consistent: nonempty on every instance.
    strongly-consistent: consistent, and on every instance the alignment
    equals the agents' set or the mechanism's set outright.
    """
    if not instances:
        raise ValueError("need at least one instance")
    reports = tuple(alignment_report(game, grid, mode) for game, grid in instances)
    if any(r.verdict == "inadmissible" for r in reports):
        raise ValueError("an instance admitted no tie-free profile at all")
    empty = [r.verdict == "empty" for r in reports]
    if all(empty):
        verdict = "impossible-consistent"
    elif any(empty):
        verdict = "partially-consistent"
    else:
        verdict = "consistent"
        if all(
            r.aligned == r.joint_optimal or r.aligned == r.mechanism_optimal
            for r in reports
        ):
            verdict = "strongly-consistent"
    return ClassificationResult(verdict=verdict, reports=reports)


# ---------------------------------------------------------------------------
# Property checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    name: str
    verdict: str  # "holds" | "fails" | "holds-budget-exhausted"
    witnesses: tuple = ()
    counterexamples: tuple = ()
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict != "fails"


def check_partly_truthful(game, grid: BidGrid) -> PropertyReport:
    """Three conditions per agent: the truthful bid maximizes selection
    probability, selection probability never rises with the bid, and any
    selected agent earns strictly positive utility."""
    ev = _Evaluator(game, grid)
    counterexamples: list[tuple] = []
    for agent in ev.agents:
        truthful = game.types[agent]
        own = grid.bids_for[agent]
        probs = [_selection_probability(agent, ev.section(agent, pos)) for pos in range(len(own))]
        if truthful not in own or probs[own.index(truthful)] != max(probs):
            counterexamples.append(
                ("selection probability not maximal at truthful bid", agent)
            )
        for pos in range(len(own) - 1):
            if probs[pos + 1] > probs[pos]:
                counterexamples.append(
                    ("selection probability rises with the bid", agent, own[pos], own[pos + 1])
                )
    for profile, out in zip(ev.profiles(), ev.outcomes):
        if out is None:
            continue
        for agent in sorted(out.selected):
            u = out.utilities[ev.index[agent]]
            if u <= 0:
                counterexamples.append(
                    (
                        "selected agent with nonpositive utility",
                        agent,
                        ev.bids(profile),
                        Fraction(u) / ev.scale,
                    )
                )
    verdict = "holds" if not counterexamples else "fails"
    return PropertyReport(
        name="partly-truthful", verdict=verdict, counterexamples=tuple(counterexamples)
    )


def check_critical(
    network: Network,
    spec: MechanismSpec,
    bids: Mapping[str, Fraction] | None = None,
    unit: Fraction = Fraction(1),
) -> PropertyReport:
    """Is the mechanism's total spend pinned down to within one unit?

    Holds when exactly one path is affordable at one unit below the total
    paid, while the total itself leaves at least two options open.
    """
    resolved = _resolve_bids(network, bids)
    result = spec.run(network, resolved)
    every = enumerate_paths(network, resolved)
    at_total = [p for p in every if p.cost <= result.total]
    just_below = [p for p in every if p.cost <= result.total - unit]
    ok = len(just_below) == 1 and len(at_total) >= 2
    rows = tuple((p.edges, p.cost) for p in at_total)
    return PropertyReport(
        name="critical",
        verdict="holds" if ok else "fails",
        witnesses=rows if ok else (),
        counterexamples=() if ok else rows,
        detail=(
            f"total {format_cost(result.total)}: {len(at_total)} paths affordable, "
            f"{len(just_below)} at one unit less"
        ),
    )


def check_strongly_critical(
    network: Network,
    bids: Mapping[str, Fraction] | None = None,
    rule: DistributionRule = EQUAL_SPLIT,
    unit: Fraction = Fraction(1),
) -> PropertyReport:
    """Exact per-prefix criticality of the group-sharing payments.

    For every prefix of present groups, the prefix's aggregate payment
    must equal the cost of its substitute path minus the bids of the
    remaining cheapest-path agents, and one more unit must make that
    substitute affordable.
    """
    resolved = _resolve_bids(network, bids)
    ranked, assignment = _group_structure(network, resolved)
    costs = ranked.costs
    pay, _ = _price(MechanismSpec("x", rule=rule), resolved, costs, _grouped(assignment.group_of))
    rows = []
    failures = []
    for j, q in enumerate(assignment.present_groups):
        prefix_groups = assignment.present_groups[: j + 1]
        prefix_agents = [a for a, g in assignment.group_of.items() if g in prefix_groups]
        beyond_agents = [a for a in assignment.group_of if a not in prefix_agents]
        lhs = sum((pay[a] for a in prefix_agents), Fraction(0))
        beyond_bids = sum((resolved[a] for a in beyond_agents), Fraction(0))
        rhs = costs[q] - beyond_bids
        substitute_affordable = costs[q] <= lhs + unit + beyond_bids
        rows.append((q, lhs, rhs))
        if lhs != rhs or not substitute_affordable:
            failures.append((q, lhs, rhs))
    return PropertyReport(
        name="strongly-critical",
        verdict="holds" if not failures else "fails",
        witnesses=tuple(rows),
        counterexamples=tuple(failures),
    )


def check_group_truthfulness(
    network: Network,
    bids: Mapping[str, Fraction] | None = None,
    rule: DistributionRule = EQUAL_SPLIT,
    trials: int = 50,
    seed: int = 0,
) -> PropertyReport:
    """Random within-group bid changes that provably keep the path ranking
    fixed must leave that group's total payment unchanged.

    The paths are enumerated once; each trial re-costs them and rejects, as
    no evidence, a change that moves their order, ties two ranks x reads or
    makes a bid nonpositive. The trials price in integers, in one unit per
    call, at which every bid, drawn change and group mean is whole; the
    rows of a counterexample convert back to Fractions. The verdict is
    budget-relative: it reports no counterexample found within the accepted
    trials. More than 10,000 trials raise TooLarge before any path is listed.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if trials > _TRIALS_GUARD:
        raise TooLarge(f"{trials} trials exceed the trials guard of {_TRIALS_GUARD}")
    resolved = _resolve_bids(network, bids)
    ranked, assignment = _group_structure(network, resolved)
    grouped = _grouped(assignment.group_of)
    groups = dict(grouped)
    # Each trial's delta k/d, d in 2..5, is a whole number of units, and
    # so is a delta's mean over any present group.
    factor = 60 * math.lcm(*range(1, max(map(len, groups.values())) + 1))
    scale, spec = _unit_scale(MechanismSpec("x", rule=rule), resolved.values(), factor)
    units = {agent: _units(v, scale) for agent, v in resolved.items()}
    prefix = assignment.max_group + 1
    base, _ = _price(spec, units, [_units(c, scale) for c in ranked.costs], grouped)
    before = {q: sum(base[a] for a in members) for q, members in groups.items()}
    paths = [(p.edges, p.owners) for p in enumerate_paths(network, resolved)]
    rng = random.Random(seed)
    accepted = 0
    counterexamples = []
    for _ in range(trials):
        q = rng.choice(assignment.present_groups)
        members = groups[q]
        # Drawn k first, then d, as Fraction(randint, choice) draws them.
        deltas = [rng.randint(-3, 3) * (scale // rng.choice((2, 3, 4, 5))) for _ in members]
        if len(members) > 1 and rng.random() < 0.5:
            # Sum-preserving shuffles inside the group keep the winning
            # path's cost fixed and survive re-ranking far more often.
            mean = sum(deltas) // len(members)
            deltas = [d - mean for d in deltas]
        perturbed = dict(units)
        for agent, d in zip(members, deltas):
            perturbed[agent] += d
        if any(perturbed[agent] <= 0 for agent in members):
            continue
        keys = [(sum(map(perturbed.__getitem__, owners)), edges) for edges, owners in paths]
        costs = [cost for cost, _ in keys[:prefix]]
        if any(a > b for a, b in zip(keys, keys[1:])) or len(set(costs)) < len(costs):
            continue  # The order, and with it the groups, moved; or ranks x reads tie.
        pay, _ = _price(spec, perturbed, costs, grouped)
        accepted += 1
        after = sum(pay[a] for a in members)
        if before[q] != after:
            trial_bids = {**resolved, **{a: Fraction(perturbed[a], scale) for a in members}}
            counterexamples.append(
                (q, trial_bids, Fraction(before[q]) / scale, Fraction(after) / scale)
            )
    verdict = "fails" if counterexamples else "holds-budget-exhausted"
    return PropertyReport(
        name="group-truthful",
        verdict=verdict,
        counterexamples=tuple(counterexamples),
        detail=f"{accepted} ranking-preserving perturbations accepted of {trials} trials",
    )


def check_vcg_truthful(game, grid: BidGrid) -> PropertyReport:
    """Exhaustively confirm the truthful bid is a best response everywhere."""
    ev = _Evaluator(game, grid)
    counterexamples = []
    for agent in ev.agents:
        own, truthful = grid.bids_for[agent], game.types[agent]
        vectors = _utility_vectors(ev, agent)
        if truthful in own:
            honest = vectors[own.index(truthful)]
        else:
            # The truthful bid's own line grid, its money converted to ev's units.
            line = _Evaluator(game, _line(grid, {agent: truthful}))
            honest = [Fraction(u * ev.scale, line.scale) for u in _utilities(line, agent, 0)]
        for opponents, truthful_u, *row in zip(ev.opponent_profiles(agent), honest, *vectors):
            for bid, u in zip(own, row):
                if u > truthful_u:
                    counterexamples.append((agent, bid, ev.opponent_bids(agent, opponents)))
    return PropertyReport(
        name="vcg-truthful",
        verdict="holds" if not counterexamples else "fails",
        counterexamples=tuple(counterexamples),
    )


def check_degenerate_vickrey(
    network: Network, bids: Mapping[str, Fraction] | None = None
) -> PropertyReport:
    """On a network whose cheapest path is a single edge, group sharing,
    marginal pricing and a reverse second-price award must coincide."""
    resolved = _resolve_bids(network, bids)
    ranked, assignment = _group_structure(network, resolved)
    chosen = ranked.paths[0]
    if len(chosen.edges) != 1:
        return PropertyReport(
            name="degenerate-vickrey",
            verdict="fails",
            detail="cheapest path is not a single edge",
        )
    winner = chosen.owners[0]
    grouped = _grouped(assignment.group_of)
    shared = _price(MechanismSpec("x"), resolved, ranked.costs, grouped)[0][winner]
    marginal = _price(MechanismSpec("vcg"), resolved, ranked.costs, grouped)[0][winner]
    runner_up = ranked.costs[1]
    ok = shared == marginal and shared == runner_up
    return PropertyReport(
        name="degenerate-vickrey",
        verdict="holds" if ok else "fails",
        witnesses=((winner, shared, runner_up),),
        detail=f"winner {winner} paid {format_cost(shared)}",
    )


# ---------------------------------------------------------------------------
# Random instance generation
# ---------------------------------------------------------------------------


def random_network(
    seed: int,
    node_budget: int = 8,
    edge_budget: int = 14,
    cost_range: tuple[int, int] = (1, 9),
    max_attempts: int = 400,
) -> Network:
    """A valid random network with pairwise distinct path costs.

    Construction places two node-disjoint source-to-sink chains (so no
    single agent owns a cut) and sprinkles extra edges, then rejection
    samples until validation passes and every enumerated path cost is
    distinct, which keeps every mechanism tie-free at truthful bids.
    Deterministic in `seed`.
    """
    if node_budget < 2 or edge_budget < 2:
        raise ValueError("need room for at least two parallel edges")
    rng = random.Random(seed)
    lo, hi = cost_range
    for _ in range(max_attempts):
        n_inter = rng.randint(0, node_budget - 2)
        inter = [f"m{i}" for i in range(1, n_inter + 1)]
        k1 = rng.randint(0, min(3, n_inter, edge_budget - 2))
        k2 = rng.randint(0, min(3, n_inter - k1, edge_budget - k1 - 2))
        chain1 = inter[:k1]
        chain2 = inter[k1 : k1 + k2]
        rows: list[tuple[str, str]] = []
        for chain in (chain1, chain2):
            seq = ["src"] + chain + ["dst"]
            rows.extend(zip(seq, seq[1:]))
        used = ["src", "dst"] + chain1 + chain2
        extra = rng.randint(0, edge_budget - len(rows))
        tails = [n for n in used if n != "dst"]
        for _ in range(extra):
            tail = rng.choice(tails)
            heads = [n for n in used if n not in ("src", tail)]
            rows.append((tail, rng.choice(heads)))
        edges = tuple(
            Edge(f"e{i:02d}", tail, head, f"e{i:02d}") for i, (tail, head) in enumerate(rows)
        )
        costs = {e.id: Fraction(rng.randint(lo, hi)) for e in edges}
        candidate = Network(
            nodes=tuple(sorted(set(used))),
            edges=edges,
            source="src",
            sink="dst",
            true_cost=costs,
            bid=dict(costs),
        )
        if validate(candidate):
            continue
        try:
            ranked = enumerate_paths(candidate, candidate.true_cost)
        except (TooLarge, Disconnected):
            continue
        cost_list = ranked.costs
        if len(set(cost_list)) != len(cost_list):
            continue
        return candidate
    raise GenerationFailed(f"no valid instance within {max_attempts} attempts (seed {seed})")
