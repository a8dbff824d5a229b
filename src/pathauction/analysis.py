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
PROFILE_GUARD: every profile once, in one pass, into columns read by
stride (see _Evaluator). A query that reads one line of a grid prices
the grid that is that line, the fixed agents narrowed to one bid. A
PathGame on a network within ENUMERATION_EDGE_GUARD is compiled once per
grid: its loopless paths are listed a single time, and one loop of the table
prices the whole grid, in lines along the agent with the most grid bids:
on a line each path the scan reaches is summed once. A profile ranks the
paths lazily, only as deep as its rule reads, checking ties as it ranks.
Agents on exactly the same paths form a series class and enter every
path cost through their sum, so where some class holds two or more
agents each vector of class sums is ranked once per call. The winners
are grouped once per ranking shape. The payment formulas
MechanismSpec.run uses (mechanisms._price) price each distinct (shape,
gaps of the ranked costs to the cheapest) once per call where the rule's
profits read neither the bids nor the cheapest cost; tradeoff1's branch
reads that cost at a positive threshold, so there it keys by it too, and
where the profits read the bids each distinct (shape, gaps, winners'
bids) is priced once. Nothing is cached across calls.
Single-item games and networks past the edge guard run the game's own
`run` per profile; that path is also the reference the compiled one is
tested against. Input is checked where it enters: a Network holds every
structural rule from construction; a PathGame refuses a single-item rule
and any network `validate` rejects (disconnected, or an agent owns a
cut), so no winner owns a cut and the table's ranking never runs out; a
BidGrid refuses a nonpositive bid.

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
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from operator import eq, ge, gt, itemgetter, or_
from typing import Iterator, Mapping, Sequence

from .errors import (
    Disconnected,
    GenerationFailed,
    GridTooLarge,
    TieError,
    TooLarge,
)
from .graph import ENUMERATION_EDGE_GUARD, Edge, Network, enumerate_paths, validate
from .graph import _scaled_costs, _walk_all
from .mechanisms import (
    EQUAL_SPLIT,
    DistributionRule,
    MechanismSpec,
    PaymentResult,
    _check_bids,
    _group_structure,
    _grouped,
    _price,
    _profits_bid_free,
    _ranked_groups,
    _resolve_bids,
    _run_single_item,
    _unit_scale,
    _units,
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
        _check_bids(bids, self.types, "auction's bidders")
        return _run_single_item(self.spec, bids, self.types)


@dataclass(frozen=True)
class PathGame:
    """A path mechanism played on a fixed network (procurement side).

    `spec` names a path mechanism, as SingleItemGame's names a single-item
    one, and the network keeps every model rule. A Network already holds
    every structural rule; the game raises ValueError with the first
    reachability violation `validate` reports, so some path joins source to
    sink, no agent owns a cut and every winner has a detour.
    """

    network: Network
    spec: MechanismSpec = MechanismSpec("x")

    def __post_init__(self) -> None:
        if self.spec.mechanism.endswith("-single"):
            raise ValueError(f"{self.spec.mechanism!r} is not a path mechanism")
        if violations := validate(self.network):
            raise ValueError(str(violations[0]))

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
    """A finite, strictly increasing list of positive bids per agent.

    No agent may have more than PROFILE_GUARD bids: every evaluator builds
    state for each of them, and best_response_set prices them all. The
    constructors raise GridTooLarge before building any bid. A nonpositive
    bid is refused here, as MechanismSpec.run refuses it, so no evaluator
    prices one.
    """

    bids_for: dict[str, tuple[Fraction, ...]]

    def __post_init__(self) -> None:
        for agent, bids in self.bids_for.items():
            if not bids:
                raise ValueError(f"empty grid for agent {agent}")
            _require_grid_size(len(bids))
            if any(b2 <= b1 for b1, b2 in zip(bids, bids[1:])):
                raise ValueError(f"grid for agent {agent} must be strictly increasing")
            if bids[0] <= 0:
                raise ValueError(f"nonpositive bid for {agent}")

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


def _require_cover(game, grid: BidGrid, agent: str | None = None) -> None:
    """ValueError unless `grid` covers exactly the game's agents, `agent` among them."""
    if set(grid.agents) != set(game.agents):
        raise ValueError("grid must cover exactly the game's agents")
    if agent is not None and agent not in grid.bids_for:
        raise ValueError(f"unknown agent {agent!r}")


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


# The class-sum memo's answer for a vector of class sums not yet ranked.
_UNRANKED = (False, 0)


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

    `fill` prices every profile of the grid in one loop, into _Evaluator's
    columns. It ranks until every winner has been absent once (fp-path
    stops at two) and compares each rank with the one before it as it is
    ranked. A tie the rule reads (of the two cheapest paths for fp-path and
    vcg, anywhere in the prefix for the group rules) ends the ranking and
    leaves the profile's prefilled tie entries, the run's TieError. The
    ranking never runs out: a PathGame's network has no cut, so every
    winner is absent from some path. The ranking keeps each ranked cost as
    its gap to the cheapest one, `low`, and its key is one flat tuple,
    (shape length, *shape, *gaps), where the shape is its first path and
    each winner's first absence. For tradeoff1 at a positive threshold the
    first gap, always 0, is replaced by `low` itself. The shape keys
    `shapes`, which holds the winners grouped as mechanisms._price reads
    them (agent positions for keys) and their selected mask, built the
    first time the shape is priced. Every rule pays a winner its bid plus a cost gap or a share of
    one, and the winners' bids sum to `low`. So where the profits are
    bid-free (mechanisms._profits_bid_free: every rule but the
    reverse-rank, waterfall and compound splits of x and tradeoff1) they
    read only the shape and the gaps; tradeoff1's branch at a positive
    threshold compares the saving with the marginal total and reads `low`
    too, hence its key. At threshold 0 the branch is `saving > 0`, which
    the gaps alone fix. `fill` keeps one record per distinct key for its
    own call, and for a bid-free rule the record is the outcome, priced once by _price, the formulas MechanismSpec.run
    uses, at the real costs (`low` plus the gaps) and the bids of the
    first profile with that key: per winner its utility column and its
    profit less its true cost, the mechanism's utility plus `low`, and the
    selected mask. The other rules read the winners' bids, which fix `low`,
    so their record holds the key and a dict from the winners' bids to the
    outcome, and each distinct (key, winners' bids) is priced once. Every
    profile writes its winners' utilities, each its bid plus that constant,
    and the mechanism's utility less its own `low`, and shares the mask.

    `fill` walks the grid in lines along the line agent, the agent with the
    most grid bids (the last such, so a procurement grid's lines run at
    stride 1). On a line every other bid is fixed, so each path the scan
    reaches is summed once per line, at the line agent's least bid; a path
    the line agent lies on costs that sum plus the bid's lift over the
    least one. Agents that lie on exactly the same paths (a series class:
    the series edges a series-parallel reduction merges, or any agents with
    one path set) enter every path cost through their sum alone, so the
    vector of class sums decides the ranking. When some class holds two or
    more agents, `fill` keeps a second dict for its own call, from the
    sums of the classes off the line (summed once per line) to a dict from
    the line class's sum to the ranking's record and `low`, the record None
    for a tie the rule reads, and ranks each vector once; a hit hashes one
    int. The classes are found when the table is built, by splitting the
    agents on some path by each path in scan order; agents on no path
    belong to no class. Nothing is cached across calls.

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
        values: tuple[tuple[Fraction, ...], ...],
        true_cost: tuple[Fraction, ...],
        paths: tuple[tuple[int, ...], ...],
    ):
        self.owners = paths
        bits = [1 << i for i in range(len(values))]
        self.masks = [sum(map(bits.__getitem__, owners)) for owners in paths]
        # Per path, its owners' bids in a profile: a tuple, or one bid alone.
        self.winner_bids = [itemgetter(*owners) for owners in paths]
        # Per ranking shape priced so far, its winners grouped and its selected mask.
        self.shapes: dict[tuple, tuple[tuple, int]] = {}
        self.mechanism = game.spec.mechanism
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
        line = max(range(len(values)), key=lambda i: (len(values[i]), i))
        self.line = line
        # Per scan position, 1 when the line agent lies on the path, else 0;
        # per line bid, its lift over the least one (0 on no path).
        scanned = [self.masks[j] for j in self.scan]
        whole = functools.reduce(or_, scanned)
        self.lifted = [mask >> line & 1 for mask in scanned]
        self.lifts = [(b - least[line]) * (whole >> line & 1) for b in self.scaled[line]]
        # The series classes, as agent masks: the agents on some path, split by
        # each path in scan order into those on it and those off it. A
        # one-agent class cannot split, so the walk ends once every class has
        # one agent, often within the first scanned paths.
        classes, unsplit = [], [whole]
        for mask in scanned:
            if not unsplit:
                break
            parts = []
            for members in unsplit:
                inside = members & mask
                if inside and inside != members:
                    parts += (inside, members ^ inside)
                else:
                    parts.append(members)
            classes += [c for c in parts if not c & (c - 1)]
            unsplit = [c for c in parts if c & (c - 1)]
        # The line agent's class and the others, as agent positions; None
        # when every class has one agent.
        self.classes = None
        if unsplit:
            agents = range(len(values))
            members = [tuple(i for i in agents if c >> i & 1) for c in classes + unsplit]
            self.classes = (
                next((c for c in members if line in c), ()),
                tuple(c for c in members if line not in c),
            )

    def fill(self, utilities: list[list], mechanism: list, selected: list[int]) -> None:
        """Price every profile of the scaled grid, line by line, into the columns."""
        owners, masks, scan, bounds = self.owners, self.masks, self.scan, self.bounds
        winner_bids, lifted, lifts = self.winner_bids, self.lifted, self.lifts
        name = self.mechanism
        top_two = name in ("fp-path", "vcg")
        bid_free = _profits_bid_free(self.spec)
        by_low = name == "tradeoff1" and bool(self.spec.threshold)
        values, line = self.scaled, self.line
        before_line, after_line = values[:line], values[line + 1 :]
        stride = math.prod(map(len, after_line))
        block = stride * len(values[line])
        line_bids = [(b,) for b in values[line]]
        # Per off-line class sums ranked so far, per line class sum: the
        # ranking's record (None on a tie) and its cheapest cost.
        rankings = None if self.classes is None else {}
        line_class, off_classes = self.classes or ((), ())
        # Per distinct ranking key, its record: the outcome, where the
        # profits are bid-free; else (key, {winners' bids: outcome}).
        records: dict[tuple, tuple] = {}
        for h, before in enumerate(itertools.product(*before_line)):
            for k, after in enumerate(itertools.product(*after_line)):
                bid_of = (before + line_bids[0] + after).__getitem__
                # Per scan position reached on this line, its path's cost at
                # the least line bid.
                sums: list[int] = []
                reached = 0
                if rankings is not None:
                    off = tuple([sum(map(bid_of, c)) for c in off_classes])
                    at_least = sum(map(bid_of, line_class))
                    by_sum = rankings.get(off)
                    if by_sum is None:
                        by_sum = rankings[off] = {}
                p = h * block + k - stride
                for lift, single in zip(lifts, line_bids):
                    p += stride
                    bids = before + single + after
                    record = False
                    if rankings is not None:
                        record, low = by_sum.get(at_least + lift, _UNRANKED)
                    if record is False:
                        heap: list[tuple[int, int]] = []
                        # Each ranked cost's gap to the cheapest, low.
                        ranked: list[int] = []
                        tied = False
                        s = 0
                        while True:
                            if heap:
                                while bounds[s] <= heap[0][0]:
                                    if s == reached:
                                        sums.append(sum(map(bid_of, owners[scan[s]])))
                                        reached += 1
                                    heappush(heap, (sums[s] + lift * lifted[s], scan[s]))
                                    s += 1
                                cost, j = heappop(heap)
                            else:
                                # A path below the next bound ranks at once, without the heap.
                                if s == reached:
                                    sums.append(sum(map(bid_of, owners[scan[s]])))
                                    reached += 1
                                j = scan[s]
                                cost = sums[s] + lift * lifted[s]
                                s += 1
                                if bounds[s] <= cost:
                                    heappush(heap, (cost, j))
                                    continue
                            if not ranked:
                                low = cost
                                ranked.append(0)
                                shape, remaining = [j], masks[j]
                                continue
                            cost -= low
                            if cost == ranked[-1] and (len(ranked) == 1 or not top_two):
                                tied = True
                                break
                            ranked.append(cost)
                            if name == "fp-path":
                                break
                            if gone := remaining & ~masks[j]:
                                remaining ^= gone
                                shape += (len(ranked) - 1, gone)
                                if not remaining:
                                    break
                        record = None
                        if not tied:
                            if by_low:
                                ranked[0] = low
                            ranking = (len(shape), *shape, *ranked)
                            record = records.get(ranking)
                            if record is None:
                                record = records[ranking] = (
                                    self._outcome(ranking, low, bids, utilities)
                                    if bid_free
                                    else (ranking, {})
                                )
                        if rankings is not None:
                            by_sum[at_least + lift] = record, low
                    if record is None:
                        continue
                    outcome = record
                    if not bid_free:
                        ranking, priced = record
                        key = winner_bids[ranking[1]](bids)
                        outcome = priced.get(key)
                        if outcome is None:
                            outcome = priced[key] = self._outcome(ranking, low, bids, utilities)
                    won, spent, selected[p] = outcome
                    mechanism[p] = spent - low
                    for column, i, profit in won:
                        column[p] = bids[i] + profit

    def _outcome(self, ranking: tuple, low: int, bids: tuple, utilities: list[list]) -> tuple:
        """A ranking key's outcome priced at `bids`, whose cheapest path
        costs `low`: per winner its utility column, position and profit less
        true cost, the mechanism's utility plus `low`, and the selected mask."""
        n = ranking[0]
        shape = ranking[1 : n + 1]
        grouped = self.shapes.get(shape)
        if grouped is None:
            grouped = self.shapes[shape] = self._shape(shape)
        costs = [low + gap for gap in ranking[n + 1 :]]
        costs[0] = low  # tradeoff1's key holds low in place of the first gap, 0
        pay, _ = _price(self.spec, bids, costs, grouped[0])
        true_scaled = self.true_scaled
        won = [(utilities[i], i, amount - bids[i] - true_scaled[i]) for i, amount in pay.items()]
        return won, low - sum(pay.values()), grouped[1]

    def _shape(self, shape: tuple[int, ...]) -> tuple[tuple, int]:
        """The winners of a ranking shape, (first path, rank, absent winners'
        mask, rank, mask, ...), grouped for _price, and their selected mask."""
        winners = self.owners[shape[0]]
        group_of = dict.fromkeys(winners, 0)
        for rank, gone in zip(shape[1::2], shape[2::2]):
            for i in winners:
                if gone >> i & 1:
                    group_of[i] = rank
        return _grouped(group_of), self.masks[shape[0]]


def _compile(
    game, agents: tuple[str, ...], values: tuple[tuple[Fraction, ...], ...]
) -> _PathTable | None:
    """The compiled path table of `game`, or None where only MechanismSpec.run applies.

    Compiled: a PathGame on a network within ENUMERATION_EDGE_GUARD. The
    rest was checked where it entered: a PathGame holds a path rule and a
    valid network, a BidGrid positive bids, and a spec its own fields.
    """
    if not isinstance(game, PathGame) or len(game.network.edges) > ENUMERATION_EDGE_GUARD:
        return None
    network = game.network
    # The walk ignores costs. The edge-id sort gives equal-cost paths the
    # ranking's order, which decides whether a rule reads a tie at all.
    walk = _walk_all(network, dict.fromkeys(agents, 0))
    routes = sorted(walk, key=lambda route: route[1])
    index = {a: i for i, a in enumerate(agents)}
    owners = tuple(tuple(map(index.__getitem__, route[2])) for route in routes)
    true_cost = tuple(network.true_cost[a] for a in agents)
    return _PathTable(game, values, true_cost, owners)


class _Evaluator:
    """The outcomes of every profile of one game's grid, priced when built,
    once the grid has passed the product guard.

    A profile is a tuple of positions aligned with the sorted agent order;
    entry i indexes `values[i]`, agent i's grid bids. The outcomes are held
    as columns in product order, profile p at flat index sum(p[i] *
    strides[i]): `utilities[i]`, agent i's utility; `mechanism_utility`,
    the mechanism's, None where the profile violates the mechanism's
    preconditions (a cost tie); and `selected`, a bitmask in which bit i is
    set when agent i is selected. A tie leaves every utility 0 and the mask
    empty, which is how best responses score it. `section` reads a column
    at one agent's bid by stride. The compiled path table fills the columns
    for the games it covers, the game's own `run` for all others.

    Money is in units of 1/`scale`: the table's scale, or 1 (the run's own
    Fractions). Comparisons within one evaluator need no conversion; a
    value handed to a caller converts back as `Fraction(u) / scale`.
    """

    def __init__(self, game, grid: BidGrid):
        _require_cover(game, grid)
        size = grid.product_size()
        _require_enumerable(size)
        self.game = game
        self.agents: tuple[str, ...] = grid.agents
        self.index = {a: i for i, a in enumerate(self.agents)}
        self.values = tuple(grid.bids_for[a] for a in self.agents)
        self.sizes = tuple(map(len, self.values))
        self.strides = tuple(math.prod(self.sizes[i + 1 :]) for i in range(len(self.sizes)))
        self.utilities = [[0] * size for _ in self.agents]
        self.mechanism_utility: list = [None] * size
        self.selected = [0] * size
        self._table = _compile(game, self.agents, self.values)
        if self._table is None:
            self.scale = 1
            self._run_each()
        else:
            self.scale = self._table.scale
            self._table.fill(self.utilities, self.mechanism_utility, self.selected)

    def _run_each(self) -> None:
        """The reference filler: the game's `run` on every profile; a TieError
        leaves a tie."""
        for p, bids in enumerate(itertools.product(*self.values)):
            try:
                result = self.game.run(dict(zip(self.agents, bids)))
            except TieError:
                continue
            for column, agent in zip(self.utilities, self.agents):
                column[p] = result.utilities[agent]
            self.mechanism_utility[p] = result.mechanism_utility
            self.selected[p] = sum(1 << self.index[a] for a in result.selected)

    def bids(self, profile: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(vs[p] for vs, p in zip(self.values, profile))

    def profile(self, k: int) -> tuple[int, ...]:
        """The positions of the profile at flat index `k`."""
        return tuple(k // stride % n for stride, n in zip(self.strides, self.sizes))

    def opponent_bids(self, agent: str, opponents: tuple[int, ...]) -> tuple[Fraction, ...]:
        others = [vs for a, vs in zip(self.agents, self.values) if a != agent]
        return tuple(vs[p] for vs, p in zip(others, opponents))

    def section(self, column: list, agent: str, pos: int) -> list:
        """`column` at the profiles with `agent` at `pos`, in opponent-product order."""
        i = self.index[agent]
        stride = self.strides[i]
        block = stride * self.sizes[i]
        if stride == 1:
            return column[pos::block]
        starts = range(pos * stride, len(column), block)
        return list(itertools.chain.from_iterable(column[s : s + stride] for s in starts))

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
    _require_cover(game, grid, agent)
    ev = _Evaluator(game, _line(grid, {agent: bid}))
    return _selection_probabilities(ev, agent)[0]


def _selection_probabilities(ev: _Evaluator, agent: str) -> list[Fraction]:
    """Per position of `agent`, the share of the tie-free profiles with it
    there that select it.

    The columns hold the profiles at one position in runs of the agent's
    stride, a run per position in each block of stride * (its bid count)
    profiles. The counts are summed over the runs, or, where a block holds
    fewer profiles than the columns hold runs, over the slices that take
    one offset of every block.
    """
    i = ev.index[agent]
    stride, n = ev.strides[i], ev.sizes[i]
    block = stride * n
    size = len(ev.selected)
    if stride * block < size:
        pieces = [(o // stride, slice(o, None, block)) for o in range(block)]
    else:
        pieces = [(r % n, slice(r * stride, (r + 1) * stride)) for r in range(size // stride)]
    bit = 1 << i
    hits = list(map(bit.__and__, ev.selected))
    admissible, selected = [0] * n, [0] * n
    for pos, piece in pieces:
        run = ev.mechanism_utility[piece]
        admissible[pos] += len(run) - run.count(None)
        selected[pos] += hits[piece].count(bit)
    return [Fraction(s, a) if a else Fraction(0) for s, a in zip(selected, admissible)]


def best_response_set(
    game, grid: BidGrid, agent: str, opponent_profile: Mapping[str, Fraction]
) -> set[Fraction]:
    """All grid bids maximizing the agent's utility against one fixed profile.

    Profiles that hit a cost tie score as "not selected, utility 0".
    """
    _require_cover(game, grid, agent)
    others = tuple(a for a in grid.agents if a != agent)
    if set(opponent_profile) != set(others):
        raise ValueError("opponent profile must cover exactly the other agents")
    for other in others:
        if opponent_profile[other] not in grid.bids_for[other]:
            raise ValueError(f"bid {opponent_profile[other]} for {other} is off the grid")
    ev = _Evaluator(game, _line(grid, opponent_profile))
    utilities = dict(zip(grid.bids_for[agent], ev.utilities[ev.index[agent]]))
    best = max(utilities.values())
    return {bid for bid, u in utilities.items() if u == best}


def _utilities(ev: _Evaluator, agent: str, pos: int) -> tuple:
    """The agent's utility at `pos` over the ordered opponent product; a tie scores 0."""
    return tuple(ev.section(ev.utilities[ev.index[agent]], agent, pos))


def _utility_vectors(ev: _Evaluator, agent: str) -> list[tuple]:
    """Utility vector per grid position over the full ordered opponent product."""
    return [_utilities(ev, agent, pos) for pos in range(ev.sizes[ev.index[agent]])]


def _optimal_positions(ev: _Evaluator, agent: str, mode: str) -> tuple[int, ...]:
    vectors = _utility_vectors(ev, agent)
    own = range(len(vectors))
    # Each opponent profile's best utility. An agent with one grid bid has
    # one vector, on which map(max, v) would call max on a single utility.
    tops = tuple(map(max, *vectors)) if len(vectors) > 1 else vectors[0]
    best_anywhere = [pos for pos in own if any(map(eq, vectors[pos], tops))]
    if mode == "all":
        return tuple(best_anywhere)

    if mode == "dominant":
        base = [pos for pos in best_anywhere if all(map(eq, vectors[pos], tops))]
    else:
        base = best_anywhere
    survivors = [
        pos
        for pos in base
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
    return all(map(ge, left, right)) and left != right


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
    mechanism, strides = ev.mechanism_utility, ev.strides
    product = itertools.product(*(per_agent[a] for a in ev.agents))
    return tuple(p for p in product if mechanism[sum(map(int.__mul__, p, strides))] is not None)


def _mechanism_optimal(ev: _Evaluator) -> tuple[tuple[int, ...], ...]:
    mechanism = ev.mechanism_utility
    admissible = [u for u in mechanism if u is not None]
    if not admissible:
        return ()
    best = max(admissible)
    # Flat indices run in product order, which is lexicographic.
    return tuple(ev.profile(k) for k, u in enumerate(mechanism) if u == best)


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
    # "holds" | "fails" | "holds-budget-exhausted" | "inconclusive" (no
    # evidence either way, which does not hold).
    verdict: str
    witnesses: tuple = ()
    counterexamples: tuple = ()
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict.startswith("holds")


def check_partly_truthful(game, grid: BidGrid) -> PropertyReport:
    """Three conditions per agent: the truthful bid maximizes selection
    probability, selection probability never rises with the bid, and any
    selected agent earns strictly positive utility."""
    ev = _Evaluator(game, grid)
    counterexamples: list[tuple] = []
    for agent in ev.agents:
        truthful = game.types[agent]
        own = grid.bids_for[agent]
        probs = _selection_probabilities(ev, agent)
        if truthful not in own or probs[own.index(truthful)] != max(probs):
            counterexamples.append(
                ("selection probability not maximal at truthful bid", agent)
            )
        for pos in range(len(own) - 1):
            if probs[pos + 1] > probs[pos]:
                counterexamples.append(
                    ("selection probability rises with the bid", agent, own[pos], own[pos + 1])
                )
    # (flat index, agent index) pairs sort as profiles, then agents, do.
    failing = []
    for i, column in enumerate(ev.utilities):
        chosen = itertools.compress(range(len(column)), map((1 << i).__and__, ev.selected))
        failing.extend((k, i) for k in chosen if column[k] <= 0)
    for k, i in sorted(failing):
        counterexamples.append(
            (
                "selected agent with nonpositive utility",
                ev.agents[i],
                ev.bids(ev.profile(k)),
                Fraction(ev.utilities[i][k]) / ev.scale,
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

    _price splits each pool exactly, so a prefix's payment is its bids
    plus costs[q] - costs[0], which is costs[q] minus the remaining bids:
    `lhs == rhs` is an identity for every rule and bid profile. The
    verdict therefore turns on `unit` alone: the substitute is affordable
    exactly when costs[q] <= costs[q] + unit, so the property holds
    exactly when `unit >= 0`.
    """
    resolved = _resolve_bids(network, bids)
    ranked, assignment = _ranked_groups(network, resolved)
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
    trials, and is inconclusive, which does not hold, when none was
    accepted. More than 10,000 trials raise TooLarge before any path is
    listed.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if trials > _TRIALS_GUARD:
        raise TooLarge(f"{trials} trials exceed the trials guard of {_TRIALS_GUARD}")
    resolved = _resolve_bids(network, bids)
    # Rank at the bids' own scale, then price at a multiple of it.
    ranking_units, ranking_scale = _scaled_costs(network, resolved)
    read, group_of = _group_structure(network, ranking_units, ranking_scale)
    grouped = _grouped(group_of)
    groups = dict(grouped)
    # Each trial's delta k/d, d in 2..5, is a whole number of units, and
    # so is a delta's mean over any present group.
    factor = 60 * math.lcm(*range(1, max(map(len, groups.values())) + 1))
    scale, spec = _unit_scale(MechanismSpec("x", rule=rule), resolved.values(), factor)
    units = {agent: _units(v, scale) for agent, v in resolved.items()}
    prefix = len(read)
    base, _ = _price(spec, units, [c * (scale // ranking_scale) for c, _, _ in read], grouped)
    before = {q: sum(base[a] for a in members) for q, members in groups.items()}
    paths = [(p.edges, p.owners) for p in enumerate_paths(network, resolved)]
    rng = random.Random(seed)
    accepted = 0
    counterexamples = []
    for _ in range(trials):
        q, members = rng.choice(grouped)
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
    if counterexamples:
        verdict = "fails"
    else:
        verdict = "holds-budget-exhausted" if accepted else "inconclusive"
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
        if not any(any(map(gt, vector, honest)) for vector in vectors):
            continue
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
    marginal pricing and a reverse second-price award must coincide.

    Three computations meet: the runner-up cost of x's ranking, and the
    winner's payment from an `x` run and from a `vcg` run, which prices
    with its own detour search."""
    resolved = _resolve_bids(network, bids)
    ranked, _ = _ranked_groups(network, resolved)
    chosen = ranked.paths[0]
    if len(chosen.edges) != 1:
        return PropertyReport(
            name="degenerate-vickrey",
            verdict="fails",
            detail="cheapest path is not a single edge",
        )
    winner = chosen.owners[0]
    shared = MechanismSpec("x").run(network, resolved).payments[winner]
    marginal = MechanismSpec("vcg").run(network, resolved).payments[winner]
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
    if cost_range[0] < 1:
        raise ValueError("cost_range must start at 1 or above: costs are positive")
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
