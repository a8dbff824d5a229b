"""Payment rules for single-item auctions and procurement path auctions.

Two families live here:

* Single-item sealed-bid auctions (first price, second price, and a
  convex blend of the two), in forward form (highest bid wins and pays)
  and reverse form (lowest bid wins and is paid).

* Path auctions on a Network: pay-as-bid, marginal pricing (each winner
  is paid the detour cost its absence would cause minus the detour cost
  of making it free), and a group-sharing rule that partitions the
  winning path's agents by how far down the ranking they survive and pays
  each group the cost gap it protects, split by a configurable rule.
  Three variants trade revenue for stronger truth-telling pressure.

Each rule is an id of MechanismSpec, whose docstring lists them all, and
MechanismSpec.run (SingleItemGame.run for a bare type vector) is the one
way to run it. A run is pure: it reads its arguments, returns a
PaymentResult and never mutates shared state. Strict cost order among
the path ranks a rule consumes is a precondition; equal costs raise
TieError rather than guessing a tie-break with unknown incentive effects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    EmptyGroup,
    InsufficientPaths,
    NonpositiveProfit,
    TieError,
)
from .graph import Network, Path, RankedPaths, _detour_units, _ranked_routes, _scaled_costs

RULE_KINDS = ("equal", "reverse-rank", "waterfall", "compound")

MECHANISM_IDS = (
    "fp-single",
    "vickrey-single",
    "avg-single",
    "fp-path",
    "vcg",
    "x",
    "tradeoff1",
    "tradeoff2",
    "tradeoff3",
)


@dataclass(frozen=True)
class DistributionRule:
    """How a group's pooled profit is split among its members.

    equal: every member gets pool/m.
    reverse-rank: members are ranked by bid, and the j-th largest bidder
        receives the proportion of the pool that the j-th smallest bid
        represents (low bidders earn the larger shares).
    waterfall: every member first gets a guaranteed minimum `delta`, then
        the lowest current payments are raised in lock step until the pool
        is spent.
    compound: waterfall, with any remainder after all payments equalize
        split evenly.
    """

    kind: str
    delta: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown distribution rule {self.kind!r}")
        needs_delta = self.kind in ("waterfall", "compound")
        if needs_delta and self.delta is None:
            raise ValueError(f"rule {self.kind!r} requires delta")
        if not needs_delta and self.delta is not None:
            raise ValueError(f"rule {self.kind!r} does not take delta")
        if self.delta is not None and self.delta < 0:
            raise ValueError("delta must be nonnegative")


EQUAL_SPLIT = DistributionRule("equal")


@dataclass(frozen=True)
class GroupAssignment:
    """Group index per winning-path agent.

    An agent has group q when it lies on every one of the q cheapest paths
    and not on the (q+1)-th. Only agents of the cheapest path are
    assigned. `present_groups` is the strictly increasing list of indices
    that actually occur and `max_group` its largest entry; indices may
    skip values. Both are read off `group_of`.
    """

    group_of: dict[str, int]

    @property
    def present_groups(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.group_of.values())))

    @property
    def max_group(self) -> int:
        return max(self.group_of.values())

    def members(self, group: int) -> tuple[str, ...]:
        return tuple(sorted(a for a, q in self.group_of.items() if q == group))


@dataclass(frozen=True)
class PaymentResult:
    """Outcome of one mechanism run.

    `payments` and `utilities` cover every participant, zero for the
    unselected. In procurement settings utility is payment minus true
    cost and the mechanism's own utility is the negated total; in forward
    auctions utility is value minus price and the mechanism's utility is
    its revenue.
    """

    payments: dict[str, Fraction]
    utilities: dict[str, Fraction]
    total: Fraction
    mechanism_utility: Fraction
    selected: tuple[str, ...]
    chosen_path: Path | None = None
    winner: str | None = None
    groups: dict[str, int] | None = None
    branch: str | None = None


# ---------------------------------------------------------------------------
# Single-item auctions
# ---------------------------------------------------------------------------


def _check_bids(bids: Mapping[str, Fraction], bidders: Iterable[str], who: str) -> None:
    """The one check of a bid profile: it names exactly `bidders` (`who` in
    the message) and every bid is positive."""
    if set(bids) != set(bidders):
        raise ValueError(f"bid profile must cover exactly the {who}")
    for agent, bid in bids.items():
        # A Fraction's sign is its numerator's; an int compares far faster.
        if bid.numerator <= 0:
            raise ValueError(f"nonpositive bid for {agent}")


def _run_single_item(
    spec: MechanismSpec, bids: Mapping[str, Fraction], types: Mapping[str, Fraction]
) -> PaymentResult:
    """The single-item rule of a `*-single` spec, in the spec's orientation,
    on bids _check_bids has checked. The winner's price is lam * own +
    (1 - lam) * second: lam is 1 for fp-single, 0 for vickrey-single and
    spec.lam, 1/2 by default, for avg-single."""
    if len(bids) < 2:
        raise ValueError("single-item auctions need at least two participants")
    if spec.mechanism == "avg-single":
        lam = Fraction(1, 2) if spec.lam is None else spec.lam
    else:
        lam = 1 if spec.mechanism == "fp-single" else 0

    forward = spec.orientation == "forward"
    best = max(bids.values()) if forward else min(bids.values())
    winners = sorted(a for a, v in bids.items() if v == best)
    if len(winners) > 1:
        raise TieError(f"tied winning bid among {winners}")
    winner = winners[0]
    rest = [v for a, v in bids.items() if a != winner]
    second = max(rest) if forward else min(rest)
    amount = lam * best + (1 - lam) * second

    payments = {a: Fraction(0) for a in bids}
    utilities = {a: Fraction(0) for a in bids}
    payments[winner] = amount
    if forward:
        utilities[winner] = types[winner] - amount
        mech = amount
    else:
        utilities[winner] = amount - types[winner]
        mech = -amount
    return PaymentResult(
        payments=payments,
        utilities=utilities,
        total=amount,
        mechanism_utility=mech,
        selected=(winner,),
        winner=winner,
    )


# ---------------------------------------------------------------------------
# Ranking prefix shared by the path mechanisms
# ---------------------------------------------------------------------------


def _resolve_bids(network: Network, bids: Mapping[str, Fraction] | None) -> dict[str, Fraction]:
    resolved = dict(network.bid if bids is None else bids)
    _check_bids(resolved, network.agents, "network's agents")
    return resolved


def _read_prefix(routes: Iterable[tuple], depth: int | None = None, scale: int = 1) -> tuple:
    """Read a ranking once: `depth` routes, or with no depth until every
    agent of the cheapest route has been absent once, recording each first
    absence as that agent's group (0 while it is present). A route is
    (cost, edge ids, owners), its cost in units of 1/scale. Returns the
    routes read, the groups and, when the routes ran out first, the agents
    still present in cheapest-route order, whose error the caller words;
    otherwise TieError, its cost a Fraction, unless costs strictly
    increase over the routes read."""
    read, group_of = [], {}
    for rank, route in enumerate(routes):
        read.append(route)
        if not rank:
            group_of = dict.fromkeys(route[2], 0)
        elif depth is None:
            owners = route[2]
            for agent, q in group_of.items():
                if not q and agent not in owners:
                    group_of[agent] = rank
        if len(read) == depth or all(group_of.values()):
            break
    stuck = [a for a, q in group_of.items() if not q] if depth is None else []
    if not stuck:
        for j in range(1, len(read)):
            if read[j - 1][0] == read[j][0]:
                cost = Fraction(read[j][0], scale)
                raise TieError(f"paths ranked {j} and {j + 1} tie at cost {cost}")
    return read, group_of, stuck


def _group_structure(network: Network, units: Mapping[str, int], scale: int) -> tuple:
    """The ranked prefix, as routes in units of 1/scale, and each
    cheapest-path agent's survival group, for checked bids given in those
    units, ranked over the shortest prefix in which every cheapest-path
    agent is absent once."""
    read, group_of, stuck = _read_prefix(_ranked_routes(network, units), scale=scale)
    if stuck:
        raise InsufficientPaths(f"agents {sorted(stuck)} appear on every source-to-sink path")
    return read, group_of


def _ranked_groups(
    network: Network, bids: Mapping[str, Fraction]
) -> tuple[RankedPaths, GroupAssignment]:
    """_group_structure for bids _resolve_bids has checked, its routes as
    `Path`s with `Fraction` costs."""
    units, scale = _scaled_costs(network, bids)
    read, group_of = _group_structure(network, units, scale)
    paths = tuple(Path(edges, owners, Fraction(cost, scale)) for cost, edges, owners in read)
    return RankedPaths(paths), GroupAssignment(group_of)


def _routes(ranked: RankedPaths) -> list[tuple]:
    """Supplied paths as the routes _read_prefix reads, at scale 1."""
    return [(p.cost, p.edges, p.owners) for p in ranked.paths]


def classify_groups(ranked: RankedPaths) -> GroupAssignment:
    """Assign each cheapest-path agent its survival group index.

    The group index of an agent is the number of consecutive ranks, from
    the top, whose paths all contain it; equivalently the rank just before
    its first absence. Costs must be strictly increasing over the consumed
    prefix, up to and including each agent's first absence.
    """
    if not ranked.paths:
        raise InsufficientPaths("no ranked paths supplied")
    _, group_of, stuck = _read_prefix(_routes(ranked))
    if stuck:
        raise InsufficientPaths(f"agent {stuck[0]} appears in every supplied path")
    return GroupAssignment(group_of)


def group_profits(assignment: GroupAssignment, ranked: RankedPaths) -> dict[int, Fraction]:
    """Pooled profit per present group.

    Group q's pool is the cost gap between its own substitute path (rank
    q+1) and the substitute path of the previous present group, with the
    cheapest path itself standing in below the first present group. The
    pools telescope: they sum to cost(rank max+1) - cost(rank 1).
    """
    paths = _routes(ranked)
    if len(paths) <= assignment.max_group:
        raise InsufficientPaths(
            f"need {assignment.max_group + 1} ranked paths, got {len(paths)}"
        )
    _read_prefix(paths, assignment.max_group + 1)
    return _pools(ranked.costs, _grouped(assignment.group_of), telescoping=True)


# ---------------------------------------------------------------------------
# Profit distribution within a group
# ---------------------------------------------------------------------------


def _quotient(numerator, denominator):
    """numerator / denominator exactly: an int when both are ints and the
    division is whole, a Fraction otherwise."""
    if type(numerator) is int and type(denominator) is int:
        whole, rest = divmod(numerator, denominator)
        if not rest:
            return whole
        return Fraction(numerator, denominator)
    return numerator / denominator


def distribute(
    rule: DistributionRule,
    group_bids: Sequence[tuple[str, Fraction]],
    profit: Fraction,
) -> dict[str, Fraction]:
    """Split a positive profit pool among a group's members.

    Returns each member's pure profit (not payment). Shares always sum to
    the pool exactly. Bid ties are ordered by agent id so results are
    deterministic. Money may be `Fraction`s or integers in a common unit
    (bids, pool and the rule's delta alike); every division is exact, so a
    share of integer inputs is an `int` where the quotient is whole and a
    `Fraction` otherwise, never a float.
    """
    if not group_bids:
        raise EmptyGroup("cannot distribute to an empty group")
    if profit <= 0:
        raise NonpositiveProfit(f"profit pool must be positive, got {profit}")
    m = len(group_bids)

    if rule.kind == "equal":
        share = _quotient(profit, m)
        return {agent: share for agent, _ in group_bids}

    if rule.kind == "reverse-rank":
        by_size = sorted(group_bids, key=lambda ab: (-ab[1], ab[0]))
        total = sum(b for _, b in group_bids)
        return {
            by_size[j][0]: _quotient(profit * by_size[m - 1 - j][1], total) for j in range(m)
        }

    # waterfall / compound
    delta = rule.delta
    if profit < m * delta:
        delta = _quotient(profit, m)
    pay = {agent: bid + delta for agent, bid in group_bids}
    pool = profit - m * delta
    while pool > 0:
        low = min(pay.values())
        at_low = [agent for agent, value in pay.items() if value == low]
        higher = [value for value in pay.values() if value > low]
        if higher:
            step = min(higher) - low
            cost = step * len(at_low)
            if cost <= pool:
                for agent in at_low:
                    pay[agent] += step
                pool -= cost
                continue
        # Pool runs out before the next level (or all levels already equal):
        # spread what is left evenly over the current lowest payments.
        bump = _quotient(pool, len(at_low))
        for agent in at_low:
            pay[agent] += bump
        pool = 0
    bids_by_agent = dict(group_bids)
    return {agent: pay[agent] - bids_by_agent[agent] for agent in pay}


# ---------------------------------------------------------------------------
# Path mechanisms
# ---------------------------------------------------------------------------


def _units(value: Fraction, scale: int) -> int:
    """`value` in units of 1/scale, for a scale its denominator divides."""
    return value.numerator * (scale // value.denominator)


def _unit_scale(
    spec: MechanismSpec, money: Iterable[Fraction], factor: int
) -> tuple[int, MechanismSpec]:
    """The one scale of integer pricing, for MechanismSpec.run, the compiled
    grid table and the group-truthfulness trials: the least scale at which
    every value in `money`, and the rule delta of x and tradeoff1, is a
    whole number of 1/scale units, times `factor`; and `spec` with that
    delta in those units. A path cost is a sum of bids, so with the bids
    in `money` every path cost is whole in those units too."""
    delta = spec.rule.delta if spec.mechanism in ("x", "tradeoff1") else None
    if delta is not None:
        money = itertools.chain(money, (delta,))
    scale = math.lcm(*(v.denominator for v in money)) * factor
    if delta is not None:
        spec = replace(spec, rule=DistributionRule(spec.rule.kind, _units(delta, scale)))
    return scale, spec


def _money(units, scale: int) -> Fraction:
    """Units of 1/scale as a Fraction: an int count, or the exact Fraction
    count a reverse-rank or uneven share leaves."""
    if type(units) is int:
        return Fraction(units, scale)
    return units / scale


def _pools(costs: Sequence, groups: tuple, telescoping: bool) -> dict:
    """Pool per group q of `groups`, grouped winners as _price reads them, in
    increasing q: the cost gap to q's own substitute path (rank q+1) from
    the previous group's substitute when telescoping, from the cheapest
    path otherwise."""
    pools = {}
    floor = 0
    for q, _ in groups:
        pools[q] = costs[q] - costs[floor]
        if telescoping:
            floor = q
    return pools


def _grouped(group_of: Mapping) -> tuple:
    """Winners grouped as _price reads them, from each winner's group:
    ((q, (k, ...)), ...), in increasing q, each group's keys sorted."""
    members: dict = {}
    for k in sorted(group_of):
        members.setdefault(group_of[k], []).append(k)
    return tuple((q, tuple(members[q])) for q in sorted(members))


def _split(rule: DistributionRule, bids, groups: tuple, costs: Sequence, telescoping: bool) -> dict:
    """Each winner's bid plus its share, under `rule`, of its group's pool."""
    pools = _pools(costs, groups, telescoping)
    pay = {}
    for q, members in groups:
        group_bids = list(zip(members, map(bids.__getitem__, members)))
        shares = distribute(rule, group_bids, pools[q])
        for k, bid in group_bids:
            pay[k] = bid + shares[k]
    return pay


def _price(spec: MechanismSpec, bids, costs: Sequence, groups: tuple) -> tuple[dict, str | None]:
    """Payments of the cheapest path's agents under a path rule, and the
    branch tradeoff1 took (None for the other rules).

    This is the one copy of the path rules' payment formulas, shared by
    MechanismSpec.run and the compiled path table of grid analysis. The
    winners come grouped, as _grouped builds them: `groups` holds (q, keys)
    pairs in increasing q, and `bids[k]` is winner k's bid. Keys are
    opaque: agent ids in MechanismSpec.run, positions in the sorted agent
    order in the table, which sort as the ids do. Its callers pass money
    as integers in units of 1/scale, at the scale _unit_scale gives (the
    rule's delta in those units too); Fractions price the same. costs[0]
    is the cheapest path's cost and costs[q] the cost of the cheapest path
    without the keys of group q. For the group rules costs
    is the ranked prefix, strictly increasing, and q the rank of its
    members' first absence; fp-path reads only the keys.

    vcg pays the excluded detour minus the zeroed one. For a winner on the
    cheapest path P the zeroed detour is cost(P) - bid in closed form:
    zeroing the bid lowers every path by at most the bid, and P, the
    cheapest, by exactly that.

    A winner's profit, its payment minus its bid, reads the winners' bids
    only under the reverse-rank, waterfall and compound splits of x and
    tradeoff1. Under fp-path, vcg, tradeoff2, tradeoff3 and the equal
    split of x and tradeoff1 it is a cost gap, or an equal share of one,
    fixed by `groups` and the gaps costs[q] - costs[0]. So is tradeoff1's
    branch at fixed costs: it compares the two totals, and the vcg total
    is costs[0], the winners' bids summed, plus the gaps. _profits_bid_free
    tells the two kinds apart. Adding one amount to every cost (the
    winners' bids then sum to the new costs[0]) keeps each bid-free profit
    but tradeoff1's: at a positive threshold its saving is weighed against
    the vcg total, which grows with costs[0], so the same gaps can take
    the other branch.
    """
    name = spec.mechanism
    if name == "tradeoff3":
        return _split(EQUAL_SPLIT, bids, groups, costs, False), None
    if name in ("x", "tradeoff1"):
        shared = _split(spec.rule, bids, groups, costs, True)
        if name == "x":
            return shared, None
    # Loops, not comprehensions: in CPython 3.11 each comprehension is a
    # function call of its own, and the compiled table prices every profile.
    pay = {}
    if name == "fp-path":
        for _, members in groups:
            for k in members:
                pay[k] = bids[k]
        return pay, None
    if name == "tradeoff2":
        for q, members in groups:
            for k in members:
                pay[k] = bids[k] + costs[q] - costs[q - 1]
        return pay, None
    for q, members in groups:
        for k in members:
            pay[k] = costs[q] - (costs[0] - bids[k])
    if name == "vcg":
        return pay, None
    # tradeoff1 compares the relative saving (marginal - shared) / marginal
    # with the threshold, cross-multiplied: the marginal total is positive.
    threshold = Fraction(spec.threshold or 0)
    marginal_total = sum(pay.values())
    saving = marginal_total - sum(shared.values())
    if saving * threshold.denominator > threshold.numerator * marginal_total:
        return shared, "x"
    return pay, "vcg"


def _profits_bid_free(spec: MechanismSpec) -> bool:
    """Whether _price gives each winner of `spec` a profit (payment minus
    bid) that `costs` and `groups` fix, whatever the winners' bids. Every
    such profit reads only the gaps of `costs` to costs[0], but tradeoff1's,
    whose branch reads costs[0] too."""
    return spec.rule.kind == "equal" or spec.mechanism not in ("x", "tradeoff1")


# Fractions are immutable, so one zero serves every unpaid agent.
_ZERO = Fraction(0)


def group_structure(
    network: Network, bids: Mapping[str, Fraction] | None = None
) -> tuple[RankedPaths, GroupAssignment, dict[int, Fraction]]:
    """Ranked prefix, survival groups and pooled profits for the cheapest path."""
    ranked, assignment = _ranked_groups(network, _resolve_bids(network, bids))
    pools = _pools(ranked.costs, _grouped(assignment.group_of), telescoping=True)
    return ranked, assignment, pools


# ---------------------------------------------------------------------------
# Uniform dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MechanismSpec:
    """A mechanism id plus the parameters it needs, runnable on a network.

    Single-item ids treat the network's agents as the bidders and ignore
    the topology; `orientation` applies only to them. SingleItemGame runs
    the same ids over a bare type vector. The rules:

    fp-single, vickrey-single: the winner pays (forward) or is paid
        (reverse) its own bid, or the second-best bid.
    avg-single: price = lam*own + (1-lam)*second, lam 1/2 by default;
        lam = 0 is vickrey-single, lam = 1 is fp-single.
    fp-path: pay-as-bid, each agent of the cheapest path is paid its bid.
    vcg: each winner is paid the cheapest path avoiding its edge minus the
        cheapest path with its edge at zero; only the two cheapest paths
        are ranked, and each excluded detour is one search of its own.
    x: winners are grouped by survival depth; each group's pool, the
        ranking cost gap it protects, is split among its members by
        `rule`, so the total is the cost of the path ranked just past the
        deepest group.
    tradeoff1: vcg, unless x's relative saving (vcg total - x total) /
        vcg total exceeds `threshold`; `branch` records the side taken.
    tradeoff2: each member of group q earns cost(rank q+1) - cost(rank q),
        unshared.
    tradeoff3: group q shares cost(rank q+1) - cost(rank 1) evenly, so no
        member earns more than under vcg.

    Every field is checked here, once: the id, `orientation` (forward or
    reverse) and `lam` and `threshold` (within [0, 1] when given). `run`
    checks the bids; the network needs no check, since a Network holds
    one edge and one cost per owner and each rule prices an agent by it.

    A path rule's run ranks and prices in integers: it scales the bids,
    the true costs and the delta of x and tradeoff1 once, to units of 1/S
    for S the least common multiple of their denominators, and ranks and
    takes vcg's detours with the bids in those units. Once the winners
    are known, x, tradeoff1 and tradeoff3 multiply the units by lcm(1..m),
    m the winners, so that their splits stay whole but for reverse-rank's.
    No Path or Fraction is built per ranked path: the chosen path, each
    payment, each utility and the total are built once, in the
    PaymentResult, and a tie message prints its cost as a Fraction.
    """

    mechanism: str
    rule: DistributionRule = EQUAL_SPLIT
    lam: Fraction | None = None
    threshold: Fraction | None = None
    orientation: str = "reverse"

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISM_IDS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.orientation not in ("forward", "reverse"):
            raise ValueError(
                f"orientation must be forward or reverse, got {self.orientation!r}"
            )
        if self.lam is not None and not 0 <= self.lam <= 1:
            raise ValueError("lam must lie in [0, 1]")
        if self.threshold is not None and not 0 <= self.threshold <= 1:
            raise ValueError("threshold must lie in [0, 1]")

    def run(self, network: Network, bids: Mapping[str, Fraction] | None = None) -> PaymentResult:
        resolved = _resolve_bids(network, bids)
        name = self.mechanism
        if name.endswith("-single"):
            return _run_single_item(self, resolved, network.true_cost)
        # Rank and price in integer units of 1/scale; build each Fraction
        # once, in the PaymentResult.
        true_cost = network.true_cost
        money = itertools.chain(resolved.values(), true_cost.values())
        scale, spec = _unit_scale(self, money, 1)
        units = {a: _units(v, scale) for a, v in resolved.items()}
        if name in ("fp-path", "vcg"):
            read, _, _ = _read_prefix(_ranked_routes(network, units), 2, scale)
            # The cheapest path's cost, then each winner's excluded detour.
            cost, edges, owners = read[0]
            group_of, groups = {a: r for r, a in enumerate(owners, 1)}, None
            costs = [cost]
            if name == "vcg":
                costs += [_detour_units(network, a, "excluded", units) for a in owners]
        else:
            read, group_of = _group_structure(network, units, scale)
            cost, edges, owners = read[0]
            costs, groups = [route[0] for route in read], dict(group_of)
        chosen = Path(edges, owners, Fraction(cost, scale))
        if name in ("x", "tradeoff1", "tradeoff3"):
            # As in the grid table, the splitting rules' scale is a multiple
            # of every group size, lcm(1..m) for m winners, so only a
            # reverse-rank share can be a Fraction of units.
            factor = math.lcm(*range(1, len(group_of) + 1))
            if factor > 1:
                scale *= factor
                costs = [c * factor for c in costs]
                units = {a: units[a] * factor for a in group_of}
                if name != "tradeoff3" and spec.rule.delta is not None:
                    rule = DistributionRule(spec.rule.kind, spec.rule.delta * factor)
                    spec = replace(spec, rule=rule)
        pay, branch = _price(spec, units, costs, _grouped(group_of))
        payments = dict.fromkeys(network.agents, _ZERO)
        utilities = payments.copy()
        for agent, amount in pay.items():
            payments[agent] = _money(amount, scale)
            utilities[agent] = _money(amount - _units(true_cost[agent], scale), scale)
        total = _money(sum(pay.values()), scale)
        return PaymentResult(
            payments=payments,
            utilities=utilities,
            total=total,
            mechanism_utility=-total,
            selected=tuple(sorted(pay)),
            chosen_path=chosen,
            groups=groups,
            branch=branch,
        )
