"""The four in-group profit splitting rules."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathauction import (
    DistributionRule,
    EmptyGroup,
    NonpositiveProfit,
    distribute,
)

ABC = [("a", F(10)), ("b", F(20)), ("c", F(30))]


def test_equal_split_pair():
    shares = distribute(DistributionRule("equal"), [("B", F(1)), ("C", F(1))], F(1))
    assert shares == {"B": F(1, 2), "C": F(1, 2)}


def test_reverse_rank_proportions():
    shares = distribute(DistributionRule("reverse-rank"), ABC, F(1))
    assert shares == {"a": F(30, 60), "b": F(20, 60), "c": F(10, 60)}


def test_reverse_rank_scales_with_pool():
    shares = distribute(DistributionRule("reverse-rank"), ABC, F(6))
    assert shares == {"a": F(3), "b": F(2), "c": F(1)}


def test_reverse_rank_breaks_bid_ties_by_agent_id():
    shares = distribute(
        DistributionRule("reverse-rank"), [("y", F(2)), ("x", F(2)), ("w", F(1))], F(5)
    )
    # Ranking largest-first is (x, y, w); x pairs with w's bid, w with x's.
    assert shares == {"x": F(5) * F(1, 5), "y": F(5) * F(2, 5), "w": F(5) * F(2, 5)}


def test_waterfall_worked_sequence():
    shares = distribute(DistributionRule("waterfall", F(1)), ABC, F(15))
    payments = {a: shares[a] + dict(ABC)[a] for a in shares}
    assert payments == {"a": F(22), "b": F(22), "c": F(31)}


def test_waterfall_small_pool_lowers_minimum():
    shares = distribute(DistributionRule("waterfall", F(5)), ABC, F(6))
    assert shares == {"a": F(2), "b": F(2), "c": F(2)}


def test_compound_matches_waterfall_with_remainder_spread():
    rule_w = DistributionRule("waterfall", F(1))
    rule_c = DistributionRule("compound", F(1))
    pool = F(100)
    assert distribute(rule_w, ABC, pool) == distribute(rule_c, ABC, pool)
    # Pool large enough to level everyone: remainder spreads evenly.
    shares = distribute(rule_c, ABC, pool)
    payments = {a: shares[a] + dict(ABC)[a] for a in shares}
    assert len(set(payments.values())) == 1


def test_waterfall_takes_a_zero_delta():
    """A zero delta grants no flat bonus: the pool only levels the bids."""
    shares = distribute(DistributionRule("waterfall", F(0)), [("a", F(1)), ("b", F(3))], F(4))
    assert shares == {"a": F(3), "b": F(1)}


def test_empty_group_and_bad_pool():
    with pytest.raises(EmptyGroup):
        distribute(DistributionRule("equal"), [], F(1))
    with pytest.raises(NonpositiveProfit):
        distribute(DistributionRule("equal"), ABC, F(0))


def test_rule_validation():
    with pytest.raises(ValueError):
        DistributionRule("waterfall")  # delta required
    with pytest.raises(ValueError):
        DistributionRule("equal", F(1))  # delta forbidden
    with pytest.raises(ValueError):
        DistributionRule("nonsense")


_fractions = st.fractions(min_value=F(1, 8), max_value=F(60), max_denominator=8)
_rules = st.sampled_from(
    [
        DistributionRule("equal"),
        DistributionRule("reverse-rank"),
        DistributionRule("waterfall", F(1, 2)),
        DistributionRule("compound", F(1, 3)),
    ]
)


@given(
    rule=_rules,
    bids=st.lists(_fractions, min_size=1, max_size=6),
    pool=_fractions,
)
def test_conservation_and_positivity(rule, bids, pool):
    group = [(f"a{i}", b) for i, b in enumerate(bids)]
    shares = distribute(rule, group, pool)
    assert sum(shares.values()) == pool
    assert all(s > 0 for s in shares.values())
    # Determinism: same inputs, same output.
    assert distribute(rule, group, pool) == shares


_int_rules = st.sampled_from(
    [
        DistributionRule("equal"),
        DistributionRule("reverse-rank"),
        DistributionRule("waterfall", 3),
        DistributionRule("compound", 2),
    ]
)


@given(
    rule=_int_rules,
    bids=st.lists(st.integers(1, 60), min_size=1, max_size=6),
    pool=st.integers(1, 90),
)
def test_integer_inputs_split_exactly(rule, bids, pool):
    """Money in integer units splits into ints where the quotient is whole
    and exact Fractions elsewhere, never floats, and agrees with the split
    of the same amounts given as Fractions."""
    group = [(f"a{i}", b) for i, b in enumerate(bids)]
    shares = distribute(rule, group, pool)
    assert all(type(s) in (int, F) for s in shares.values())
    as_fractions = DistributionRule(rule.kind, None if rule.delta is None else F(rule.delta))
    assert shares == distribute(as_fractions, [(a, F(b)) for a, b in group], F(pool))


def test_whole_integer_shares_stay_ints():
    group = [("a", 10), ("b", 20), ("c", 30)]
    assert distribute(DistributionRule("equal"), group, 6) == {"a": 2, "b": 2, "c": 2}
    assert distribute(DistributionRule("reverse-rank"), group, 12) == {"a": 6, "b": 4, "c": 2}
    shares = distribute(DistributionRule("waterfall", 2), group, 30)
    assert shares == {"a": 19, "b": 9, "c": 2}
    assert all(type(s) is int for s in shares.values())
    assert distribute(DistributionRule("equal"), group, 1) == {a: F(1, 3) for a, _ in group}
