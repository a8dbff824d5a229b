from fractions import Fraction as F

import pytest

from pathauction import MechanismSpec, SingleItemGame, TieError

THREE = {"p": F(3), "q": F(5), "r": F(7)}

FP_FORWARD = MechanismSpec("fp-single", orientation="forward")
FP_REVERSE = MechanismSpec("fp-single", orientation="reverse")
VICKREY_FORWARD = MechanismSpec("vickrey-single", orientation="forward")
VICKREY_REVERSE = MechanismSpec("vickrey-single", orientation="reverse")


def _avg(lam):
    return MechanismSpec("avg-single", lam=lam, orientation="forward")


def test_first_price_forward():
    res = SingleItemGame(THREE, FP_FORWARD).run(THREE)
    assert res.winner == "r"
    assert res.payments == {"p": F(0), "q": F(0), "r": F(7)}
    assert res.total == 7
    assert res.mechanism_utility == 7


def test_first_price_reverse():
    res = SingleItemGame(THREE, FP_REVERSE).run(THREE)
    assert res.winner == "p"
    assert res.payments["p"] == 3
    assert res.mechanism_utility == -3


def test_first_price_truthful_winner_earns_nothing():
    res = SingleItemGame(THREE, FP_FORWARD).run(THREE)
    assert res.utilities["r"] == 0


def test_vickrey_forward():
    res = SingleItemGame(THREE, VICKREY_FORWARD).run(THREE)
    assert res.winner == "r"
    assert res.payments["r"] == 5
    assert res.utilities["r"] == 2  # participation: winning never hurts


def test_vickrey_reverse_two_bids():
    bids = {"e": F(1), "f": F(5)}
    res = SingleItemGame(bids, VICKREY_REVERSE).run(bids)
    assert res.winner == "e"
    assert res.payments["e"] == 5
    assert res.utilities["e"] == 4
    assert res.mechanism_utility == -5


def test_tie_at_winning_bid_raises():
    with pytest.raises(TieError):
        bids = {"p": F(5), "q": F(5), "r": F(3)}
        SingleItemGame(bids, FP_FORWARD).run(bids)
    with pytest.raises(TieError):
        bids = {"p": F(2), "q": F(2)}
        SingleItemGame(bids, VICKREY_REVERSE).run(bids)


def test_loser_ties_are_fine():
    bids = {"p": F(5), "q": F(5), "r": F(7)}
    res = SingleItemGame(bids, VICKREY_FORWARD).run(bids)
    assert res.winner == "r"
    assert res.payments["r"] == 5


def test_averaged_blend():
    bids = {"p": F(4), "q": F(10)}
    assert SingleItemGame(bids, _avg(F(1, 2))).run(bids).payments["q"] == 7
    assert SingleItemGame(bids, _avg(F(0))).run(bids).payments["q"] == 4
    assert SingleItemGame(bids, _avg(F(1))).run(bids).payments["q"] == 10


def test_averaged_lambda_domain():
    bids = {"p": F(4), "q": F(10)}
    with pytest.raises(ValueError):
        SingleItemGame(bids, _avg(F(3, 2))).run(bids)


def test_explicit_types_drive_utility():
    res = SingleItemGame({"p": F(3), "q": F(9)}, VICKREY_FORWARD).run({"p": F(3), "q": F(6)})
    assert res.utilities["q"] == 9 - 3


def test_needs_two_participants():
    with pytest.raises(ValueError):
        SingleItemGame({"p": F(3)}, FP_FORWARD).run({"p": F(3)})


@pytest.mark.parametrize(
    "bids",
    [{"p": F(3)}, {"p": F(3), "q": F(5), "z": F(4)}, {"p": F(3), "z": F(4)}],
    ids=["missing", "extra", "swapped"],
)
def test_bid_profile_must_match_the_bidders(bids):
    game = SingleItemGame({"p": F(3), "q": F(5)}, VICKREY_FORWARD)
    with pytest.raises(ValueError, match="bid profile must cover exactly the auction's bidders"):
        game.run(bids)


@pytest.mark.parametrize("orientation", ["forward", "reverse"])
@pytest.mark.parametrize("mechanism, lam", [("fp-single", F(1)), ("vickrey-single", F(0))])
def test_first_and_second_price_are_the_blend_at_its_ends(fig3, mechanism, lam, orientation):
    """fp-single is avg-single at lam 1 and vickrey-single at lam 0, over a
    type vector and over a network's agents alike."""
    spec = MechanismSpec(mechanism, orientation=orientation)
    blend = MechanismSpec("avg-single", lam=lam, orientation=orientation)
    for bids in (THREE, {"p": F(9, 2), "q": F(2)}):
        assert SingleItemGame(bids, spec).run(bids) == SingleItemGame(bids, blend).run(bids)
    bids = {"e": F(2), "f": F(9, 2)}
    assert spec.run(fig3, bids) == blend.run(fig3, bids)
