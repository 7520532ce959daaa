"""The adversarial coefficient game on 3-user interference channels.

Player 1 designs all channel coefficients, trying to maximize the
network's degrees of freedom.  Player 2 then overwrites one designated
off-diagonal coefficient per carrier, trying to minimize it.  Player 2's
best response makes the carrier singular (one degree of freedom on its
own), which wins on any single carrier; over parallel carriers player 1
can still win, because alignment across carriers survives per-carrier
singularity as long as player 2 must touch different coefficients on
different carriers.  The verdict is whether that alignment exists, a
property of gain ratios, so it does not depend on the gain scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import channel as chan
from .dof import estimate_dof
from .rates import _tdma_curve, _tin_curve

PLAYER1 = "player1"
PLAYER2 = "player2"


@dataclass(frozen=True)
class GameOutcome:
    winner: str
    modified_channel: chan.ParallelChannel
    per_carrier_dof: tuple
    joint_dof_estimate: float


def adversary_best_response(
    carrier: chan.SingleCarrierChannel, coeff: tuple
) -> chan.SingleCarrierChannel:
    """Overwrite one off-diagonal coefficient so the carrier turns singular.

    ``coeff`` must be a pair (i, j) of distinct user indices (``chan.is_user``), else
    ValueError.  With third user k the new value is h[i][k] * h[j][j] / h[j][k], which
    forces the ratio collision h[j][k]/h[j][j] == h[i][k]/h[i][j] exactly.  The
    replacement is computed in exact rational arithmetic and stored as a Fraction, so
    ``chan.all_witnesses(result, exact=True)`` is nonempty.  That value is nonzero but may
    leave the range ``chan.validate`` accepts.  The carrier is checked first, so the
    result converts and checks only the entry it rewrites.
    """
    chan.ensure_valid(carrier)
    try:
        i, j = coeff
    except (TypeError, ValueError):  # not a pair
        i = j = None
    if i == j or not (chan.is_user(i) and chan.is_user(j)):
        raise ValueError(
            f"coefficient position must be an off-diagonal pair with indices in 1..3, got {coeff!r}"
        )
    i, j = int(i), int(j)  # numpy ints as Python ints, the type of the issue indices
    k = 6 - i - j
    h = carrier.h
    # each stored gain (int, float or Fraction) is an exact integer ratio: one gcd normalises
    an, ad = h[i - 1][k - 1].as_integer_ratio()
    bn, bd = h[j - 1][j - 1].as_integer_ratio()
    cn, cd = h[j - 1][k - 1].as_integer_ratio()
    return carrier._with_gain(i, j, Fraction(an * bn * cd, ad * bd * cn))


def play_game(
    base: chan.ParallelChannel, adversary_coeffs: Sequence[tuple]
) -> GameOutcome:
    """Apply player 2's best response and judge the outcome.

    One controlled off-diagonal position per carrier.  Every modified
    carrier is singular exactly, so each ``per_carrier_dof`` is 1 without
    the float detector, which agrees: on a valid carrier the two collided
    ratios are normal floats a few ulps apart.  Player 1 wins exactly when
    the two-carrier alignment scheme (3/2 DoF per carrier) exists on the
    modified channel.  ``joint_dof_estimate`` is the 40-80 dB slope of the
    aligned TIN curve, else of TDMA: reported only, it reads low on small gains.
    Raises ValueError when a best response leaves the valid gain range.
    """
    coeffs = list(adversary_coeffs)
    if len(coeffs) != base.n_carriers:
        raise ValueError(
            f"need one controlled coefficient per carrier "
            f"({base.n_carriers}), got {len(coeffs)}"
        )
    modified = chan.ParallelChannel(
        tuple(
            adversary_best_response(carrier, coeff)
            for carrier, coeff in zip(base.carriers, coeffs)
        )
    )
    try:
        # ia_feasibility validates the modified channel first, so this is its one check
        aligned = _tin_curve(modified)
    except chan.InvalidChannelError as exc:
        raise ValueError(f"player 2's best response is out of range ({exc})") from exc
    est = estimate_dof(aligned or _tdma_curve(modified))
    winner = PLAYER2 if aligned is None else PLAYER1
    return GameOutcome(winner, modified, (1,) * modified.n_carriers, est.slope)
