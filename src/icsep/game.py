"""The adversarial coefficient game on 3-user interference channels.

Player 1 designs all channel coefficients, trying to maximize the
network's degrees of freedom.  Player 2 then overwrites one designated
off-diagonal coefficient per carrier, trying to minimize it.  Player 2's
best response makes the carrier singular (one degree of freedom on its
own), which wins on any single carrier; over parallel carriers player 1
can still win, because alignment across carriers survives per-carrier
singularity as long as player 2 must touch different coefficients on
different carriers.
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
UNKNOWN = "unknown"

#: slack on the fitted slope when declaring a winner
WINNER_SLOPE_TOL = 0.1


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

    For position (i, j) with third user k the new value is
    h[i][k] * h[j][j] / h[j][k], which forces the ratio collision
    h[j][k]/h[j][j] == h[i][k]/h[i][j] exactly.  The replacement is
    computed in exact rational arithmetic and stored as a Fraction, so
    the singularity detector's exact mode fires on the result; it is a
    quotient of nonzero gains, hence itself nonzero.
    """
    chan.ensure_valid(carrier)
    i, j = coeff
    if i not in chan.USERS or j not in chan.USERS or i == j:
        raise ValueError(
            f"coefficient position must be off-diagonal with indices in 1..3, got {coeff!r}"
        )
    k = next(x for x in chan.USERS if x not in (i, j))
    new = Fraction(carrier.gain(i, k)) * Fraction(carrier.gain(j, j)) / Fraction(carrier.gain(j, k))
    rows = [list(row) for row in carrier.h]
    rows[i - 1][j - 1] = new
    return chan.SingleCarrierChannel(tuple(tuple(row) for row in rows))


def _joint_rate_fn(channel: chan.ParallelChannel):
    """Best joint-coding innerbound available: aligned TIN, else TDMA.

    Prepared once per channel; ``channel`` must already be validated.
    """
    return _tin_curve(channel) or _tdma_curve(channel)


def play_game(
    base: chan.ParallelChannel, adversary_coeffs: Sequence[tuple]
) -> GameOutcome:
    """Apply player 2's best response and judge the outcome.

    One controlled off-diagonal position per carrier.  After the
    substitutions, every carrier is singular; the joint degrees of
    freedom are then estimated from the slope of the best joint-coding
    innerbound (so player 1 is declared winner on an achievability
    basis).  Slope at or below 1 + tol means player 2 won, at or above
    3/2 - tol player 1; anything between is reported as unknown.
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
    dofs = chan.per_carrier_dof(modified)
    est = estimate_dof(_joint_rate_fn(modified))
    if est.slope <= 1.0 + WINNER_SLOPE_TOL:
        winner = PLAYER2
    elif est.slope >= 1.5 - WINNER_SLOPE_TOL:
        winner = PLAYER1
    else:
        winner = UNKNOWN
    return GameOutcome(winner, modified, dofs, est.slope)
