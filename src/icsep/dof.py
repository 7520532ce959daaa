"""Empirical degrees-of-freedom estimation from high-SNR rate curves.

The degrees of freedom of a network is the high-SNR growth rate of its
sum rate.  Since every rate in this package is in bits per real use,
curves are regressed against x = (1/2)log2(SNR): a point-to-point real
Gaussian link then reads slope 1, and the built-in counterexample's
joint scheme reads 3/2.  Bounded offsets (the o(log SNR) part) wash out
as the fitting window moves up in SNR.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

from .rates import MAX_SNR_POINTS, _linspace, db_to_linear


@dataclass(frozen=True)
class DofEstimate:
    """Least-squares slope of a rate curve against (1/2)log2(SNR): the DoF estimate."""

    slope: float


def estimate_dof(
    rate_fn: Callable[[float], float],
    snr_db_lo: float = 40.0,
    snr_db_hi: float = 80.0,
    n_points: int = 21,
) -> DofEstimate:
    """Least-squares slope of rate_fn(SNR) against (1/2)log2(SNR).

    Parameters
    ----------
    rate_fn : callable
        Maps linear SNR to a rate in bits per real use (per carrier).
    snr_db_lo, snr_db_hi : float
        Fitting window in dB; must satisfy snr_db_hi > snr_db_lo >= 30
        so the window sits in the high-SNR regime.
    n_points : int
        Grid size, from 5 to MAX_SNR_POINTS.

    Raises
    ------
    ValueError
        On a bad window/grid, or if rate_fn returns a non-finite value.
    """
    if not (math.isfinite(snr_db_lo) and math.isfinite(snr_db_hi)):
        raise ValueError(f"the dB window must be finite, got [{snr_db_lo!r}, {snr_db_hi!r}]")
    if not snr_db_lo >= 30.0:
        raise ValueError("snr_db_lo must be at least 30 dB (high-SNR regime)")
    if not snr_db_hi > snr_db_lo:
        raise ValueError("snr_db_hi must exceed snr_db_lo")
    try:
        n_points = operator.index(n_points)
    except TypeError:
        raise ValueError(f"n_points must be an integer, got {n_points!r}") from None
    if not 5 <= n_points <= MAX_SNR_POINTS:
        raise ValueError(f"n_points must lie in 5..{MAX_SNR_POINTS}, got {n_points}")

    dbs = _linspace(snr_db_lo, snr_db_hi, n_points)
    snrs = [db_to_linear(db) for db in dbs]
    x = [0.5 * math.log2(snr) for snr in snrs]
    y = [float(rate_fn(snr)) for snr in snrs]
    for db, rate in zip(dbs, y):
        if not math.isfinite(rate):
            raise ValueError(f"rate_fn returned a non-finite value at {db:.6g} dB")

    x_mean, y_mean = math.fsum(x) / n_points, math.fsum(y) / n_points
    xm = [v - x_mean for v in x]
    ym = [v - y_mean for v in y]
    slope = math.fsum(a * b for a, b in zip(xm, ym)) / math.fsum(a * a for a in xm)
    return DofEstimate(slope)
