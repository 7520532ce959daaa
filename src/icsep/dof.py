"""Empirical degrees-of-freedom estimation from high-SNR rate curves.

The degrees of freedom of a network is the high-SNR growth rate of its
sum rate.  Since every rate in this package is in bits per real use,
curves are regressed against x = (1/2)log2(SNR): a point-to-point real
Gaussian link then reads slope 1, and the built-in counterexample's
joint scheme reads 3/2.  Bounded offsets (the o(log SNR) part) wash out
as the fitting window moves up in SNR.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

from .rates import MAX_SNR_POINTS, FloatRangeError, _linspace, db_to_linear


@dataclass(frozen=True)
class DofEstimate:
    """Least-squares slope of a rate curve against (1/2)log2(SNR): the DoF estimate."""

    slope: float


# One grid at a time, as play_game only asks for the default window.  Typed, so a
# window equal to the cached one but of another type (Decimal(40) == 40.0) builds,
# or fails, as it would uncached.
@functools.lru_cache(maxsize=1, typed=True)
def _fit_grid(snr_db_lo: float, snr_db_hi: float, n_points: int) -> tuple:
    """The window's dB points, their SNRs, the centred x = (1/2)log2(SNR) and sum (x - mean)^2."""
    dbs = _linspace(snr_db_lo, snr_db_hi, n_points)
    snrs = [db_to_linear(db) for db in dbs]
    x = [0.5 * math.log2(snr) for snr in snrs]
    x_mean = math.fsum(x) / n_points
    xm = [v - x_mean for v in x]
    sxx = math.fsum(a * a for a in xm)
    if sxx == 0.0:
        raise ValueError(
            f"the dB window [{snr_db_lo!r}, {snr_db_hi!r}] has no spread in (1/2)log2(SNR) "
            f"over {n_points} points"
        )
    return tuple(dbs), tuple(snrs), tuple(xm), sxx


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
        If the window is not finite, starts below 30 dB, does not rise,
        or reaches past the floating-point range; if n_points is not an
        integer in 5..MAX_SNR_POINTS; if the window is so narrow that
        every point has the same SNR (no spread to fit); or if rate_fn
        returns a non-finite value.  All but the last are raised before
        rate_fn is called.
    """
    try:
        finite = math.isfinite(snr_db_lo) and math.isfinite(snr_db_hi)
    except OverflowError:  # an int bound past the float range
        raise FloatRangeError("the dB window reaches beyond the floating-point range") from None
    if not finite:
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

    dbs, snrs, xm, sxx = _fit_grid(snr_db_lo, snr_db_hi, n_points)
    y = [float(rate_fn(snr)) for snr in snrs]
    for db, rate in zip(dbs, y):
        if not math.isfinite(rate):
            raise ValueError(f"rate_fn returned a non-finite value at {db:.6g} dB")

    y_mean = math.fsum(y) / n_points
    ym = [v - y_mean for v in y]
    return DofEstimate(math.fsum(map(operator.mul, xm, ym)) / sxx)
