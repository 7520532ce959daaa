"""Sum-capacity outerbounds for the 3-user interference channel.

Two bound families are computable here:

* the equal-magnitude family: carriers whose nine gains share one
  magnitude c and for which exactly two of the three pair signs
  sign(h_ij h_ji h_ii h_jj), i < j, are negative; these are the carriers
  equivalent, up to user relabeling and sign flips, to one of the
  built-in counterexample carriers.  For those, one receiver can decode
  all three messages with no noise reduction and the sum capacity is at
  most (1/2)log2(1 + c^2 SNR);
* the genie-aided MAC bound for the perfectly symmetric channel (unit
  direct gains, cross gains h > 1): a genie hands receiver 1 the side
  signal a1*X1 + (1-h)*X2 + Z~, turning the network into a 3-user
  MAC with a two-antenna receiver whose sum capacity is a log-det ratio.
  The genie gain a1 and the noise statistics (sigma, rho) are free
  parameters, constrained so Z1 + Z~ is no stronger than the original
  unit noise, and the bound is minimized over them.

The separate-encoding outerbound composes per-carrier bounds with an
optimal power allocation across carriers; it limits any scheme that uses
independent codebooks per carrier, with arbitrary decoding inside each.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from . import channel as chan
from .rates import FloatRangeError, _check_power, _fill_rate, _linspace, _prepare_fill

#: slack allowed on the noise-enhancement constraint E[(Z1+Z~)^2] <= 1
CONSTRAINT_TOL = 1e-12

#: relative spread allowed when checking the all-gains-equal-magnitude family
MAGNITUDE_RTOL = 1e-9

#: most (a1, rho) points in one sigma slice of the mac_bound_grid_min oracle
MAX_ORACLE_SLICE_POINTS = 4_000_000


class InfeasibleGenieParamsError(ValueError):
    """Genie parameters fail GenieParams.feasible: a non-finite a1, a
    violated noise constraint or a singular K_z."""


class NoSeparateBoundError(ValueError):
    """No finite-SNR per-carrier bound in this library applies to the channel."""


@dataclass(frozen=True, slots=True)
class GenieParams:
    """Genie side-signal parameters: gain on X1, noise std, correlation with Z1."""

    a1: float
    sigma: float
    rho: float

    def noise_enhancement(self) -> float:
        """E[(Z1 + Z~)^2]; must stay at or below the unit noise power."""
        return 1.0 + self.sigma * self.sigma + 2.0 * self.rho * self.sigma

    def feasible(self) -> bool:
        """a1 finite, sigma > 0, |rho| < 1 - 1e-12 (K_z nonsingular) and
        E[(Z1+Z~)^2] <= 1.

        The one admissibility rule: mac_bound_eval accepts exactly these
        params.  Negated NaN comparisons are False, so a NaN field fails.
        """
        return (
            math.isfinite(self.a1)
            and self.sigma > 0
            and abs(self.rho) < 1.0 - 1e-12
            and self.noise_enhancement() <= 1.0 + CONSTRAINT_TOL
        )


@dataclass(frozen=True, slots=True)
class MacBoundResult:
    """Minimized MAC bound value (bits per real use) and the minimizing params."""

    value: float
    params: GenieParams


# the coarse grid's (sigma, rho) pairs, sigma in (0, 2] and rho in (-1, 1), that pass
# GenieParams.feasible (144 of 600), in scan order; feasibility ignores a1, h and snr
_GRID_PAIRS = tuple(
    (sigma, rho)
    for sigma in _linspace(2.0 / 24, 2.0, 24)
    for rho in _linspace(-1.0 + 1e-6, 1.0 - 1e-6, 25)
    if GenieParams(0.0, sigma, rho).feasible()
)


def _check_symmetric(h: float, snr: float) -> None:
    """Reject a cross gain that is not a finite h > 1, or a bad snr."""
    if not 1.0 < h < math.inf:
        raise ValueError(f"the symmetric-channel bound requires a finite cross gain h > 1, got {h!r}")
    _check_power(snr)


def example1_bound(snr: float) -> float:
    """Per-carrier sum-capacity bound (1/2)log2(1 + SNR) for the
    equal-magnitude family with unit gains.

    The caller asserts the carrier belongs to the family (as both
    counterexample carriers do); for magnitude c, pass c^2 * snr.
    """
    _check_power(snr)
    return 0.5 * math.log2(1.0 + snr)


def mac_bound_eval(h: float, snr: float, params: GenieParams) -> float:
    """Evaluate the genie MAC bound at fixed parameters.

    Builds the 2x3 effective MAC matrix H = [[1, h, h], [a1, 1-h, 0]] and
    returns (1/2)log2 det(K_z + (snr/3) H H^T) / det(K_z), the sum
    capacity of the two-antenna MAC halved into real-channel units.
    ``snr`` is the total power of the one carrier, snr/3 per user.

    Raises
    ------
    InfeasibleGenieParamsError
        If ``params.feasible()`` is False, and only then.
    FloatRangeError
        If the arithmetic at feasible params leaves the float range.
    """
    _check_symmetric(h, snr)
    if not params.feasible():
        raise InfeasibleGenieParamsError(
            f"genie params a1={params.a1:.6g}, sigma={params.sigma:.6g}, rho={params.rho:.6g} "
            f"with E[(Z1+Z~)^2] = {params.noise_enhancement():.6g} are infeasible: the bound "
            f"needs a finite a1, sigma > 0 and |rho| < 1 - 1e-12 (else the noise covariance "
            f"is singular) and E[(Z1+Z~)^2] <= 1"
        )
    return _mac_bound_value(h, snr, params.a1, params.sigma, params.rho)


def _mac_bound_value(h: float, snr: float, a1: float, sigma: float, rho: float) -> float:
    """mac_bound_eval on inputs that already passed its checks, with the genie
    params as the plain floats a1, sigma and rho of a feasible GenieParams."""
    t = snr / 3.0
    c = rho * sigma
    # float ** raises OverflowError past the float range
    try:
        g11 = 1.0 + 2.0 * h * h
        g12 = a1 + h * (1.0 - h)
        g22 = a1 * a1 + (1.0 - h) ** 2
        # where 2h^2 overflows, t 2h^2 need not
        a11 = 1.0 + t * g11 if g11 < math.inf else 1.0 + t + 2.0 * t * h * h
        det_a = a11 * (sigma * sigma + t * g22) - (c + t * g12) ** 2
        det_k = sigma * sigma - c * c
        if det_k >= sys.float_info.min and (ratio := det_a / det_k) < math.inf:
            value = 0.5 * math.log2(ratio)
        elif t == 0.0:
            value = 0.0  # snr = 0: K_z + 0 H H^T = K_z, even where a term is 0 * inf
        else:
            # a tiny sigma leaves det_k below the normal range, where it loses
            # bits, or overflows the ratio: take log2 det_k as
            # 2 log2(sigma) + log2(1 - rho^2); log2 raises ValueError if det_a is 0
            log_det_k = 2.0 * math.log2(sigma) + math.log2((1.0 - rho) * (1.0 + rho))
            value = 0.5 * (math.log2(det_a) - log_det_k)
    except (OverflowError, ValueError):
        value = math.nan
    if value > 0.0:
        return value
    if value == value:
        return 0.0
    # NaN: the arithmetic left the float range, by a raise above or an inf - inf
    raise FloatRangeError(
        f"the genie MAC bound at h={h!r}, snr={snr!r} with {GenieParams(a1, sigma, rho)} "
        f"is beyond the floating-point range"
    )


def _boundary_params(h: float, snr: float, sigma: float) -> GenieParams:
    """Genie params on the noise boundary rho = -sigma/2 with the exact best a1.

    det(K_z + (snr/3) H H^T) is a convex quadratic in a1 with leading
    coefficient t(1 + 2t h^2), t = snr/3, so its minimiser is closed-form.
    With rho = -sigma/2, E[(Z1+Z~)^2] = 1 up to an ulp, inside the slack.
    """
    t = snr / 3.0
    rho = -0.5 * sigma
    a1 = (rho * sigma + t * h * (1.0 - h)) / (1.0 + 2.0 * t * h * h)
    return GenieParams(a1, sigma, rho)


def _boundary_optimum(h: float, snr: float) -> tuple:
    """(value, params) at the exact minimiser of the bound on the noise boundary.

    The root s* = sigma*^2 of h(h+1)s^2 + 2Ks - 4K = 0 is taken as
    4K / (K + sqrt(K^2 + 4h(h+1)K)) divided through by K: the textbook
    quadratic formula cancels near h = 1, and K^2 overflows for large K.
    """
    t = snr / 3.0
    k = (h - 1.0) ** 2 * (1.0 + h * h * t)
    r = 4.0 * h * (h + 1.0) / k
    if not 0.0 < r < math.inf:
        # 4h(h+1) or K overflowed: the same ratio in two factors
        r = (4.0 * h / (h - 1.0) ** 2) * ((h + 1.0) / (1.0 + h * h * t))
    s = 4.0 / (1.0 + math.sqrt(1.0 + r))
    params = _boundary_params(h, snr, math.sqrt(s))
    return mac_bound_eval(h, snr, params), params


def mac_bound_optimize(h: float, snr: float) -> MacBoundResult:
    """Minimize the genie MAC bound over feasible (a1, sigma, rho).

    The minimum is closed-form, in two steps:

    1. Write c = rho*sigma and s = sigma^2, and hold a1 and c fixed.
       Raising s adds the PSD term e2 e2^T to K_z, and the bound
       log det(K_z + A) - log det K_z with A = (snr/3) H H^T >= 0 is
       nonincreasing in K_z in the PSD order.  So every feasible point
       (s <= -2c) is beaten by the boundary point s = -2c, that is
       rho = -sigma/2.  (At fixed sigma the bound is not monotone in rho,
       which is why the argument runs in (c, s).)
    2. On the boundary the best a1 is closed-form (_boundary_params).
       With a1 = a1*, the derivative in s vanishes where
       h(h+1)s^2 + 2Ks - 4K = 0, K = (h-1)^2 (1 + h^2 snr/3), and its
       other factors are positive.  For h > 1 the product of the roots
       is negative, so there is a single positive root s*, and the
       quadratic is positive at s = 4, so s* < 4.  For snr > 0 the bound
       tends to +inf at both ends of (0, 4), where K_z turns singular, so
       s* is the global minimum (_boundary_optimum); at snr = 0 the bound
       is 0 everywhere.

    A coarse grid over 33 values of a1 in [-4h, 4h] x _GRID_PAIRS is still
    scanned first, in a deterministic order with strict improvement, so
    ties go to the lowest lexicographic grid index.  The grid is evaluated
    on plain floats, and only the winning point becomes a GenieParams.
    The boundary optimum replaces the best grid point only if it is
    strictly lower.  The grid stays until the benchmark's measure loop
    (benchmarks/worker.py) can both time a microsecond task and hold its
    outputs.
    """
    _check_symmetric(h, snr)

    best_val = None
    best = None
    for a1 in _linspace(-4.0 * h, 4.0 * h, 33):
        for sigma, rho in _GRID_PAIRS:
            val = _mac_bound_value(h, snr, a1, sigma, rho)
            if best_val is None or val < best_val:
                best_val, best = val, (a1, sigma, rho)

    val, cand = _boundary_optimum(h, snr)
    if val < best_val:
        return MacBoundResult(val, cand)
    return MacBoundResult(best_val, GenieParams(*best))


def mac_bound_grid_min(h: float, snr: float, step: float = 0.01) -> float:
    """Dense-grid reference minimum of the genie MAC bound.

    Exhaustively evaluates the bound on a regular feasible grid with the
    given step on every axis, a1 in [-4h, 4h] and sigma in (0, 2]
    (vectorized, sweeping one sigma slice at a time).  Slow but
    search-free; used to cross-check the optimizer.

    Raises
    ------
    ValueError
        If a sigma slice would hold more than MAX_ORACLE_SLICE_POINTS
        (a1, rho) points, checked before anything is allocated.
    """
    _check_symmetric(h, snr)
    if not 0.0 < step < math.inf:
        raise ValueError(f"the grid step must be positive and finite, got {step!r}")
    box = 4.0 * h
    # a1 has 2 box/step + 1 points and rho fewer than 2/step
    points = (2.0 * box / step + 1.0) * (2.0 / step)
    if not points <= MAX_ORACLE_SLICE_POINTS:
        raise ValueError(
            f"the oracle grid at h={h:g}, step={step:g} would hold {points:.3g} points per "
            f"sigma slice, above the cap of {MAX_ORACLE_SLICE_POINTS}"
        )

    import numpy as np

    a1 = np.arange(-box, box + step / 2, step)[:, None]
    rhos = np.arange(-1.0 + step, 1.0 - step + step / 2, step)
    t = snr / 3.0
    g11 = 1.0 + 2.0 * h * h
    best = math.inf
    for sigma in np.arange(step, 2.0 + step / 2, step):
        rho = rhos[(sigma * sigma + 2.0 * rhos * sigma) <= CONSTRAINT_TOL]
        if rho.size == 0:
            continue
        c = (rho * sigma)[None, :]
        g12 = a1 + h * (1.0 - h)
        g22 = a1 * a1 + (1.0 - h) ** 2
        det_a = (1.0 + t * g11) * (sigma * sigma + t * g22) - (c + t * g12) ** 2
        det_k = sigma * sigma - c * c
        val = 0.5 * np.log2(det_a / det_k)
        best = min(best, float(val.min()))
    if not math.isfinite(best):
        raise ValueError("grid contains no feasible point")
    return max(0.0, best)


def equal_magnitude_gain(carrier: chan.SingleCarrierChannel) -> Optional[float]:
    """Return the common gain magnitude c if the carrier belongs to the
    equal-magnitude bound family, else None.

    Family membership: all nine |h| agree (relative spread below 1e-9)
    and, with P_ij = sign(h_ij h_ji h_ii h_jj) for i < j, exactly two of
    P_12, P_13, P_23 are negative.  These are the sign patterns that a
    simultaneous user relabeling plus per-receiver/per-transmitter sign
    flips (all isomorphisms of the channel) map onto a counterexample
    carrier:

    1. Each P_ij is unchanged by any row or column sign flip, because
       every flip hits two of its four factors; a relabeling permutes
       the three values.  So the orbit of the two counterexample
       carriers (two negative values each) lies inside the set.
    2. The set holds 8 * 3 * 2 * 2 * 2 = 192 of the 512 sign patterns,
       as many as the orbit (enumerated in tests/test_outerbounds.py),
       so the two are equal.

    An invalid carrier raises :class:`InvalidChannelError`.
    """
    chan.ensure_valid(carrier)
    rows = carrier._floats
    mags = [abs(x) for row in rows for x in row]
    c = max(mags)
    if c - min(mags) > MAGNITUDE_RTOL * c:
        return None
    neg = [[x < 0 for x in row] for row in rows]
    negative_pairs = sum(
        neg[i][j] ^ neg[j][i] ^ neg[i][i] ^ neg[j][j] for i, j in ((0, 1), (0, 2), (1, 2))
    )
    return c if negative_pairs == 2 else None


def _separate_gains_sq(channel: chan.ParallelChannel) -> list:
    """The squared magnitudes c_m^2 of every carrier's equal-magnitude bound.

    Raises
    ------
    NoSeparateBoundError
        If some carrier has no applicable bound.  A carrier that is
        merely singular pins its high-SNR slope but not a finite-SNR
        constant, so it is rejected too (with a distinct message).
    """
    gains_sq = []
    for m, carrier in enumerate(channel.carriers, start=1):
        c = equal_magnitude_gain(carrier)
        if c is None:
            if chan.singularity_check(carrier) is not None:
                detail = (
                    "is singular (1 degree of freedom) but no finite-SNR "
                    "constant is available for it"
                )
            else:
                detail = "matches no bound family known to this library"
            raise NoSeparateBoundError(f"carrier {m} {detail}")
        gains_sq.append(c * c)
    return gains_sq


def separate_outerbound(channel: chan.ParallelChannel, snr: float) -> float:
    """Outerbound on any separate-encoding scheme's sum rate per carrier.

    Each carrier must admit a finite-SNR bound known to this library
    (the equal-magnitude family, bound (1/2)log2(1 + c_m^2 SNR_m)); the
    per-carrier bounds are then combined through the optimal power
    allocation, exact water-filling of the total ``snr`` over the gains
    c_m^2: (1/M) max sum_m bound_m(SNR_m) over sum_m SNR_m <= snr.

    Raises
    ------
    ValueError
        If ``snr`` is NaN, infinite or negative.
    NoSeparateBoundError
        If some carrier has no applicable bound (see _separate_gains_sq).
    """
    chan.ensure_parallel_valid(channel)
    _check_power(snr)
    return _fill_rate(_prepare_fill(_separate_gains_sq(channel)), snr)
