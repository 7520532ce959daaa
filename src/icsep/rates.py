"""Achievable rates and power allocation for parallel 3-user interference channels.

Rates are in bits per real channel use, normalized per carrier (a factor
1/M in front of every sum over carriers) and use the real-channel form
(1/2)log2(1 + SINR).  Powers are linear; ``db_to_linear`` converts from dB.
``snr`` is the total transmit power, summed over users and carriers,
relative to unit noise: equal-power TIN gives each user snr/3, spread
over the carriers by its unit vector; TDMA gives all of snr to one user,
water-filled over the carriers; the separate bound water-fills snr over
the carriers; the symmetric MAC bound is one carrier with snr/3 per user.

The joint-coding inner bound here is linear beamforming across carriers
with interference treated as noise: each transmitter j sends along a unit
vector v_j with power p_j, each receiver i projects onto a unit combiner
u_i, and user i's SINR is p_i g_ii^2 / (1 + sum_{j != i} p_j g_ij^2) with
g_ij = u_i . (H_ij v_j).  On the built-in counterexample the alignment
scheme makes every cross gain g_ij (j != i) exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

from . import channel as chan

if TYPE_CHECKING:
    import numpy as np

#: relative gap below which the two carriers' entries of the alignment map T agree
ALIGNMENT_TOL = 1e-9

#: a desired gain u_i . d that cancels to this fraction of its terms |u_i[m] d[m]| is lost
DESIRED_GAIN_TOL = 1e-9

#: unit-norm check tolerance for scheme vectors
UNIT_NORM_TOL = 1e-6

#: most points of one SNR grid: a ``sweep`` (also the CLI's) or an ``estimate_dof`` fit
MAX_SNR_POINTS = 100_000

_ALLOC_OUTER_ITERS = 200
_ALLOC_INNER_ITERS = 60
_ALLOC_BUDGET_RTOL = 1e-9


class AllocationError(RuntimeError):
    """A single-carrier allocation beat the allocator (is every bound concave?)."""


class FloatRangeError(ValueError):
    """An input whose result lies beyond the floating-point range."""


def _check_power(value: float, name: str = "snr") -> None:
    """Reject a linear power that is NaN, infinite or negative."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise FloatRangeError(f"{db:g} dB is beyond the floating-point range") from None


def _linspace(start: float, stop: float, num: int) -> list:
    """``num`` evenly spaced floats from start to stop.

    Point k is start + k*step, and the last point is stop itself.
    """
    step = (stop - start) / (num - 1)
    return [start + k * step for k in range(num - 1)] + [stop]


@dataclass(frozen=True)
class BeamformingScheme:
    """Per-user transmit directions, receive combiners and powers.

    ``v[j]`` and ``u[i]`` are unit vectors of one length M (one entry per carrier);
    ``p[j]`` is user j's transmit power in linear units.  Building a scheme (also by
    :meth:`with_powers` or ``replace``) raises ValueError unless there are three of each,
    every norm is 1 within UNIT_NORM_TOL and every power is finite and nonnegative.
    """

    v: tuple
    u: tuple
    p: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        try:
            v, u = (tuple(tuple(float(x) for x in vec) for vec in vecs) for vecs in (self.v, self.u))
            p = tuple(float(x) for x in self.p)
        except TypeError:  # e.g. a bare number where a vector or the power triple belongs
            v = u = p = ()
        if len(v) != 3 or len(u) != 3 or len(p) != 3:
            raise ValueError("a scheme needs 3 transmit vectors, 3 combiners and 3 powers")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "p", p)
        m = len(self.v[0])
        for name, vecs in (("v", self.v), ("u", self.u)):
            for idx, vec in enumerate(vecs, start=1):
                if len(vec) != m:
                    raise ValueError(f"scheme {name}[{idx}] has length {len(vec)}, v[1] has {m}")
                norm = math.sqrt(_dot(vec, vec))
                if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # negated, so that a NaN fails it
                    raise ValueError(f"scheme {name}[{idx}] is not unit norm (|v| = {norm:.6g})")
        for j, x in enumerate(self.p, start=1):
            _check_power(x, f"power p[{j}]")

    def with_powers(self, p) -> "BeamformingScheme":
        return replace(self, p=p)

    def with_equal_power(self, total_snr: float) -> "BeamformingScheme":
        """Give each user total_snr/3, spread over the carriers by its unit vector v_j."""
        return self.with_powers((total_snr / 3.0,) * 3)


@dataclass(frozen=True)
class RateReport:
    """Per-user and sum rates, in bits per real use per carrier."""

    per_user_rate: tuple
    sum_rate: float


@dataclass(frozen=True)
class PowerAllocation:
    """Per-carrier linear powers; their sum stays within the total budget."""

    per_carrier: tuple


@dataclass(frozen=True)
class SweepResult:
    """One SNR point of the joint-vs-separate comparison sweep."""

    snr_db: float
    joint_tin: float
    separate_outer: Optional[float]
    tdma: float
    scheme_note: str


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    """Sum of a_m b_m, added strictly left to right.

    Written as a loop rather than sum(), which compensates float sums
    from Python 3.12 on, and rather than BLAS, whose fused multiply-adds
    round differently: a combiner orthogonal to the interference by sign
    symmetry then cancels to an exact zero.
    """
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _times(a: Sequence[float], b: Sequence[float]) -> list:
    """Entrywise product a_m b_m of two per-carrier vectors."""
    return [x * y for x, y in zip(a, b)]


def _unit(w: Sequence[float]) -> list:
    """w scaled to unit Euclidean norm."""
    norm = math.sqrt(_dot(w, w))
    if not 0.0 < norm < math.inf:
        # the squares overflowed or underflowed; hypot scales them first
        norm = math.hypot(*w)
    return [x / norm for x in w]


def _effective_gains(channel: chan.ParallelChannel, scheme: BeamformingScheme) -> list:
    """The projected link gains g_ij = u_i . (H_ij v_j), as nested Python floats."""
    if (m := len(scheme.v[0])) != channel.n_carriers:  # zip would drop the extra entries
        raise ValueError(f"scheme vectors have length {m}, channel has {channel.n_carriers} carriers")
    return [
        [
            _dot(scheme.u[i - 1], _times(channel._link_gains(i, j), scheme.v[j - 1]))
            for j in chan.USERS
        ]
        for i in chan.USERS
    ]


def effective_gains(channel: chan.ParallelChannel, scheme: BeamformingScheme) -> np.ndarray:
    """The 3x3 matrix of projected link gains g_ij = u_i . (H_ij v_j).

    The diagonal holds the desired gains, off-diagonal entries are the
    residual interference amplitudes after combining (exactly zero for a
    perfectly aligned scheme: the dot products are summed left to right in
    plain float arithmetic).
    """
    import numpy as np

    return np.array(_effective_gains(channel, scheme))


def _squared(g: list) -> list:
    """Entrywise squares of a nested list of gains."""
    return [[x**2 for x in row] for row in g]


def _log2_product(a: float, b: float) -> float:
    """log2(a b) for a, b >= 0 (-inf at an exact zero), finite where a b overflows."""
    return -math.inf if a == 0.0 or b == 0.0 else math.log2(a) + math.log2(b)


def _log2_1p_ratio(a: float, b: float, noise_terms: Sequence[tuple] = ()) -> float:
    """log2(1 + a b / (1 + sum of a_j b_j)) in the log domain, finite where a product overflows."""
    logs = [0.0] + [_log2_product(x, y) for x, y in noise_terms]
    top = max(logs)
    d = _log2_product(a, b) - (top + math.log2(sum(2.0 ** (x - top) for x in logs)))
    return max(d, 0.0) + math.log1p(2.0 ** -abs(d)) / math.log(2.0)


def _half_log2_1p(g: float, p: float) -> float:
    """(1/2)log2(1 + g p) on one carrier, finite where g p overflows.

    A finite product takes the plain formula, so its rate is unchanged bit
    for bit; only an overflowed one goes through the log domain.
    """
    x = g * p
    return 0.5 * math.log2(1.0 + x) if x < math.inf else 0.5 * _log2_1p_ratio(g, p)


def _tin_rates(gains_sq: list, p: Sequence[float], m: int) -> tuple:
    """Per-user TIN rates (1/M)(1/2)log2(1 + SINR_i), in the log domain where a power overflows."""
    rates = []
    # (user, its two interferers); a + b is what builtin sum gives for two terms
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        row = gains_sq[i]
        signal = p[i] * row[i]
        noise = 1.0 + (p[j] * row[j] + p[k] * row[k])
        if signal < math.inf and noise < math.inf:
            rates.append(0.5 / m * math.log2(1.0 + signal / noise))
        else:
            others = [(p[j], row[j]), (p[k], row[k])]
            rates.append(0.5 * _log2_1p_ratio(p[i], row[i], others) / m)
    return tuple(rates)


def tin_rate(channel: chan.ParallelChannel, scheme: BeamformingScheme) -> RateReport:
    """Sum rate of the beamforming scheme with interference treated as noise.

    Returns per-user rates (1/M)(1/2)log2(1 + SINR_i) with unit noise
    power after combining (the combiners are unit norm).

    Raises
    ------
    ValueError
        Unless the scheme's vectors have one entry per carrier.
    """
    chan.ensure_parallel_valid(channel)
    rates = _tin_rates(_squared(_effective_gains(channel, scheme)), scheme.p, channel.n_carriers)
    return RateReport(rates, sum(rates))


class _Fill(NamedTuple):
    """The budget-free part of water-filling one gain vector, as Python floats."""

    pairs: tuple  # (g_m, o_m), o_m = 1/g_m - min_k 1/g_k, the loop items of _fill_rate
    steps: tuple  # (k, k-th lowest offset), the loop items of _level


def _prepare_fill(gains_sq: Sequence[float]) -> _Fill:
    """Offsets o_m of the floors 1/g_m above the lowest one, and the loop items of
    _level and _fill_rate built from them once.

    Raises
    ------
    ValueError
        If there is no squared gain, or some squared gain is not a finite
        positive float whose reciprocal is finite too.
    """
    gains_sq = [float(g) for g in gains_sq]
    if not gains_sq:
        raise ValueError("need at least one squared gain")
    for g in gains_sq:
        # negated comparisons, so that a NaN fails them
        if not (0.0 < g < math.inf and 1.0 / g < math.inf):
            raise ValueError(
                f"squared gains must be finite and positive, with a finite reciprocal, got {g!r}"
            )
    floors = [1.0 / g for g in gains_sq]
    lowest = min(floors)
    offsets = [floor - lowest for floor in floors]
    return _Fill(tuple(zip(gains_sq, offsets)), tuple(enumerate(sorted(offsets), start=1)))


def _level(fill: _Fill, budget: float) -> float:
    """The water level of one budget over a prepared gain vector, above the lowest floor.

    The level over the k lowest offsets is (budget + their running sum)/k; the
    largest k whose level is at or above its own k-th offset sets it.  The first
    offset is 0, so k = 1 always is, and a zero budget has level 0.0.  Then
    p_m = max(0, level - o_m) is written ``0.0 if d <= 0.0 else d`` so that a
    NaN stays NaN.  The caller has checked that the budget is finite and nonnegative.
    """
    total = 0.0
    for k, offset in fill.steps:
        total += offset
        candidate = (budget + total) / k
        if candidate >= offset:
            level = candidate
    return level


def _fill_rate(fill: _Fill, budget: float) -> float:
    """(1/M) sum_m (1/2)log2(1 + g_m p_m) at the water-filling split of ``budget``."""
    level = _level(fill, budget)
    # a loop, as a comprehension is one more frame on 3.11, into builtin sum, not a
    # running total, which would round differently from 3.12 on
    rates = []
    for g, offset in fill.pairs:
        rates.append(_half_log2_1p(g, 0.0 if (d := level - offset) <= 0.0 else d))
    return sum(rates) / len(rates)


def water_fill(gains_sq: Sequence[float], budget: float) -> tuple:
    """Optimal power split for sum_m (1/2)log2(1 + g_m p_m) under sum_m p_m <= budget."""
    fill = _prepare_fill(gains_sq)
    _check_power(budget, "power budget")
    level = _level(fill, budget)
    return tuple(0.0 if (d := level - offset) <= 0.0 else d for _, offset in fill.pairs)


def _direct_fill(channel: chan.ParallelChannel, user: int) -> _Fill:
    """The prepared fill of one user's direct gains h_m[i][i]^2 across the carriers."""
    return _prepare_fill([g * g for g in channel._link_gains(user, user)])


def tdma_rate(channel: chan.ParallelChannel, active_user: int, snr: float) -> RateReport:
    """Best single-user rate: water-fill the whole budget over the carriers.

    Only ``active_user`` (1-based) transmits, with all of ``snr``;
    everyone else is silent, so there is no interference and the problem
    is a parallel point-to-point link with per-carrier gains h_m[i][i].
    """
    chan.ensure_parallel_valid(channel)
    if not chan.is_user(active_user):
        raise ValueError(f"active_user must be an integer in 1..3, got {active_user!r}")
    _check_power(snr)
    rate = _fill_rate(_direct_fill(channel, active_user), snr)
    per_user = tuple(rate if i == active_user else 0.0 for i in chan.USERS)
    return RateReport(per_user, rate)


def _tdma_curve(channel: chan.ParallelChannel) -> Callable[[float], float]:
    """snr -> the best user's TDMA sum rate."""
    a, b, c = (_direct_fill(channel, i) for i in chan.USERS)
    return lambda snr: max(_fill_rate(a, snr), _fill_rate(b, snr), _fill_rate(c, snr))


def _tin_curve(channel: chan.ParallelChannel) -> Optional[Callable[[float], float]]:
    """snr -> the aligned scheme's equal-power TIN sum rate, or None without alignment."""
    scheme = ia_feasibility(channel)
    if scheme is None:
        return None
    gains_sq = _squared(_effective_gains(channel, scheme))
    m = channel.n_carriers
    # the powers of scheme.with_equal_power(snr)
    return lambda snr: sum(_tin_rates(gains_sq, (snr / 3.0,) * 3, m))


def _marginal(f: Callable[[float], float], p: float) -> float:
    # central difference, one-sided at the p = 0 boundary
    step = 1e-6 * (1.0 + abs(p))
    lo = max(0.0, p - step)
    return (f(p + step) - f(lo)) / (p + step - lo)


def allocate_power(
    per_carrier_bound: Sequence[Callable[[float], float]],
    total_snr: float,
) -> PowerAllocation:
    """Maximize sum_m f_m(p_m) subject to sum_m p_m <= total_snr, p_m >= 0.

    The general-concave allocator, kept for the public API and as a test
    reference; the library's own (1/2)log2(1 + g p) bounds use water_fill.

    Every ``f_m`` must be concave and nondecreasing.  The allocator
    bisects the common marginal-value multiplier, with per-carrier
    marginals estimated by numerical differentiation.  Their noise can
    make the spend jump across the budget, so the end of the final
    multiplier bracket whose spend is nearer the budget is rescaled onto
    it; the returned allocation spends the whole budget (with slack only
    when every marginal is exhausted first).

    Raises
    ------
    AllocationError
        If giving the whole budget to one carrier beats the result by
        more than 1e-12 relative, which signals a non-concave input.
    """
    fns = list(per_carrier_bound)
    if not fns:
        raise ValueError("need at least one per-carrier bound")
    _check_power(total_snr, "total_snr")

    marg0 = [max(0.0, _marginal(f, 0.0)) for f in fns]
    marg_cap = [_marginal(f, total_snr) for f in fns]

    def p_of(idx: int, lam: float) -> float:
        if marg0[idx] <= lam:
            return 0.0
        if marg_cap[idx] >= lam:
            return total_snr
        lo, hi = 0.0, total_snr
        f = fns[idx]
        for _ in range(_ALLOC_INNER_ITERS):
            mid = 0.5 * (lo + hi)
            if _marginal(f, mid) > lam:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def total_of(lam: float) -> tuple:
        alloc = [p_of(i, lam) for i in range(len(fns))]
        return sum(alloc), alloc

    lam_lo, lam_hi = 0.0, max(marg0)
    over = total_of(lam_lo)
    if over[0] <= total_snr * (1.0 + _ALLOC_BUDGET_RTOL):
        # marginals exhausted before the budget; leaving slack is optimal
        alloc = over[1]
    else:
        under = total_of(lam_hi)
        for _ in range(_ALLOC_OUTER_ITERS):
            lam_mid = 0.5 * (lam_lo + lam_hi)
            mid = total_of(lam_mid)
            if mid[0] >= total_snr:
                lam_lo, over = lam_mid, mid
            else:
                lam_hi, under = lam_mid, mid
            if lam_hi - lam_lo <= 1e-15 * max(lam_hi, 1e-300):
                break
        spent, alloc = over
        if 0.0 < under[0] and total_snr - under[0] < spent - total_snr:
            spent, alloc = under
        alloc = [p * (total_snr / spent) for p in alloc]

    value = sum(f(p) for f, p in zip(fns, alloc))
    at_zero = [f(0.0) for f in fns]
    corner = max(sum(at_zero) - z + f(total_snr) for f, z in zip(fns, at_zero))
    if corner - value > 1e-12 * abs(corner):
        raise AllocationError(
            f"one carrier alone reaches {corner:.17g}, above the allocation's "
            f"{value:.17g}; per-carrier bounds do not look concave"
        )
    return PowerAllocation(tuple(alloc))


def _chain_map(h12, h31, h32, h23, h13, h21):
    """Sign parity and log2 magnitude of one carrier's T = (h12/h32)(h31/h13)(h23/h21),
    summed over the three ratios: a ratio of two valid gains is a normal float, and T
    itself, which can overflow or underflow, is never formed."""
    ratios = (h12 / h32, h31 / h13, h23 / h21)
    return sum(r < 0 for r in ratios) % 2, sum(math.log2(abs(r)) for r in ratios)


def ia_feasibility(channel: chan.ParallelChannel) -> Optional[BeamformingScheme]:
    """Try to align all interference across the carriers.

    Solves the alignment chain v3 ~ H23^-1 H21 v1, v2 ~ H32^-1 H31 v1;
    closing the chain at receiver 1 requires v1 to be an eigenvector of
    the diagonal map T = (H13 H23^-1 H21)^-1 H12 H32^-1 H31.  When T is a
    multiple of the identity (same sign on both carriers, magnitudes
    within a relative ALIGNMENT_TOL, compared as log2 magnitudes) any
    direction works and v1 = [1, 1]/sqrt(2) is picked; each combiner u_i
    is then the unit vector orthogonal to the aligned interference at
    receiver i, sign-fixed so the desired gain is positive.

    Returns None off two carriers (no construction is implemented there
    yet), when T has distinct eigenvalues (the only eigenvectors are the
    coordinate axes, which collapse one carrier) or when some desired gain
    u_i . d, d = H_ii v_i, cancels to at most DESIRED_GAIN_TOL
    (|u_i[0] d[0]| + |u_i[1] d[1]|); these two gain tests are unchanged
    when one carrier's or one user's gains are scaled.
    """
    chan.ensure_parallel_valid(channel)
    if channel.n_carriers != 2:
        return None
    d = {(i, j): channel._link_gains(i, j) for i in chan.USERS for j in chan.USERS}
    per_carrier = zip(d[(1, 2)], d[(3, 1)], d[(3, 2)], d[(2, 3)], d[(1, 3)], d[(2, 1)])
    (sign0, log0), (sign1, log1) = (_chain_map(*gains) for gains in per_carrier)
    if sign0 != sign1 or abs(log0 - log1) > math.log2(1.0 + ALIGNMENT_TOL):
        return None

    v1 = [1.0 / math.sqrt(2.0)] * 2
    v2 = _unit([a / b * x for a, b, x in zip(d[(3, 1)], d[(3, 2)], v1)])
    v3 = _unit([a / b * x for a, b, x in zip(d[(2, 1)], d[(2, 3)], v1)])
    v = (v1, v2, v3)

    u = []
    for i in chan.USERS:
        j = min(x for x in chan.USERS if x != i)
        w = _times(d[(i, j)], v[j - 1])
        ui = _unit([-w[1], w[0]])
        desired = _times(d[(i, i)], v[i - 1])
        gain = _dot(ui, desired)
        if abs(gain) <= DESIRED_GAIN_TOL * sum(abs(x * y) for x, y in zip(ui, desired)):
            return None
        if gain < 0:
            ui = [-x for x in ui]
        u.append(ui)

    return BeamformingScheme(v, u)


def sweep(channel: chan.ParallelChannel, snr_db_grid: Iterable[float]) -> list:
    """Joint TIN rate vs separate-encoding outerbound vs TDMA over an SNR grid.

    The joint curve uses the alignment scheme (when feasible) with an
    equal power split p_j = SNR/3, and falls back to the best TDMA rate
    otherwise.  If no separate-encoding bound applies to the channel the
    separate column is None and the note says so.  The grid may be any
    iterable; at most MAX_SNR_POINTS + 1 of its values are read.
    """
    grid = [float(x) for x in islice(snr_db_grid, MAX_SNR_POINTS + 1)]
    if not grid:
        raise ValueError("snr_db_grid must be nonempty")
    if len(grid) > MAX_SNR_POINTS:
        raise ValueError(f"the SNR grid would have more than {MAX_SNR_POINTS} points")
    if not all(math.isfinite(x) for x in grid):
        raise ValueError("snr_db_grid values must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("snr_db_grid must be strictly increasing")

    # imported here: outerbounds builds on the water-fill core of this module
    from .outerbounds import NoSeparateBoundError, _separate_gains_sq

    joint = _tin_curve(channel)  # ia_feasibility validates the channel first
    tdma = _tdma_curve(channel)
    note = "tdma-fallback no-ia" if joint is None else "ia-zf-tin equal-power"
    try:
        separate = _prepare_fill(_separate_gains_sq(channel))
    except NoSeparateBoundError:
        separate = None
        note += " no-separate-bound"
    results = []
    for db in grid:
        snr = db_to_linear(db)
        best_tdma = tdma(snr)
        results.append(
            SweepResult(
                db,
                best_tdma if joint is None else joint(snr),
                None if separate is None else _fill_rate(separate, snr),
                best_tdma,
                note,
            )
        )
    return results
