"""High-SNR slope estimation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icsep.dof import estimate_dof
from icsep.rates import MAX_SNR_POINTS, _linspace, db_to_linear


def test_exact_affine_input_recovers_slope():
    est = estimate_dof(lambda s: 1.5 * 0.5 * math.log2(s), 40, 80, 21)
    assert est.slope == pytest.approx(1.5, abs=1e-9)


def test_point_to_point_reads_slope_one():
    est = estimate_dof(lambda s: 0.5 * math.log2(1.0 + s), 40, 80, 21)
    assert est.slope == pytest.approx(1.0, abs=1e-3)


def test_constant_offsets_leave_slope_unchanged():
    base = lambda s: 0.7 * 0.5 * math.log2(s) + 0.3
    ref = estimate_dof(base, 40, 80, 21).slope
    window = 0.5 * math.log2(10.0 ** 8 / 10.0 ** 4)  # x-range of the 40-80 dB window
    for bound in (0.5, 2.0, 10.0):
        shifted = estimate_dof(lambda s: base(s) + bound, 40, 80, 21).slope
        assert abs(shifted - ref) <= 2.0 * bound / window
        assert shifted == pytest.approx(ref, abs=1e-9)


def test_bounded_wiggle_perturbs_slope_within_window_bound():
    base = lambda s: 0.5 * math.log2(s)
    ref = estimate_dof(base, 40, 80, 41).slope
    bound = 0.05
    wiggle = lambda s: base(s) + bound * math.sin(17.0 * math.log(s))
    got = estimate_dof(wiggle, 40, 80, 41).slope
    window = 0.5 * math.log2(10.0 ** 8 / 10.0 ** 4)
    # bounded perturbations move the least-squares slope by O(B / window)
    assert abs(got - ref) <= 3.0 * bound / window


def test_window_validation():
    fn = lambda s: 0.5 * math.log2(s)
    with pytest.raises(ValueError, match="30"):
        estimate_dof(fn, 10, 80, 21)
    with pytest.raises(ValueError, match="exceed"):
        estimate_dof(fn, 50, 40, 21)
    with pytest.raises(ValueError, match="5"):
        estimate_dof(fn, 40, 80, 4)


def test_nonfinite_rate_diagnostic():
    with pytest.raises(ValueError, match="non-finite"):
        estimate_dof(lambda s: float("nan"), 40, 80, 5)


@pytest.mark.parametrize("lo, hi, match", [
    (40.0, math.inf, "window must be finite"),
    (40.0, math.nan, "window must be finite"),
    (math.nan, 80.0, "window must be finite"),
    (-math.inf, 80.0, "window must be finite"),
    (40.0, 4000.0, "beyond the floating-point range"),
    # int bounds that math.isfinite cannot convert to a float (it raises OverflowError)
    pytest.param(40, 10**400, "beyond the floating-point range", id="int-hi-past-float-range"),
    pytest.param(10**400, 10**401, "beyond the floating-point range", id="int-window-past-float-range"),
])
def test_bad_window_rejected_before_any_rate_call(lo, hi, match):
    calls = []
    with pytest.raises(ValueError, match=match):
        estimate_dof(lambda s: calls.append(s) or 1.0, lo, hi, 21)
    assert calls == []


def test_window_without_spread_rejected_before_any_rate_call():
    # every point's 10 ** (db / 10) rounds to 1e100, so x = (1/2)log2(SNR) has no spread
    calls = []
    with pytest.raises(ValueError, match=r"window \[1000\.0, 1000\.0000000000001\] has no spread"):
        estimate_dof(lambda s: calls.append(s) or 1.0, 1000.0, math.nextafter(1000.0, 2000.0), 5)
    assert calls == []


def test_oversized_grid_rejected_before_any_rate_call():
    # the fit shares the CLI sweep's bound; no grid is built past it
    calls = []
    with pytest.raises(ValueError, match="5"):
        estimate_dof(lambda s: calls.append(s) or 1.0, 40.0, 80.0, MAX_SNR_POINTS + 1)
    assert calls == []


def test_largest_grid_is_accepted():
    est = estimate_dof(lambda s: 0.5 * math.log2(s), 40.0, 80.0, MAX_SNR_POINTS)
    assert est.slope == pytest.approx(1.0)


@pytest.mark.parametrize("n_points", [21.0, 21.5, "21", None])
def test_non_integer_grid_size_rejected_before_any_rate_call(n_points):
    calls = []
    with pytest.raises(ValueError, match="n_points must be an integer"):
        estimate_dof(lambda s: calls.append(s) or 1.0, 40.0, 80.0, n_points)
    assert calls == []


@pytest.mark.parametrize("n_points", [21, np.int64(21), np.int32(21)])
def test_integer_grid_size_types_accepted(n_points):
    assert estimate_dof(lambda s: 0.5 * math.log2(s), 40.0, 80.0, n_points).slope == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(
    slope=st.floats(-3.0, 3.0),
    offset=st.floats(-10.0, 10.0),
    wiggle=st.floats(0.0, 1.0),
    freq=st.floats(0.1, 20.0),
    lo=st.floats(30.0, 100.0),
    width=st.floats(1.0, 60.0),
    n=st.integers(5, 60),
)
def test_slope_matches_polyfit(slope, offset, wiggle, freq, lo, width, n):
    # an affine curve in x = (1/2)log2(snr) plus a bounded perturbation
    def rate(snr):
        x = 0.5 * math.log2(snr)
        return slope * x + offset + wiggle * math.sin(freq * x)

    snrs = 10.0 ** (np.linspace(lo, lo + width, n) / 10.0)
    want = np.polyfit(0.5 * np.log2(snrs), [rate(s) for s in snrs], 1)[0]
    assert estimate_dof(rate, lo, lo + width, n).slope == pytest.approx(want, abs=1e-12)


def uncached_slope(rate_fn, lo=40.0, hi=80.0, n=21):
    """Reference copy of the fit with its SNR grid built on every call."""
    dbs = _linspace(lo, hi, n)
    snrs = [db_to_linear(db) for db in dbs]
    x = [0.5 * math.log2(snr) for snr in snrs]
    y = [float(rate_fn(snr)) for snr in snrs]
    x_mean, y_mean = math.fsum(x) / n, math.fsum(y) / n
    xm = [v - x_mean for v in x]
    ym = [v - y_mean for v in y]
    return math.fsum(a * b for a, b in zip(xm, ym)) / math.fsum(a * a for a in xm)


@settings(max_examples=50, deadline=None)
@given(
    slope=st.floats(-3.0, 3.0),
    wiggle=st.floats(0.0, 1.0),
    freq=st.floats(0.1, 20.0),
    lo=st.floats(30.0, 100.0),
    width=st.floats(1.0, 60.0),
    n=st.integers(5, 60),
)
def test_estimate_dof_is_the_uncached_fit_bit_for_bit(slope, wiggle, freq, lo, width, n):
    def rate(snr):
        x = 0.5 * math.log2(snr)
        return slope * x + wiggle * math.sin(freq * x)

    # windows interleaved, so that a grid cached for the wrong window would show
    for window in ((), (30.0, 90.0, 41), (), (lo, lo + width, n), (), (40, 80, 21)):
        assert estimate_dof(rate, *window).slope.hex() == uncached_slope(rate, *window).hex()
