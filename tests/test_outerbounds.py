"""Outerbound tests: closed forms, the genie MAC bound, bound composition."""

import copy
import dataclasses
import itertools
import math
import pickle
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from icsep import channel as chan
from icsep import outerbounds as ob
from icsep.rates import FloatRangeError, tin_rate, BeamformingScheme, _linspace

CE = chan.make_counterexample()


def carrier(rows):
    return chan.SingleCarrierChannel(tuple(tuple(r) for r in rows))


# --------------------------------------------------------------- example 1

def test_example1_bound_values():
    assert ob.example1_bound(15.0) == pytest.approx(2.0, abs=1e-12)
    assert ob.example1_bound(0.0) == 0.0
    assert ob.example1_bound(3.0) == pytest.approx(1.0, abs=1e-12)


def test_example1_bound_rejects_negative_snr():
    with pytest.raises(ValueError):
        ob.example1_bound(-1.0)


def test_example1_bound_rejects_non_finite_snr():
    for snr in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ob.example1_bound(snr)


def test_example1_dominates_single_carrier_tin():
    """An outerbound must sit above the TIN innerbound at the same power."""
    single = chan.ParallelChannel((CE.carriers[0],))
    scheme = BeamformingScheme(v=((1.0,),) * 3, u=((1.0,),) * 3)
    for snr in (0.5, 5.0, 50.0, 500.0):
        achievable = tin_rate(single, scheme.with_equal_power(snr)).sum_rate
        assert ob.example1_bound(snr) >= achievable


# ----------------------------------------------------------- genie params

def test_genie_constraint_arithmetic():
    # sigma=1, rho=-1/2 sits exactly on the noise-enhancement boundary
    params = ob.GenieParams(a1=0.0, sigma=1.0, rho=-0.5)
    assert params.noise_enhancement() == pytest.approx(1.0, abs=1e-15)
    assert params.feasible()


# ----------------------------------------------------------- mac_bound_eval

def test_mac_bound_eval_frozen_value():
    # frozen from the hand-expanded 2x2 determinant: det ratio 2987/27
    got = ob.mac_bound_eval(2.0, 10.0, ob.GenieParams(0.0, 1.0, -0.5))
    assert got == pytest.approx(0.5 * math.log2(2987.0 / 27.0), abs=1e-15)
    assert got == pytest.approx(3.394797010073661, abs=1e-12)


def test_mac_bound_eval_zero_snr():
    assert ob.mac_bound_eval(2.0, 0.0, ob.GenieParams(0.3, 1.0, -0.6)) == 0.0


def test_mac_bound_eval_rejects_small_h():
    with pytest.raises(ValueError, match="h > 1"):
        ob.mac_bound_eval(1.0, 1.0, ob.GenieParams(0.0, 1.0, -0.5))


@pytest.mark.parametrize("fn", [
    lambda h, snr: ob.mac_bound_eval(h, snr, ob.GenieParams(0.0, 1.0, -0.5)),
    ob.mac_bound_optimize,
    ob.mac_bound_grid_min,
], ids=["eval", "optimize", "grid_min"])
def test_mac_bound_rejects_non_finite_inputs(fn):
    # NaN compares False with everything, so it must be rejected explicitly
    # rather than evaluated to a bound of 0
    for h, snr in ((math.nan, 10.0), (math.inf, 10.0), (2.0, math.nan), (2.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            fn(h, snr)


def test_mac_bound_eval_rejects_infeasible_params():
    with pytest.raises(ob.InfeasibleGenieParamsError):
        ob.mac_bound_eval(2.0, 1.0, ob.GenieParams(0.0, -1.0, -0.5))
    with pytest.raises(ob.InfeasibleGenieParamsError):
        ob.mac_bound_eval(2.0, 1.0, ob.GenieParams(0.0, 1.0, 0.9999999999999))
    with pytest.raises(ob.InfeasibleGenieParamsError):
        # positive correlation enhances the noise beyond unit power
        ob.mac_bound_eval(2.0, 1.0, ob.GenieParams(0.0, 1.0, 0.5))


def test_feasible_params_near_unit_correlation_are_evaluated():
    # feasible() and mac_bound_eval apply one |rho| limit: params that
    # reach past it are infeasible rather than feasible and unevaluable
    sigma = 2 - 1e-13
    params = ob.GenieParams(0.0, sigma, -sigma / 2)
    assert not params.feasible()
    with pytest.raises(ob.InfeasibleGenieParamsError, match="singular"):
        ob.mac_bound_eval(2.0, 10.0, params)


# a NaN field must fail the guards, not evaluate to a bound of 0
def test_mac_bound_eval_rejects_nan_a1():
    with pytest.raises(ob.InfeasibleGenieParamsError):
        ob.mac_bound_eval(2.0, 10.0, ob.GenieParams(math.nan, 1.0, -0.5))


def test_mac_bound_eval_rejects_nan_sigma():
    with pytest.raises(ob.InfeasibleGenieParamsError):
        ob.mac_bound_eval(2.0, 10.0, ob.GenieParams(0.0, math.nan, -0.5))


def test_mac_bound_eval_rejects_nan_rho():
    with pytest.raises(ob.InfeasibleGenieParamsError):
        ob.mac_bound_eval(2.0, 10.0, ob.GenieParams(0.0, 1.0, math.nan))


_RHO_LIMIT = 1.0 - 1e-12  # |rho| at or past it makes K_z (numerically) singular


@st.composite
def _sigma_rho(draw):
    """(sigma, rho) with the edges of admissibility drawn often: zero, NaN,
    +-inf, |rho| at an ulp of its limit, and rho an ulp from the noise
    boundary rho = -sigma/2."""
    special = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
    sigma = draw(special | st.floats() | st.floats(0.0, 2.5))
    boundary = -sigma / 2.0
    near_limit = st.sampled_from(
        [_RHO_LIMIT, math.nextafter(_RHO_LIMIT, 0.0), math.nextafter(_RHO_LIMIT, 2.0)]
    )
    rho = draw(
        special
        | st.floats()
        | st.floats(-1.0, 1.0)
        | st.builds(lambda r, s: r * s, near_limit, st.sampled_from([-1.0, 1.0]))
        | st.sampled_from(
            [boundary, math.nextafter(boundary, -math.inf), math.nextafter(boundary, math.inf)]
        )
    )
    return sigma, rho


@settings(max_examples=300)
@given(st.floats() | st.sampled_from([math.inf, -math.inf, math.nan]), _sigma_rho())
# the parent called an infinite a1 feasible, and mac_bound_eval rejected it
@example(math.inf, (1.0, -0.5))
@example(-math.inf, (1.0, -0.5))
def test_feasible_is_exactly_what_mac_bound_eval_accepts(a1, sigma_rho):
    params = ob.GenieParams(a1, *sigma_rho)
    rejected = False
    try:
        ob.mac_bound_eval(2.0, 10.0, params)
    except ob.InfeasibleGenieParamsError:
        rejected = True
    except FloatRangeError:
        pass  # admissible, but the arithmetic leaves the float range
    assert params.feasible() is not rejected


@pytest.mark.parametrize("a1, snr", [(1.7e308, 10.0), (1e157, 1e153)])
def test_feasible_a1_past_the_float_range_is_a_float_range_error(a1, snr):
    # a1^2 and t (a1 + h(1 - h)) overflow, so det_a is inf - inf; the parent
    # raised InfeasibleGenieParamsError on params feasible() accepts
    params = ob.GenieParams(a1, 1.0, -0.5)
    assert params.feasible()
    with pytest.raises(FloatRangeError, match="floating-point range"):
        ob.mac_bound_eval(2.0, snr, params)


def test_mac_bound_eval_nondecreasing_in_snr():
    params = ob.GenieParams(-0.3, 1.2, -0.61)
    values = [ob.mac_bound_eval(2.0, s, params) for s in np.linspace(0.0, 50.0, 40)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_determinant_identity_against_cholesky():
    """Closed-form det ratio vs a Cholesky log-det evaluation."""
    rng = np.random.default_rng(5)
    h = 2.0
    for _ in range(25):
        sigma = float(rng.uniform(0.1, 1.9))
        rho = float(rng.uniform(-0.95, -sigma / 2))
        a1 = float(rng.uniform(-8, 8))
        snr = float(rng.uniform(0.0, 200.0))
        params = ob.GenieParams(a1, sigma, rho)

        hmat = np.array([[1.0, h, h], [a1, 1.0 - h, 0.0]])
        k = np.array([[1.0, rho * sigma], [rho * sigma, sigma * sigma]])
        a = k + snr / 3.0 * hmat @ hmat.T
        la, lk = np.linalg.cholesky(a), np.linalg.cholesky(k)
        ratio_chol = math.exp(2.0 * (np.sum(np.log(np.diag(la))) - np.sum(np.log(np.diag(lk)))))

        value = ob.mac_bound_eval(h, snr, params)
        ratio_direct = 2.0 ** (2.0 * value)
        assert ratio_direct == pytest.approx(ratio_chol, rel=1e-10)


# ------------------------------------------------------- mac_bound_optimize

def test_mac_bound_optimize_is_min_over_probes():
    result = ob.mac_bound_optimize(2.0, 10.0)
    assert result.value >= 0.0
    assert result.params.feasible()
    probes = [
        ob.GenieParams(0.0, 1.0, -0.5),
        ob.GenieParams(-1.0, 0.5, -0.9),
        ob.GenieParams(2.0, 1.5, -0.8),
    ]
    for p in probes:
        assert result.value <= ob.mac_bound_eval(2.0, 10.0, p) + 1e-12


def test_mac_bound_optimize_zero_snr():
    assert ob.mac_bound_optimize(2.0, 0.0).value == 0.0


def test_mac_bound_optimize_rejects_small_h():
    with pytest.raises(ValueError, match="h > 1"):
        ob.mac_bound_optimize(0.5, 1.0)


def test_mac_bound_optimize_deterministic():
    a = ob.mac_bound_optimize(2.0, 10.0)
    b = ob.mac_bound_optimize(2.0, 10.0)
    assert a == b


# fixed inputs for the check against the dense-grid oracle
@pytest.mark.parametrize("h, snr_db", [
    (6.8122, 3.808),
    (8.3585, 14.535),
    (5.3698, 4.032),
    (6.4548, -9.964),
    (4.7583, -5.433),
])
def test_mac_bound_optimize_reaches_grid_min(h, snr_db):
    snr = 10.0 ** (snr_db / 10.0)
    assert ob.mac_bound_optimize(h, snr).value <= ob.mac_bound_grid_min(h, snr) + 1e-3


# mac_bound_grid_min takes up to ~0.4 s per example at h = 20
@settings(max_examples=20, deadline=None)
@given(
    log_h=st.floats(math.log(1.01), math.log(20.0)),
    log_snr=st.floats(math.log(1e-3), math.log(1e7)),
)
def test_mac_bound_optimize_never_above_grid_min(log_h, log_snr):
    h, snr = math.exp(log_h), math.exp(log_snr)
    assert ob.mac_bound_optimize(h, snr).value <= ob.mac_bound_grid_min(h, snr) + 1e-3


@settings(max_examples=50)
@given(
    h=st.floats(1.01, 20.0),
    snr=st.floats(1e-3, 1e7),
    sigma=st.floats(1e-3, 2.0 - 1e-3),
    delta=st.sampled_from([1e-6, 1e-3, 0.1, 1.0]),
)
def test_boundary_a1_is_the_exact_minimiser(h, snr, sigma, delta):
    best = ob._boundary_params(h, snr, sigma)
    at_best = ob.mac_bound_eval(h, snr, best)
    for a1 in (best.a1 - delta, best.a1 + delta):
        moved = ob.GenieParams(a1, best.sigma, best.rho)
        assert ob.mac_bound_eval(h, snr, moved) >= at_best - 1e-12 * max(1.0, at_best)


@pytest.mark.parametrize("h, snr", [(2.0, 1.0), (2.0, 10.0), (6.8122, 2.4033), (1.5, 1e5)])
def test_mac_bound_optimize_boundary_solution_is_feasible(h, snr):
    result = ob.mac_bound_optimize(h, snr)
    # on these inputs the closed-form boundary optimum beats every grid point
    assert (result.value, result.params) == ob._boundary_optimum(h, snr)
    assert result.params.feasible()
    assert abs(result.params.noise_enhancement() - 1.0) <= ob.CONSTRAINT_TOL


@settings(max_examples=50)
@given(
    h=st.floats(1.01, 20.0),
    snr=st.floats(1e-3, 1e7),
    delta=st.sampled_from([1e-6, 1e-3, 0.1, 1.0]),
)
def test_boundary_sigma_is_the_exact_minimiser(h, snr, delta):
    at_best, best = ob._boundary_optimum(h, snr)
    for sigma in (best.sigma * (1.0 - delta), best.sigma * (1.0 + delta)):
        moved = ob._boundary_params(h, snr, min(max(sigma, 1e-9), 2.0 - 1e-9))
        assert ob.mac_bound_eval(h, snr, moved) >= at_best - 1e-12 * max(1.0, at_best)


# the textbook quadratic formula finds no root at h = 1 + 1e-9
@pytest.mark.parametrize("h, snr", [(1.0 + 1e-9, 10.0), (1.0 + 1e-9, 1e7), (2.0, 0.0)])
def test_boundary_optimum_at_edge_inputs(h, snr):
    value, params = ob._boundary_optimum(h, snr)
    grid = ob.mac_bound_grid_min(h, snr)
    assert math.isfinite(value) and 0.0 <= value <= grid
    assert params.feasible()
    assert ob.mac_bound_optimize(h, snr).value <= grid


def test_mac_bound_grid_min_consistent_with_eval():
    # the vectorized dense grid and the scalar evaluation must agree
    got = ob.mac_bound_grid_min(2.0, 10.0, step=0.25)
    best = math.inf
    for a1 in np.arange(-8.0, 8.0 + 0.125, 0.25):
        for sigma in np.arange(0.25, 2.0 + 0.125, 0.25):
            for rho in np.arange(-1.0 + 0.25, 1.0 - 0.25 + 0.125, 0.25):
                params = ob.GenieParams(float(a1), float(sigma), float(rho))
                if params.feasible():
                    best = min(best, ob.mac_bound_eval(2.0, 10.0, params))
    assert got == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("h, step", [(1e6, 0.01), (2.0, 1e-4)], ids=["large-h", "fine-step"])
def test_mac_bound_grid_min_rejects_an_oversized_grid_before_allocating(h, step):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):
        ob.mac_bound_grid_min(h, 1.0, step)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("step", [0.0, -0.01, math.nan, math.inf])
def test_mac_bound_grid_min_rejects_a_non_positive_step(step):
    with pytest.raises(ValueError, match="step must be positive"):
        ob.mac_bound_grid_min(2.0, 1.0, step)


def test_mac_bound_grid_min_rejects_a_grid_without_a_feasible_point():
    # at step 1.5 the rho axis is empty: arange(-1 + 1.5, 1 - 1.5 + 0.75, 1.5)
    with pytest.raises(ValueError, match="grid contains no feasible point"):
        ob.mac_bound_grid_min(2.0, 1.0, 1.5)


@pytest.mark.parametrize("call", [
    lambda: ob.mac_bound_optimize(2.0, 1e300),
    lambda: ob.mac_bound_eval(1e160, 1.0, ob.GenieParams(0.0, 1.0, -0.5)),
    lambda: ob.mac_bound_eval(2.0, 10.0, ob.GenieParams(1e200, 1.0, -0.5)),
    lambda: ob.mac_bound_optimize(2e154, 0.0),
    lambda: ob.mac_bound_eval(2e154, 0.0, ob.GenieParams(0.0, 1.0, -0.5)),
    lambda: ob._boundary_optimum(2e154, 0.0),
    lambda: ob._boundary_optimum(1e200, 1.0),
], ids=["optimize-snr", "eval-h", "eval-a1", "optimize-h-at-zero-snr", "eval-h-at-zero-snr",
        "boundary-h-at-zero-snr", "boundary-h"])
def test_mac_bound_beyond_the_float_range_raises_a_value_error(call):
    # float ** raises OverflowError, which is not a ValueError, so the CLI
    # would print a traceback; (1-h)^2 overflows from h ~ 1.34e154, which
    # must not read as the bound 0 of an in-range snr = 0 point
    with pytest.raises(FloatRangeError, match="floating-point range"):
        call()
    assert issubclass(FloatRangeError, ValueError)


def exact_mac_bound(h, snr, params):
    """(1/2)log2 det_a/det_k in exact rationals, from log2 of the big-int numerator and denominator."""
    h, t = Fraction(h), Fraction(snr) / 3
    a1, sigma, rho = (Fraction(x) for x in (params.a1, params.sigma, params.rho))
    c = rho * sigma
    det_a = (1 + t * (1 + 2 * h * h)) * (sigma * sigma + t * (a1 * a1 + (1 - h) ** 2)) - (
        c + t * (a1 + h * (1 - h))
    ) ** 2
    ratio = det_a / (sigma * sigma - c * c)
    return 0.5 * (math.log2(ratio.numerator) - math.log2(ratio.denominator))


# det K_z = sigma^2 (1 - rho^2) is subnormal from sigma ~ 1.5e-154 and zero
# from sigma ~ 1.6e-162; the parent returned inf or raised FloatRangeError
@pytest.mark.parametrize("sigma", [1e-154, 1e-155, 1e-160, 1e-162, 1e-200, 1e-300])
@pytest.mark.parametrize("a1, rho", [(0.0, 0.0), (0.7, -0.9), (-3.0, 0.5)])
def test_mac_bound_eval_is_exact_for_a_tiny_sigma(sigma, a1, rho):
    params = ob.GenieParams(a1, sigma, rho)
    got = ob.mac_bound_eval(2.0, 10.0, params)
    assert got == pytest.approx(exact_mac_bound(2.0, 10.0, params), rel=1e-12)


def assert_matches_exact_mac_bound(h, snr, params):
    # rel 1e-12, or abs 1e-12 for a value below 1
    want = exact_mac_bound(h, snr, params)
    tol = 1e-12 * max(1.0, want)
    assert abs(ob.mac_bound_eval(h, snr, params) - want) <= tol, (h, snr, params)


# the grid's kernel is checked against the grid scan, which runs the same
# kernel; this holds it to exact rationals at every coarse-grid point
@pytest.mark.parametrize("h, snr", [(1.01, 0.01), (2.0, 10.0), (9.0, 1e6)])
def test_mac_bound_eval_matches_exact_rationals_on_the_coarse_grid(h, snr):
    for a1 in _linspace(-4.0 * h, 4.0 * h, 33):
        for sigma, rho, *_ in ob._GRID_PAIRS:
            assert_matches_exact_mac_bound(h, snr, ob.GenieParams(a1, sigma, rho))


@settings(max_examples=200, deadline=None)
@given(
    h=st.floats(math.log(1.01), math.log(20.0)).map(math.exp),
    snr=st.floats(math.log(1e-3), math.log(1e7)).map(math.exp),
    a1_over_h=st.floats(-4.0, 4.0),
    sigma=st.floats(1e-3, 2.0 - 2e-6),
    u=st.floats(0.0, 1.0),
)
def test_mac_bound_eval_matches_exact_rationals_at_random_feasible_params(
    h, snr, a1_over_h, sigma, u
):
    # rho in [-(1 - 1e-6), -sigma/2], where E[(Z1+Z~)^2] <= 1
    rho = -0.5 * sigma - u * (1.0 - 1e-6 - 0.5 * sigma)
    assert_matches_exact_mac_bound(h, snr, ob.GenieParams(a1_over_h * h, sigma, rho))


@pytest.mark.parametrize("sigma", [1e-154, 1e-160, 1e-162, 1e-200, 1e-300])
def test_mac_bound_eval_is_zero_at_zero_snr_for_a_tiny_sigma(sigma):
    assert ob.mac_bound_eval(2.0, 0.0, ob.GenieParams(0.0, sigma, 0.0)) == 0.0


def test_mac_bound_eval_keeps_its_value_just_above_the_subnormal_range():
    value = ob.mac_bound_eval(2.0, 10.0, ob.GenieParams(0.0, 1e-150, 0.0))
    assert value == float.fromhex("0x1.f53aab475f8f1p+8")


def test_mac_bound_eval_raises_where_det_a_underflows_too():
    # h one ulp above 1 and a tiny snr: t (1-h)^2 and (t h (1-h))^2 underflow
    params = ob.GenieParams(0.0, 1e-200, 0.0)
    with pytest.raises(FloatRangeError, match="floating-point range"):
        ob.mac_bound_eval(math.nextafter(1.0, 2.0), 1e-300, params)


def full_grid_optimize(h, snr):
    """mac_bound_optimize with the coarse grid scanned point by point: all 33 x 24 x 25
    points through GenieParams.feasible and mac_bound_eval, then the boundary optimum
    only if it is strictly lower."""
    ob._check_symmetric(h, snr)
    a1s = _linspace(-4.0 * h, 4.0 * h, 33)
    sigmas = _linspace(2.0 / 24, 2.0, 24)
    rhos = _linspace(-1.0 + 1e-6, 1.0 - 1e-6, 25)
    best_val = best = None
    for a1 in a1s:
        for sigma in sigmas:
            for rho in rhos:
                params = ob.GenieParams(a1, sigma, rho)
                if not params.feasible():
                    continue
                val = ob.mac_bound_eval(h, snr, params)
                if best_val is None or val < best_val:
                    best_val, best = val, params
    val, cand = ob._boundary_optimum(h, snr)
    if val < best_val:
        best_val, best = val, cand
    return best_val, best


def mac_outcome(fn, h, snr):
    """(value, a1, sigma, rho) as float hex strings, or the raised (type, message)."""
    try:
        value, params = fn(h, snr)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(x.hex() for x in (value, params.a1, params.sigma, params.rho))


def optimize(h, snr):
    result = ob.mac_bound_optimize(h, snr)
    return result.value, result.params


_rng = random.Random(20240613)
# the benchmark's range: h log-uniform in [1.01, 10], snr uniform in [-20, 60] dB
ORACLE_INPUTS = [
    (math.exp(_rng.uniform(math.log(1.01), math.log(10.0))), 10.0 ** _rng.uniform(-2.0, 6.0))
    for _ in range(32)
] + [
    (2.0, 0.0),  # snr = 0: every point ties at 0, and the grid's first point is returned
    (1.01, 10.0),
    (3.2e153, 0.0),
    (3.2e153, 1e154 / 3.2e153 / 3.2e153),
    (1e154, 1e-300),
    (1.3e154, 0.0),
    (1.3e154, 1e154 / 1.3e154 / 1.3e154),
    (1e200, 1.0),  # FloatRangeError at the first feasible point
    # (1-h)^2 overflows: FloatRangeError at the first feasible point at snr = 0 too
    (2e154, 0.0),
    (1e200, 0.0),
    (0.5, 1.0),
    (2.0, -1.0),
]


def test_mac_bound_optimize_is_the_full_grid_scan_bit_for_bit():
    for h, snr in ORACLE_INPUTS:
        assert mac_outcome(optimize, h, snr) == mac_outcome(full_grid_optimize, h, snr), (h, snr)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(math.log(1.0 + 1e-9), math.log(1e6)).map(math.exp),
    st.just(0.0) | st.floats(-30.0, 12.0).map(lambda e: 10.0 ** e),
)
def test_mac_bound_optimize_stays_the_full_grid_scan_bit_for_bit(h, snr):
    assert mac_outcome(optimize, h, snr) == mac_outcome(full_grid_optimize, h, snr)


def test_mac_result_types_are_slotted_and_frozen():
    result = ob.mac_bound_optimize(2.0, 10.0)
    for obj in (result, result.params):
        assert not hasattr(obj, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.value = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.params.rho = 0.0
    assert pickle.loads(pickle.dumps(result)) == result
    assert copy.deepcopy(result) == result
    assert dataclasses.replace(result, params=dataclasses.replace(result.params)) == result
    fields = dataclasses.asdict(result)
    assert ob.MacBoundResult(fields["value"], ob.GenieParams(**fields["params"])) == result


def test_coarse_grid_pairs_are_the_feasible_ones():
    # the noise constraint written out, E[(Z1+Z~)^2] - 1 = sigma^2 + 2 rho sigma <= tol;
    # no grid point lies near enough the boundary for the rounding of sigma^2 to matter
    points = [(sigma, rho) for sigma in _linspace(2.0 / 24, 2.0, 24)
              for rho in _linspace(-1.0 + 1e-6, 1.0 - 1e-6, 25)]
    assert all(abs(sigma * sigma + 2 * rho * sigma) > 1e-9 for sigma, rho in points)
    feasible = tuple((sigma, rho) for sigma, rho in points
                     if sigma * sigma + 2 * rho * sigma <= ob.CONSTRAINT_TOL)
    assert tuple(row[:2] for row in ob._GRID_PAIRS) == feasible and len(feasible) == 144
    # each row's kernel terms are the kernel's own expressions, bit for bit
    for sigma, rho, s, c, det_k in ob._GRID_PAIRS:
        assert s.hex() == (sigma * sigma).hex() and c.hex() == (rho * sigma).hex()
        assert det_k.hex() == (s * ((1.0 - rho) * (1.0 + rho))).hex()


@pytest.mark.parametrize("h, snr, want", [
    (1e30, 1e40, 330.60784698801507),
    (1e77, 1.0, 509.99196411193265),
])
def test_mac_bound_optimize_keeps_its_value_on_large_finite_inputs(h, snr, want):
    assert ob.mac_bound_optimize(h, snr).value == want


# inside the stated range (h < 1.3e154, snr h^2 <= 1e154): at snr = 0 the
# grid's a1 = +-4h squares to inf from h ~ 3.25e153, 4h(h+1) overflows from
# h ~ 6.7e153 and 1 + 2h^2 from h ~ 9.5e153
@pytest.mark.parametrize("h", [3.2e153, 3.3e153, 5e153, 6.8e153, 9.5e153, 1e154, 1.3e154])
@pytest.mark.parametrize("snr_of_h", [
    lambda h: 0.0, lambda h: 1e-300, lambda h: 1e-200, lambda h: 1e154 / h / h,
], ids=["0", "1e-300", "1e-200", "edge"])
def test_mac_bound_is_finite_and_exact_for_a_large_h(h, snr_of_h):
    snr = snr_of_h(h)
    result = ob.mac_bound_optimize(h, snr)
    p = snr / 3.0
    # symmetric TIN with v = u = (1,), SINR p / (1 + 2 h^2 p), formed so it cannot overflow
    tin = 1.5 * math.log2(1.0 + p / (1.0 + 2.0 * (h * p) * h))
    assert math.isfinite(result.value) and result.value >= tin
    if snr == 0.0:
        assert result.value == 0.0
    else:
        assert result.value == pytest.approx(exact_mac_bound(h, snr, result.params), rel=1e-12)


def test_huge_sigma_is_infeasible_rather_than_an_overflow():
    # the square of sigma overflows to inf; the enhancement is then far above 1
    params = ob.GenieParams(0.0, 1e200, -0.5)
    assert params.noise_enhancement() == math.inf
    assert not params.feasible()
    with pytest.raises(ob.InfeasibleGenieParamsError):
        ob.mac_bound_eval(2.0, 10.0, params)


# --------------------------------------------------- equal-magnitude family

def test_counterexample_carriers_are_in_family():
    for c in CE.carriers:
        assert ob.equal_magnitude_gain(c) == 1.0


def test_scaled_counterexample_carrier_gain():
    scaled = carrier([[2.0 * x for x in row] for row in CE.carriers[0].h])
    assert ob.equal_magnitude_gain(scaled) == 2.0


def test_relabeled_counterexample_carrier_is_recognized():
    # swap users 1 and 3 of carrier 1 (rows and columns together)
    base = np.array(CE.carriers[0].h, dtype=float)
    perm = [2, 1, 0]
    relabeled = carrier(base[np.ix_(perm, perm)].tolist())
    assert ob.equal_magnitude_gain(relabeled) == 1.0


def test_sign_flipped_counterexample_carrier_is_recognized():
    base = np.array(CE.carriers[1].h, dtype=float)
    flipped = carrier((np.diag([-1.0, 1.0, 1.0]) @ base @ np.diag([1.0, -1.0, 1.0])).tolist())
    assert ob.equal_magnitude_gain(flipped) == 1.0


def test_generic_carrier_not_in_family():
    assert ob.equal_magnitude_gain(carrier([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) is None


def test_nonsingular_sign_pattern_not_in_family():
    # all-unit magnitudes but a sign pattern with no ratio collision at
    # all; it cannot be isomorphic to the (singular) counterexample
    # carriers and must not inherit their bound
    c = carrier([[1, 1, 1], [1, 1, -1], [1, -1, 1]])
    assert chan.singularity_check(c) is None
    assert ob.equal_magnitude_gain(c) is None


@pytest.mark.parametrize("rows, reason", [
    ([[1, 1, 1], [1, math.nan, 1], [1, 1, -1]], "not a finite real number"),
    ([[math.inf, -math.inf, math.inf]] * 3, "not a finite real number"),
    ([[1, 1, 1], [1, 0, 1], [1, 1, -1]], "zero gain"),
], ids=["nan", "inf", "zero"])
def test_equal_magnitude_gain_rejects_an_invalid_carrier(rows, reason):
    # the NaN carrier read 1.0 and the all-inf one inf before validation
    with pytest.raises(chan.InvalidChannelError, match=reason):
        ob.equal_magnitude_gain(carrier(rows))


def _family_orbit() -> set:
    """Sign patterns of the counterexample carriers closed under every
    simultaneous user relabeling and every row and column sign flip."""
    orbit = set()
    signs = [1, -1]
    for base in CE.carriers:
        s = [[1 if x > 0 else -1 for x in row] for row in base.h]
        for perm in itertools.permutations(range(3)):
            for r in itertools.product(signs, repeat=3):
                for t in itertools.product(signs, repeat=3):
                    orbit.add(tuple(
                        r[a] * t[b] * s[perm[a]][perm[b]] for a in range(3) for b in range(3)
                    ))
    return orbit


@pytest.mark.parametrize("c", [1, 1e-11, Fraction(3, 7), 1e150])
def test_family_is_the_counterexample_orbit_on_every_sign_pattern(c):
    orbit = _family_orbit()
    assert len(orbit) == 192
    for pattern in itertools.product([1, -1], repeat=9):
        got = ob.equal_magnitude_gain(carrier([[sgn * c for sgn in pattern[3 * a:3 * a + 3]]
                                               for a in range(3)]))
        if pattern in orbit:
            assert got == float(c), pattern
        else:
            assert got is None, pattern


# -------------------------------------------------------- separate bound

def test_separate_outerbound_counterexample_at_30():
    assert ob.separate_outerbound(CE, 30.0) == pytest.approx(2.0, abs=1e-9)


def test_separate_outerbound_zero_snr():
    assert ob.separate_outerbound(CE, 0.0) == 0.0


def test_separate_outerbound_rejects_non_finite_snr():
    for snr in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ob.separate_outerbound(CE, snr)


def test_separate_outerbound_matches_grid_oracle():
    for snr in (1.0, 8.0, 100.0, 2000.0):
        got = ob.separate_outerbound(CE, snr)
        p1 = np.linspace(0.0, snr, 200001)
        oracle = float(np.max(0.5 * np.log2(1 + p1) + 0.5 * np.log2(1 + (snr - p1)))) / 2
        assert got >= oracle - 1e-9
        assert got == pytest.approx(oracle, abs=1e-6)


def test_separate_outerbound_rejects_singular_without_constant():
    singular = carrier([[1, 1, 1], [2, 2, 2], [3, 5, 7]])  # rows 1,2 proportional
    assert chan.singularity_check(singular) is not None
    channel = chan.ParallelChannel((singular,))
    with pytest.raises(ob.NoSeparateBoundError, match="singular"):
        ob.separate_outerbound(channel, 10.0)


def test_separate_outerbound_rejects_generic_carrier():
    channel = chan.ParallelChannel((carrier([[1, 2, 3], [4, 5, 6], [7, 8, 10]]),))
    with pytest.raises(ob.NoSeparateBoundError, match="carrier 1"):
        ob.separate_outerbound(channel, 10.0)
