"""Outerbound tests: closed forms, the genie MAC bound, bound composition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icsep import channel as chan
from icsep import outerbounds as ob
from icsep.rates import tin_rate, BeamformingScheme

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


def test_genie_covariance_matrix():
    params = ob.GenieParams(a1=1.0, sigma=2.0, rho=-0.75)
    assert np.allclose(params.covariance(), [[1.0, -1.5], [-1.5, 4.0]])


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
        k = params.covariance()
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


# inputs where a simplex refinement from the best grid point stopped in a
# worse basin, 0.004-0.011 bits above the dense grid
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


# --------------------------------------------------- equal-magnitude family

def test_counterexample_carriers_are_in_family():
    for c in CE.carriers:
        assert ob.equal_magnitude_gain(c) == 1.0


def test_scaled_counterexample_carrier_gain():
    scaled = carrier([[2.0 * x for x in row] for row in CE.carriers[0].h])
    assert ob.equal_magnitude_gain(scaled) == 2.0


def test_relabeled_counterexample_carrier_is_recognized():
    # swap users 1 and 3 of carrier 1 (rows and columns together)
    base = CE.carriers[0].as_array()
    perm = [2, 1, 0]
    relabeled = carrier(base[np.ix_(perm, perm)].tolist())
    assert ob.equal_magnitude_gain(relabeled) == 1.0


def test_sign_flipped_counterexample_carrier_is_recognized():
    base = CE.carriers[1].as_array()
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
