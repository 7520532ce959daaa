"""Rate computation, power allocation and alignment feasibility tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from icsep import channel as chan
from icsep import rates

CE = chan.make_counterexample()
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def spec_scheme(total_snr=0.0):
    """The counterexample alignment scheme written out by hand."""
    return rates.BeamformingScheme(
        v=((INV_SQRT2, INV_SQRT2),) * 3,
        u=((INV_SQRT2, -INV_SQRT2), (INV_SQRT2, -INV_SQRT2), (-INV_SQRT2, INV_SQRT2)),
        p=(total_snr / 3.0,) * 3,
    )


def closed_form_joint(snr):
    # hand expansion for the counterexample: every cross gain is nulled,
    # every desired gain is 1, so SINR_i = p_i = snr/3 for each user
    return 3 * (0.5 / 2) * math.log2(1.0 + snr / 3.0)


def test_db_to_linear_rejects_float_overflow():
    # 10 ** 400 overflows a float; the error must be a ValueError the CLI reports
    with pytest.raises(ValueError, match="4000 dB"):
        rates.db_to_linear(4000.0)


# -------------------------------------------------------------------- tin

def test_tin_cross_terms_vanish_on_counterexample():
    g = rates.effective_gains(CE, spec_scheme())
    for i in range(3):
        for j in range(3):
            if i != j:
                assert g[i, j] == 0.0, f"cross term ({i+1},{j+1}) = {g[i, j]}"


def test_tin_rate_frozen_value_at_30():
    # frozen from the hand-expanded SINR oracle: 0.75 * log2(11)
    report = rates.tin_rate(CE, spec_scheme(30.0))
    assert report.sum_rate == pytest.approx(2.594573713977973, abs=1e-12)
    assert report.snr == pytest.approx(30.0)


def test_tin_rate_matches_closed_form_everywhere():
    scheme = rates.ia_feasibility(CE)
    for db in np.linspace(-20, 80, 26):
        snr = rates.db_to_linear(db)
        got = rates.tin_rate(CE, scheme.with_equal_power(snr)).sum_rate
        assert got == pytest.approx(closed_form_joint(snr), abs=1e-12)


def test_tin_rate_zero_power():
    report = rates.tin_rate(CE, spec_scheme(0.0))
    assert report.per_user_rate == (0.0, 0.0, 0.0)
    assert report.sum_rate == 0.0


def test_tin_rate_sum_matches_per_user():
    report = rates.tin_rate(CE, spec_scheme(17.0))
    assert report.sum_rate == pytest.approx(sum(report.per_user_rate), abs=1e-12)


def test_tin_rejects_dimension_mismatch():
    single = chan.ParallelChannel((CE.carriers[0],))
    with pytest.raises(ValueError, match="carriers"):
        rates.tin_rate(single, spec_scheme(1.0))


def test_tin_rejects_non_unit_vectors():
    bad = rates.BeamformingScheme(
        v=((1.0, 1.0),) * 3,
        u=((INV_SQRT2, -INV_SQRT2),) * 3,
        p=(1.0, 1.0, 1.0),
    )
    with pytest.raises(ValueError, match="unit norm"):
        rates.tin_rate(CE, bad)


def test_tin_rejects_negative_power():
    with pytest.raises(ValueError, match="power"):
        rates.tin_rate(CE, spec_scheme().with_powers((1.0, -1.0, 1.0)))


# NaN and inf compare False with 0, so the check must be a negated comparison
@pytest.mark.parametrize("p", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
def test_tin_rejects_non_finite_or_negative_power(p):
    scheme = rates.ia_feasibility(CE).with_powers((p, 1.0, 1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        rates.tin_rate(CE, scheme)


@settings(max_examples=25)
@given(st.floats(min_value=0.0, max_value=60.0), st.floats(min_value=0.1, max_value=20.0))
def test_tin_rate_nondecreasing_in_snr(db, delta_db):
    scheme = rates.ia_feasibility(CE)
    lo = rates.tin_rate(CE, scheme.with_equal_power(rates.db_to_linear(db))).sum_rate
    hi = rates.tin_rate(CE, scheme.with_equal_power(rates.db_to_linear(db + delta_db))).sum_rate
    assert hi >= lo - 1e-12


def test_carrier_swap_invariance():
    swapped = chan.ParallelChannel((CE.carriers[1], CE.carriers[0]))
    scheme = spec_scheme(12.0)
    flipped = rates.BeamformingScheme(
        v=tuple(vec[::-1] for vec in scheme.v),
        u=tuple(vec[::-1] for vec in scheme.u),
        p=scheme.p,
    )
    assert rates.tin_rate(swapped, flipped).sum_rate == pytest.approx(
        rates.tin_rate(CE, scheme).sum_rate, abs=1e-14
    )


# ------------------------------------------------------------------- tdma

def test_tdma_single_carrier_unit_gain():
    single = chan.ParallelChannel((chan.SingleCarrierChannel(((1, 1, 1), (1, 1, 1), (1, 1, 1))),))
    report = rates.tdma_rate(single, 1, 15.0)
    assert report.sum_rate == 2.0
    assert report.per_user_rate == (2.0, 0.0, 0.0)


def test_tdma_counterexample_symmetric_split():
    # unit gain magnitude on both carriers forces an equal split
    report = rates.tdma_rate(CE, 1, 10.0)
    assert report.sum_rate == pytest.approx(0.5 * math.log2(6.0), abs=1e-12)


def test_tdma_zero_power():
    assert rates.tdma_rate(CE, 2, 0.0).sum_rate == 0.0


def test_tdma_matches_grid_oracle_on_random_gains():
    rng = np.random.default_rng(123)
    for _ in range(10):
        g = rng.uniform(0.2, 3.0, size=2)
        snr = float(rng.uniform(0.5, 20.0))
        rows1 = [[g[0], 1, 1], [1, 1, 1], [1, 1, 1]]
        rows2 = [[g[1], 1, 1], [1, 1, 1], [1, 1, 1]]
        channel = chan.ParallelChannel(
            (chan.SingleCarrierChannel(tuple(map(tuple, rows1))),
             chan.SingleCarrierChannel(tuple(map(tuple, rows2))))
        )
        got = rates.tdma_rate(channel, 1, snr).sum_rate
        p1 = np.linspace(0.0, snr, 200001)
        oracle = np.max(0.5 * np.log2(1 + g[0] ** 2 * p1) + 0.5 * np.log2(1 + g[1] ** 2 * (snr - p1))) / 2
        assert got >= oracle - 1e-9
        assert got == pytest.approx(oracle, abs=1e-6)


def test_tdma_rejects_bad_user():
    with pytest.raises(ValueError, match="active_user"):
        rates.tdma_rate(CE, 4, 1.0)


def test_tdma_and_sweep_reject_gain_whose_square_overflows():
    rows = [list(row) for row in CE.carriers[0].h]
    rows[0][0] = 1e200
    big = chan.ParallelChannel((chan.SingleCarrierChannel(rows), CE.carriers[1]))
    with pytest.raises(chan.InvalidChannelError, match=r"\(1,1\)"):
        rates.tdma_rate(big, 1, 10.0)
    with pytest.raises(chan.InvalidChannelError, match=r"\(1,1\)"):
        rates.sweep(big, [0.0, 10.0])


def test_tdma_rejects_non_finite_snr():
    for snr in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            rates.tdma_rate(CE, 1, snr)


# --------------------------------------------------------- allocate_power

def half_log2(gain_sq):
    return lambda p: 0.5 * math.log2(1.0 + gain_sq * p)


def test_allocate_symmetric_equal_split():
    alloc = rates.allocate_power([half_log2(1.0), half_log2(1.0)], 10.0)
    assert alloc.per_carrier == pytest.approx((5.0, 5.0), abs=1e-12)


def test_allocate_single_carrier_takes_everything():
    alloc = rates.allocate_power([half_log2(1.0)], 7.0)
    assert alloc.per_carrier == pytest.approx((7.0,), abs=1e-9)


def test_allocate_asymmetric_frozen_split():
    # water level (3 + 1/4 + 1)/2 gives powers (15/8, 9/8)
    alloc = rates.allocate_power([half_log2(4.0), half_log2(1.0)], 3.0)
    assert alloc.per_carrier == pytest.approx((1.875, 1.125), abs=1e-8)
    objective = half_log2(4.0)(alloc.per_carrier[0]) + half_log2(1.0)(alloc.per_carrier[1])
    assert objective == pytest.approx(2.0874628412503395, abs=1e-9)


def test_allocate_meets_budget_with_equality():
    alloc = rates.allocate_power([half_log2(0.5), half_log2(2.0), half_log2(1.3)], 4.2)
    assert sum(alloc.per_carrier) == pytest.approx(4.2, rel=1e-9)
    assert all(p >= 0 for p in alloc.per_carrier)


def test_allocate_zero_budget():
    assert rates.allocate_power([half_log2(1.0)] * 3, 0.0).per_carrier == (0.0, 0.0, 0.0)


def test_allocate_matches_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(8):
        g1, g2 = rng.uniform(0.2, 5.0, size=2)
        total = float(rng.uniform(0.5, 6.0))
        alloc = rates.allocate_power([half_log2(g1), half_log2(g2)], total)
        got = half_log2(g1)(alloc.per_carrier[0]) + half_log2(g2)(alloc.per_carrier[1])
        p1 = np.concatenate([np.arange(0.0, total, 1e-4), [total]])
        oracle = float(np.max(0.5 * np.log2(1 + g1 * p1) + 0.5 * np.log2(1 + g2 * (total - p1))))
        assert got >= oracle - 1e-9
        assert got == pytest.approx(oracle, abs=1e-6)


def test_allocate_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        rates.allocate_power([], 1.0)
    with pytest.raises(ValueError):
        rates.allocate_power([half_log2(1.0)], -1.0)


# -------------------------------------------------------------- water_fill

def test_water_fill_asymmetric_frozen_split():
    # water level (3 + 1/4 + 1)/2 gives powers (15/8, 9/8), exactly
    assert rates.water_fill([4.0, 1.0], 3.0).tolist() == [1.875, 1.125]


def test_water_fill_budget_below_float_step_returns_zero_split():
    # 1 + 1e-300 == 1, so no level clears the floor strictly; the fill
    # still returns a valid (all-zero) split instead of failing
    assert rates.water_fill([1.0, 1.0], 1e-300).tolist() == [0.0, 0.0]


def test_water_fill_rejects_bad_budget():
    for budget in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="budget"):
            rates.water_fill([1.0, 2.0], budget)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf, 1e-320])
def test_water_fill_rejects_bad_gain(bad):
    with pytest.raises(ValueError, match="squared gains"):
        rates.water_fill([bad, 1.0], 1.0)


def fill_case():
    """Random water-filling instance: up to 8 carriers and a budget."""
    gains = st.lists(st.floats(min_value=1e-3, max_value=1e2), min_size=1, max_size=8)
    return st.tuples(gains, st.floats(min_value=1e-4, max_value=1e7))


@settings(max_examples=200, deadline=None)
@given(fill_case())
def test_water_fill_kkt_conditions(case):
    gains_sq, budget = case
    floors = 1.0 / np.array(gains_sq)
    alloc = rates.water_fill(gains_sq, budget)
    active = alloc > 0
    assert active.any()
    levels = alloc[active] + floors[active]
    level = float(levels.mean())
    # every active carrier reaches the same water level
    assert np.all(np.abs(levels - level) <= 1e-12 * level)
    # every inactive floor sits at or above it
    assert np.all(floors[~active] >= level * (1.0 - 1e-12))
    # the whole budget is spent
    assert abs(alloc.sum() - budget) <= 1e-12 * (budget + floors[active].sum())


@settings(max_examples=100, deadline=None)
@given(fill_case(), st.randoms(use_true_random=False))
def test_water_fill_is_permutation_covariant(case, rnd):
    gains_sq, budget = case
    order = list(range(len(gains_sq)))
    rnd.shuffle(order)
    alloc = rates.water_fill(gains_sq, budget)
    permuted = rates.water_fill([gains_sq[k] for k in order], budget)
    assert np.array_equal(permuted, alloc[order])


@settings(max_examples=100, deadline=None)
@given(fill_case())
def test_water_fill_objective_matches_generic_allocator(case):
    gains_sq, budget = case
    fns = [half_log2(g) for g in gains_sq]
    try:
        reference = rates.allocate_power(fns, budget)
    except rates.AllocationError:
        # the reference's own defect (see the xfail test below); the KKT
        # test still checks water_fill on such inputs
        assume(False)
    exact = sum(f(p) for f, p in zip(fns, rates.water_fill(gains_sq, budget)))
    assert exact >= sum(f(p) for f, p in zip(fns, reference.per_carrier)) - 1e-12


@pytest.mark.xfail(raises=rates.AllocationError, strict=True,
                   reason="finite-difference marginals cannot resolve two equal weak carriers")
def test_allocate_power_equal_weak_carriers():
    # concave input, yet the multiplier bisection overshoots the budget by
    # 1.7e-6 relative and raises; water_fill splits it exactly
    assert rates.water_fill([1 / 64, 1 / 64], 0.25).tolist() == [0.125, 0.125]
    rates.allocate_power([half_log2(1 / 64)] * 2, 0.25)


# ---------------------------------------------------------- ia_feasibility

def test_ia_counterexample_scheme():
    scheme = rates.ia_feasibility(CE)
    assert scheme is not None
    for vec in scheme.v:
        # all transmit directions proportional to [1, 1]
        assert vec[0] == vec[1] > 0
    g = rates.effective_gains(CE, scheme)
    assert np.all(np.diag(g) > 0.99)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert g[i, j] == 0.0


def test_ia_matches_hand_scheme_on_counterexample():
    scheme = rates.ia_feasibility(CE)
    hand = spec_scheme()
    assert np.allclose(scheme.v, hand.v, atol=1e-15)
    assert np.allclose(scheme.u, hand.u, atol=1e-15)


def same_coeff_variant():
    """Counterexample after the adversary rewrites (1,2) on both carriers."""
    c2 = chan.SingleCarrierChannel(((-1, -1, 1), (1, -1, 1), (1, 1, 1)))
    return chan.ParallelChannel((CE.carriers[0], c2))


def test_ia_infeasible_on_same_coeff_variant():
    channel = same_coeff_variant()
    assert rates.ia_feasibility(channel) is None

    # exhaustive oracle: no unit v1 off the coordinate axes closes the
    # alignment chain; the chain closes iff (H12 H32^-1 H31) v1 is
    # parallel to (H13 H23^-1 H21) v1
    lhs_diag = channel.link_gains(1, 2) * channel.link_gains(3, 1) / channel.link_gains(3, 2)
    rhs_diag = channel.link_gains(1, 3) * channel.link_gains(2, 1) / channel.link_gains(2, 3)
    theta = np.linspace(0.05, math.pi / 2 - 0.05, 2001)  # off-axis directions
    v = np.stack([np.cos(theta), np.sin(theta)])
    cross = lhs_diag[0] * v[0] * rhs_diag[1] * v[1] - lhs_diag[1] * v[1] * rhs_diag[0] * v[0]
    assert np.min(np.abs(cross)) > 1e-3


def test_ia_identity_cross_gains_with_sign_diagonals():
    # same construction as the counterexample, identical by definition,
    # so the chain map is the identity and the scheme must agree
    clone = chan.ParallelChannel(
        (chan.SingleCarrierChannel(((1, 1, 1), (1, 1, 1), (1, 1, -1))),
         chan.SingleCarrierChannel(((-1, 1, 1), (1, -1, 1), (1, 1, 1))))
    )
    assert rates.ia_feasibility(clone) == rates.ia_feasibility(CE)


def test_ia_requires_two_carriers():
    with pytest.raises(ValueError, match="2-carrier"):
        rates.ia_feasibility(chan.ParallelChannel((CE.carriers[0],)))


@settings(max_examples=25)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0).filter(lambda x: abs(x) > 0.2),
                min_size=18, max_size=18))
def test_ia_generic_two_carrier_channels_are_infeasible(flat):
    """A random chain map T has distinct diagonal entries almost surely."""
    carriers = []
    for m in range(2):
        block = flat[9 * m: 9 * (m + 1)]
        carriers.append(chan.SingleCarrierChannel(
            (tuple(block[0:3]), tuple(block[3:6]), tuple(block[6:9]))
        ))
    channel = chan.ParallelChannel(tuple(carriers))
    scheme = rates.ia_feasibility(channel)
    if scheme is not None:
        # feasibility must come with genuinely aligned interference
        g = rates.effective_gains(channel, scheme)
        off = [abs(g[i, j]) for i in range(3) for j in range(3) if i != j]
        assert max(off) < 1e-6


# ------------------------------------------------------------------ sweep

def test_sweep_grid_shape_and_monotonicity():
    results = rates.sweep(CE, [0, 10, 20, 30, 40, 50])
    assert len(results) == 6
    assert [r.snr_db for r in results] == [0, 10, 20, 30, 40, 50]
    for a, b in zip(results, results[1:]):
        assert b.joint_tin >= a.joint_tin
        assert b.separate_outer >= a.separate_outer
        assert b.tdma >= a.tdma


def test_sweep_joint_beats_separate_at_high_snr():
    results = rates.sweep(CE, [40, 50, 60])
    assert all(r.joint_tin > r.separate_outer for r in results)


def test_sweep_low_snr_values():
    (r,) = rates.sweep(CE, [-20.0])
    snr = rates.db_to_linear(-20.0)
    assert r.joint_tin == pytest.approx(closed_form_joint(snr), abs=1e-12)
    assert r.separate_outer == pytest.approx(0.5 * math.log2(1 + snr / 2), abs=1e-9)
    assert max(r.joint_tin, r.separate_outer, r.tdma) < 0.1


def test_sweep_notes_equal_power_scheme():
    (r,) = rates.sweep(CE, [10.0])
    assert "equal-power" in r.scheme_note
    assert "ia" in r.scheme_note


def test_sweep_falls_back_to_tdma_without_alignment():
    channel = same_coeff_variant()
    (r,) = rates.sweep(channel, [20.0])
    assert r.joint_tin == r.tdma
    assert "tdma-fallback" in r.scheme_note


def test_sweep_reports_missing_separate_bound():
    generic = chan.ParallelChannel(
        (chan.SingleCarrierChannel(((1, 2, 3), (4, 5, 6), (7, 8, 10))),) * 2
    )
    (r,) = rates.sweep(generic, [10.0])
    assert r.separate_outer is None
    assert "no-separate-bound" in r.scheme_note


def test_sweep_rejects_non_finite_grid():
    for grid in ([0.0, math.nan, 10.0], [0.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            rates.sweep(CE, grid)


def test_sweep_rejects_bad_grids():
    with pytest.raises(ValueError):
        rates.sweep(CE, [])
    with pytest.raises(ValueError):
        rates.sweep(CE, [0.0, 0.0])
    with pytest.raises(ValueError):
        rates.sweep(CE, [10.0, 5.0])
