"""Rate computation, power allocation and alignment feasibility tests."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from icsep import channel as chan
from icsep import rates
from icsep.dof import estimate_dof
from icsep.outerbounds import separate_outerbound

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
    # effective_gains shares the check: it zipped the scheme down to one carrier
    with pytest.raises(ValueError, match="carriers"):
        rates.effective_gains(single, spec_scheme(1.0))


def test_tin_rejects_non_unit_vectors():
    # the scheme rejects itself when it is built, before any rate is asked of it
    with pytest.raises(ValueError, match="unit norm"):
        rates.BeamformingScheme(
            v=((1.0, 1.0),) * 3,
            u=((INV_SQRT2, -INV_SQRT2),) * 3,
            p=(1.0, 1.0, 1.0),
        )


# NaN compares False with everything, so the norm check must be negated
@pytest.mark.parametrize("field", ["v", "u"])
def test_tin_rejects_nan_vectors(field):
    scheme = rates.ia_feasibility(CE).with_powers((1.0, 1.0, 1.0))
    vecs = ((math.nan, math.nan),) + getattr(scheme, field)[1:]
    with pytest.raises(ValueError, match="unit norm"):
        rates.tin_rate(CE, replace(scheme, **{field: vecs}))


@pytest.mark.parametrize("build", [
    lambda: rates.BeamformingScheme(v=((1.0,),) * 2, u=((1.0,),) * 3),
    lambda: rates.BeamformingScheme(v=(1.0, 1.0, 1.0), u=((1.0,),) * 3),
    lambda: rates.BeamformingScheme(v=((1.0,),) * 3, u=(1.0, 1.0, 1.0)),
    lambda: rates.BeamformingScheme(v=((1.0,),) * 3, u=((1.0,),) * 3, p=None),
    lambda: rates.BeamformingScheme(v=((1.0,),) * 3, u=((1.0,),) * 3, p=5.0),
    lambda: rates.ia_feasibility(CE).with_powers(5.0),
], ids=["two-vectors", "bare-float-v", "bare-float-u", "p-none", "p-float", "with-powers-float"])
def test_scheme_needs_three_of_each(build):
    with pytest.raises(ValueError, match="a scheme needs 3 transmit vectors"):
        build()


@pytest.mark.parametrize("field", ["v", "u"])
def test_scheme_rejects_vectors_of_unequal_length_when_built(field):
    scheme = spec_scheme()
    fields = {"v": scheme.v, "u": scheme.u, field: ((1.0,),) + getattr(scheme, field)[1:]}
    with pytest.raises(ValueError, match="has length"):
        rates.BeamformingScheme(**fields)


def test_tin_rejects_negative_power():
    with pytest.raises(ValueError, match="power"):
        rates.tin_rate(CE, spec_scheme().with_powers((1.0, -1.0, 1.0)))


# NaN and inf compare False with 0, so the check must be a negated comparison
@pytest.mark.parametrize("p", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
def test_tin_rejects_non_finite_or_negative_power(p):
    scheme = rates.ia_feasibility(CE)
    with pytest.raises(ValueError, match="nonnegative"):
        scheme.with_powers((p, 1.0, 1.0))


@pytest.mark.parametrize("build", [
    lambda s, p: rates.BeamformingScheme(s.v, s.u, p),
    lambda s, p: replace(s, p=p),
], ids=["constructor", "replace"])
def test_scheme_rejects_a_nan_power_on_the_other_build_paths(build):
    # with_powers is test_tin_rejects_non_finite_or_negative_power[nan]
    with pytest.raises(ValueError, match="nonnegative"):
        build(rates.ia_feasibility(CE), (math.nan, 1, 1))


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


@pytest.mark.parametrize("c", [1e-3, 1e-6, 0.37, 1.0, 3.0])
def test_fill_callers_are_the_closed_form_on_a_scaled_counterexample(c):
    # every gain has magnitude c, so each carrier gets snr/2 and the rate per
    # carrier is (1/2)log2(1 + c^2 snr/2), bit for bit, also where snr/2 is
    # small against the floor 1/c^2
    channel = chan.ParallelChannel(tuple(
        chan.SingleCarrierChannel(tuple(tuple(c * x for x in row) for row in carrier.h))
        for carrier in CE.carriers
    ))
    grid = range(-60, 61, 5)
    rows = rates.sweep(channel, grid)
    for db, row in zip(grid, rows):
        snr = rates.db_to_linear(db)
        want = 0.5 * math.log2(1.0 + c * c * (snr / 2.0))
        got = (separate_outerbound(channel, snr), rates.tdma_rate(channel, 1, snr).sum_rate,
               row.separate_outer, row.tdma)
        assert [x.hex() for x in got] == [want.hex()] * 4, (db, got, want)


def test_tdma_rejects_bad_user():
    # a bool or a float equal to a user index is not one, and 0 or -1 must not wrap round
    for user in (4, True, np.True_, 1.0, np.float64(1), 0, -1):
        with pytest.raises(ValueError, match="active_user"):
            rates.tdma_rate(CE, user, 1.0)


def test_tdma_accepts_numpy_int_users():
    for user in (np.int64(2), np.int32(2)):
        assert rates.tdma_rate(CE, user, 10.0) == rates.tdma_rate(CE, 2, 10.0)


def test_tdma_and_sweep_reject_gain_whose_square_overflows():
    rows = [list(row) for row in CE.carriers[0].h]
    rows[0][0] = 1e200
    big = chan.ParallelChannel((chan.SingleCarrierChannel(rows), CE.carriers[1]))
    with pytest.raises(chan.InvalidChannelError, match=r"\(1,1\)"):
        rates.tdma_rate(big, 1, 10.0)
    # sweep: on every carrier count, and after the grid errors
    for n in (1, 2, 3):
        big = chan.ParallelChannel((chan.SingleCarrierChannel(rows),) + CE.carriers[1:] * (n - 1))
        with pytest.raises(ValueError, match="nonempty"):
            rates.sweep(big, [])
        with pytest.raises(chan.InvalidChannelError, match=r"\(1,1\)"):
            rates.sweep(big, [0.0, 10.0])


# gains near 1e150 are valid (their squares are finite), but every
# product p g^2 at a power of 1e10 overflows a float
BIG = chan.ParallelChannel((chan.SingleCarrierChannel(
    ((1e150, 2e150, 3e150), (4e150, 5e150, 6e150), (7e150, 8e150, 9.5e150))
),))
UNIT = rates.BeamformingScheme(v=((1.0,),) * 3, u=((1.0,),) * 3)


def exact_half_log2(one_plus_x: Fraction) -> float:
    """(1/2)log2 of a rational 1 + x, from log2 of its big-int numerator and denominator."""
    return 0.5 * (math.log2(one_plus_x.numerator) - math.log2(one_plus_x.denominator))


def exact_sinr(channel, scheme, i):
    """User i's SINR as a rational, for a single-carrier channel and v = u = (1,)."""
    h = [[Fraction(x) for x in row] for row in channel.carriers[0].h]
    p = [Fraction(x) for x in scheme.p]
    noise = 1 + sum(p[j] * h[i][j] ** 2 for j in range(3) if j != i)
    return p[i] * h[i][i] ** 2 / noise


def test_tin_rate_is_exact_where_every_product_overflows():
    # the parent returned (nan, nan, nan): signal and noise were both inf
    scheme = UNIT.with_equal_power(3e10)
    got = rates.tin_rate(BIG, scheme)
    for i in range(3):
        want = exact_half_log2(1 + exact_sinr(BIG, scheme, i))
        assert got.per_user_rate[i] == pytest.approx(want, rel=1e-12)
    assert math.isfinite(got.sum_rate)


def test_tin_rate_is_exact_where_only_the_noise_overflows():
    # user 1's signal 1e300 is finite, its noise is not; the SINR is ~1e-11,
    # so the reference takes log1p of the rational rounded once
    scheme = UNIT.with_powers((1.0, 1e10, 1e10))
    want = 0.5 * math.log1p(float(exact_sinr(BIG, scheme, 0))) / math.log(2.0)
    assert rates.tin_rate(BIG, scheme).per_user_rate[0] == pytest.approx(want, rel=1e-12)


def test_tdma_rate_is_exact_where_the_product_overflows():
    # the parent returned inf
    want = exact_half_log2(1 + Fraction(1e150) ** 2 * Fraction(1e10))
    assert rates.tdma_rate(BIG, 1, 1e10).sum_rate == pytest.approx(want, rel=1e-15)


def test_log2_product_keeps_nan():
    assert math.isnan(rates._log2_product(math.nan, 1.0))
    assert rates._log2_product(0.0, 1.0) == -math.inf


def diagonal_channel(gain, cross):
    return chan.ParallelChannel((chan.SingleCarrierChannel(
        ((gain, cross, cross), (cross, gain, cross), (cross, cross, gain))
    ),))


# g p within a factor of 4 of 2^1024, on either side of the overflow
@settings(max_examples=200)
@given(
    st.floats(1e30, 1e154),
    st.floats(1e-3, 1.0),
    st.floats(-2.0, 2.0),
)
def test_rates_are_exact_across_the_overflow_boundary(gain, cross_ratio, log2_offset):
    g = gain * gain
    p = 2.0 ** (1024.0 + log2_offset - math.log2(g))
    channel = diagonal_channel(gain, gain * cross_ratio)
    tdma = rates.tdma_rate(channel, 1, p).sum_rate
    assert math.isfinite(tdma)
    assert tdma == pytest.approx(exact_half_log2(1 + Fraction(gain) ** 2 * Fraction(p)), rel=1e-12)
    scheme = UNIT.with_powers((p, p, p))
    got = rates.tin_rate(channel, scheme).per_user_rate
    for i in range(3):
        assert math.isfinite(got[i])
        want = exact_half_log2(1 + exact_sinr(channel, scheme, i))
        assert got[i] == pytest.approx(want, rel=1e-12)


def test_tdma_rejects_non_finite_snr():
    for snr in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            rates.tdma_rate(CE, 1, snr)


@pytest.mark.parametrize("call", [
    lambda snr: rates.tdma_rate(CE, 1, snr),
    lambda snr: separate_outerbound(CE, snr),
], ids=["tdma_rate", "separate_outerbound"])
@pytest.mark.parametrize("snr", [-1.0, math.nan, math.inf])
def test_bad_snr_is_blamed_on_snr(call, snr):
    # the water-fill's own check calls its budget "power budget", a name the caller never passed
    with pytest.raises(ValueError, match=r"^snr must be finite and nonnegative, got "):
        call(snr)


def old_tin_rates(gains_sq, p, m):
    """Reference copy of _tin_rates with each user's noise as a generator sum."""
    out = []
    for i in range(3):
        signal = p[i] * gains_sq[i][i]
        noise = 1.0 + sum(p[j] * gains_sq[i][j] for j in range(3) if j != i)
        if signal < math.inf and noise < math.inf:
            out.append(0.5 / m * math.log2(1.0 + signal / noise))
        else:
            others = [(p[j], gains_sq[i][j]) for j in range(3) if j != i]
            out.append(0.5 * rates._log2_1p_ratio(p[i], gains_sq[i][i], others) / m)
    return tuple(out)


# zero (an aligned cross gain, a silent user) and values whose products
# overflow, so that both branches and the log domain are reached
tin_value = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=1e-300, max_value=1e300))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(tin_value, min_size=3, max_size=3), min_size=3, max_size=3),
    st.tuples(tin_value, tin_value, tin_value),
    st.integers(1, 3),
)
@example([[1e300] * 3] * 3, (1e300,) * 3, 2)  # every product overflows
@example([[1.0, 1e300, 1.0]] * 3, (1.0, 1e10, 1.0), 1)  # only some noise overflows
@example([[1.0, 1.0, 2.0 ** -53]] * 3, (1.0, 1.0, 1.0), 2)  # a + b rounds, which sum compensates from 3.12
def test_tin_rates_is_the_generator_sum_form_bit_for_bit(gains_sq, p, m):
    got = rates._tin_rates(gains_sq, p, m)
    assert [x.hex() for x in got] == [x.hex() for x in old_tin_rates(gains_sq, p, m)]


signed_gain = st.builds(
    lambda mag, neg: -mag if neg else mag, st.floats(min_value=1e-6, max_value=1e6), st.booleans()
)
random_channel = st.lists(
    st.lists(st.lists(signed_gain, min_size=3, max_size=3), min_size=3, max_size=3),
    min_size=1, max_size=3,
).map(lambda carriers: chan.ParallelChannel(tuple(chan.SingleCarrierChannel(c) for c in carriers)))


@settings(max_examples=200, deadline=None)
@given(
    random_channel,
    st.one_of(st.sampled_from([0.0, 5e-324, 1.0]), st.floats(min_value=0.0, max_value=1e300)),
)
def test_tdma_curve_is_the_best_tdma_rate_bit_for_bit(channel, snr):
    want = max(rates.tdma_rate(channel, user, snr).sum_rate for user in chan.USERS)
    assert rates._tdma_curve(channel)(snr).hex() == want.hex()


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
    # a carrier with no marginal value and one that saturates at p = 1
    fns = [lambda p: 0.0, lambda p: min(p, 1.0)]
    assert rates.allocate_power(fns, 0.0).per_carrier == (0.0, 0.0)


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
    assert rates.water_fill([4.0, 1.0], 3.0) == (1.875, 1.125)


def test_water_fill_splits_a_budget_below_the_float_step():
    # 1 + 1e-300 == 1, yet the level is measured from the lowest floor, so the
    # two equal floors share the budget instead of dropping it
    assert rates.water_fill([1.0, 1.0], 1e-300) == (5e-301, 5e-301)


@pytest.mark.parametrize("k, gain_sq, budget", [
    # one carrier gets exactly its budget
    (1, 0.37, 5e-324), (1, 0.37, 1e-300), (1, 0.37, 0.1), (1, 1e-200, 3.0), (1, 1e200, 1e308),
    # k equal floors get exactly budget / k
    (3, 10.0, 0.1), (3, 1e-200, 1e300), (5, 1 / 64, 1e-3), (8, 7.0, 1e308),
    # three floors 1/10 add up to more than 3/10; measured from the lowest
    # floor they are three zeros, so a zero budget needs no rule of its own
    (3, 10.0, 0.0),
])
def test_water_fill_splits_equal_floors_exactly(k, gain_sq, budget):
    assert rates.water_fill([gain_sq] * k, budget) == (budget / k,) * k


def test_water_fill_rejects_bad_budget():
    for budget in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="budget"):
            rates.water_fill([1.0, 2.0], budget)


def test_water_fill_rejects_an_empty_gain_vector():
    # the parent raised UnboundLocalError at a positive budget and returned () at 0
    for budget in (1.0, 0.0):
        with pytest.raises(ValueError, match="at least one"):
            rates.water_fill([], budget)


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
    alloc = np.array(rates.water_fill(gains_sq, budget))
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
    assert permuted == tuple(alloc[k] for k in order)


@settings(max_examples=100, deadline=None)
@given(fill_case())
def test_water_fill_objective_matches_generic_allocator(case):
    gains_sq, budget = case
    fns = [half_log2(g) for g in gains_sq]
    reference = rates.allocate_power(fns, budget)
    exact = sum(f(p) for f, p in zip(fns, rates.water_fill(gains_sq, budget)))
    assert exact >= sum(f(p) for f, p in zip(fns, reference.per_carrier)) - 1e-12


def exact_fill(floors, budget):
    """Water-fill ``budget`` over ``floors`` in exact rationals: p_m = max(0, L - f_m)."""
    budget = Fraction(budget)
    total = Fraction(0)
    for k, floor in enumerate(sorted(floors), start=1):
        total += floor
        if (candidate := (budget + total) / k) >= floor:
            level = candidate
    return [max(Fraction(0), level - floor) for floor in floors]


# squared gains across the whole range the fill accepts, and budgets from
# zero and below the float step up to where g p overflows into the log domain
wide_fill_case = st.tuples(
    st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=8),
    st.one_of(st.sampled_from([0.0, 5e-324, 1e-300]), st.floats(min_value=0.0, max_value=1e308)),
)


# The reference pours over the kernel's own floors 1/g_m as floats: their rounding,
# half an ulp of each floor, is the input's, and no fill of those floats undoes it.
# Tolerances, in ulps of the budget (an ulp is 2^-1074 for a subnormal one):
# - each power within k ulps; an adversarial search over 8 carriers whose level
#   sits just above the highest offset measured 2.5;
# - the spend at most k^2 ulps over the budget, which covers the worst-case
#   rounding of the running offset sum, of budget + sum, of the division and of
#   the k subtractions; the same search measured 15 at k = 8, three seeds of
#   4,000 random fills at most 1.04, and one carrier spends exactly its budget.
@settings(max_examples=300, deadline=None)
@given(wide_fill_case)
@example(([10.0] * 3, 0.0))
@example(([1.0, 1.0], 1e-300))
@example(([1e300, 1e200, 1.0], 1e300))
def test_water_fill_matches_an_exact_fill(case):
    gains_sq, budget = case
    k, ulp = len(gains_sq), math.ulp(budget)
    alloc = rates.water_fill(gains_sq, budget)
    want = exact_fill([Fraction(1.0 / g) for g in gains_sq], budget)
    assert all(abs(Fraction(p) - w) <= k * ulp for p, w in zip(alloc, want)), (alloc, want)
    assert sum(Fraction(p) for p in alloc) <= Fraction(budget) + k * k * Fraction(ulp)


# Reference copies of the list-form water-fill kernels: a list of powers, then
# a list of per-carrier rates.  Like the one-pass kernels, the pour measures the
# level from the lowest floor 1/g_m; the one-pass kernels must match it bit for bit.

def old_pour(gains_sq, budget):
    rates._check_power(budget, "power budget")
    floors = [1.0 / g for g in gains_sq]
    offsets = [floor - min(floors) for floor in floors]
    total = 0.0
    for k, offset in enumerate(sorted(offsets), start=1):
        total += offset
        candidate = (budget + total) / k
        if candidate >= offset:
            level = candidate
    return [0.0 if d <= 0.0 else d for d in [level - offset for offset in offsets]]


def old_half_log2_1p(gains_sq, powers):
    return [
        0.5 * math.log2(1.0 + x) if (x := g * p) < math.inf else 0.5 * rates._log2_1p_ratio(g, p)
        for g, p in zip(gains_sq, powers)
    ]


@settings(max_examples=300, deadline=None)
@given(wide_fill_case)
@example(([10.0] * 3, 0.0))
@example(([1.0, 1.0], 1e-300))
@example(([1e300, 1e200, 1.0], 1e300))
def test_fill_rate_is_the_list_form_bit_for_bit(case):
    gains_sq, budget = case
    old = sum(old_half_log2_1p(gains_sq, old_pour(gains_sq, budget))) / len(gains_sq)
    assert rates._fill_rate(rates._prepare_fill(gains_sq), budget).hex() == old.hex()


def test_fill_rate_example_reaches_the_log_domain():
    # the last example above: g p overflows on the first carrier, whose rate
    # then goes through _log2_1p_ratio, and the mean stays finite
    fill = rates._prepare_fill([1e300, 1e200, 1.0])
    assert fill.pairs[0][0] * rates.water_fill([1e300, 1e200, 1.0], 1e300)[0] == math.inf
    assert math.isfinite(rates._fill_rate(fill, 1e300))


@settings(max_examples=300, deadline=None)
@given(wide_fill_case)
@example(([10.0] * 3, 0.0))
@example(([1.0, 1.0], 1e-300))
def test_water_fill_is_the_old_pour_bit_for_bit(case):
    gains_sq, budget = case
    old = old_pour(gains_sq, budget)
    assert [p.hex() for p in rates.water_fill(gains_sq, budget)] == [p.hex() for p in old]


def test_allocate_power_equal_weak_carriers():
    # concave input on which the finite-difference marginals are too
    # noisy for the multiplier bisection to land on the budget
    assert rates.water_fill([1 / 64, 1 / 64], 0.25) == (0.125, 0.125)
    rates.allocate_power([half_log2(1 / 64)] * 2, 0.25)


@pytest.mark.parametrize("k, gain_sq, budget", [
    (2, 1 / 64, 0.25), (2, 1e-3, 10.0), (3, 0.01, 0.5), (4, 1 / 64, 1e-3),
    (5, 0.2, 3.0), (6, 1e-3, 7.5), (6, 1.0, 10.0),
])
def test_allocate_power_equal_carriers_split_the_budget(k, gain_sq, budget):
    fns = [half_log2(gain_sq)] * k
    alloc = rates.allocate_power(fns, budget).per_carrier
    assert math.fsum(alloc) == pytest.approx(budget, rel=1e-15)
    exact = sum(f(p) for f, p in zip(fns, rates.water_fill([gain_sq] * k, budget)))
    assert sum(f(p) for f, p in zip(fns, alloc)) == pytest.approx(exact, abs=1e-15)


def test_allocate_power_rejects_convex_input():
    # (3, 0) scores 9, so no split that favours the log carrier is optimal
    with pytest.raises(rates.AllocationError, match="one carrier alone"):
        rates.allocate_power([lambda p: p * p, half_log2(1.0)], 3.0)


@pytest.mark.parametrize("budget", [math.nan, math.inf, -1.0])
def test_allocate_power_rejects_bad_budget(budget):
    with pytest.raises(ValueError, match="total_snr must be finite and nonnegative"):
        rates.allocate_power([half_log2(1.0)], budget)


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
    def link(i, j):
        return np.array([float(c.gain(i, j)) for c in channel.carriers])

    lhs_diag = link(1, 2) * link(3, 1) / link(3, 2)
    rhs_diag = link(1, 3) * link(2, 1) / link(2, 3)
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
    # no construction is implemented off two carriers, so none aligns there
    assert rates.ia_feasibility(chan.ParallelChannel((CE.carriers[0],))) is None
    assert rates.ia_feasibility(chan.ParallelChannel(CE.carriers + CE.carriers[:1])) is None


def two_carriers(h1, h2):
    return chan.ParallelChannel((chan.SingleCarrierChannel(h1), chan.SingleCarrierChannel(h2)))


def test_ia_aligns_where_the_chain_vector_squares_overflow():
    # the counterexample with h31 scaled by 1e150 and h32 by 1e-11: before
    # normalisation v2 ~ (h31/h32) v1 is ~7e160 per entry, whose square is inf
    channel = two_carriers(((1, 1, 1), (1, 1, 1), (1e150, 1e-11, -1)),
                           ((-1, 1, 1), (1, -1, 1), (1e150, 1e-11, 1)))
    scheme = rates.ia_feasibility(channel)
    assert scheme is not None
    g = rates.effective_gains(channel, scheme)
    assert all(g[i, j] == 0.0 for i in range(3) for j in range(3) if i != j)
    joint = estimate_dof(lambda snr: rates.tin_rate(channel, scheme.with_equal_power(snr)).sum_rate)
    assert joint.slope == pytest.approx(1.5, abs=0.05)


def test_ia_rejects_an_alignment_map_that_overflows_on_one_carrier():
    # T is inf on carrier 1 and finite on carrier 2; inf > tol * inf is False
    channel = two_carriers(((1, 1e100, 1e-10), (1e-10, 1, 1e100), (1e100, 1e-10, 1)),
                           ((1, 2, 3), (4, 1, 5), (6, 7, 1)))
    assert rates.ia_feasibility(channel) is None
    (r,) = rates.sweep(channel, [40.0])
    assert r.scheme_note.startswith("tdma-fallback no-ia")
    assert r.joint_tin == r.tdma


def test_ia_aligns_where_the_alignment_map_overflows_on_both_carriers():
    # the same cross gains on both carriers give the same T, exactly; the
    # flipped direct gains keep every desired signal off the interference
    channel = two_carriers(((1, 1e100, 1e-10), (1e-10, 1, 1e100), (1e100, 1e-10, 1)),
                           ((-1, 1e100, 1e-10), (1e-10, -1, 1e100), (1e100, 1e-10, -1)))
    scheme = rates.ia_feasibility(channel)
    assert scheme is not None
    g = rates.effective_gains(channel, scheme)
    assert all(g[i, j] == 0.0 for i in range(3) for j in range(3) if i != j)
    assert all(g[i, i] > 0.5 for i in range(3))


@pytest.mark.parametrize("scale", [1e-9, 1e-11])
def test_ia_aligns_on_a_uniformly_scaled_counterexample(scale):
    # every gain times `scale` is still a valid channel, and a common
    # scale factor changes no alignment: the desired gains shrink with it
    channel = chan.ParallelChannel(tuple(
        chan.SingleCarrierChannel(tuple(tuple(scale * x for x in row) for row in carrier.h))
        for carrier in CE.carriers
    ))
    scheme = rates.ia_feasibility(channel)
    assert scheme is not None
    g = rates.effective_gains(channel, scheme)
    assert all(g[i, j] == 0.0 for i in range(3) for j in range(3) if i != j)
    (r,) = rates.sweep(channel, [200.0])
    assert r.scheme_note == "ia-zf-tin equal-power"
    assert r.joint_tin > r.tdma


@pytest.mark.parametrize("c1, c2", [(1e-5, 1e5), (1e-9, 1e9), (1e5, 1e-5)])
def test_ia_aligns_on_a_per_carrier_scaled_counterexample(c1, c2):
    # the combiner that nulls the interference keeps mostly the small
    # carrier's part, so the desired gain is tiny next to |H_ii v_i|; it
    # is still far from cancelling against its own terms
    channel = chan.ParallelChannel(tuple(
        chan.SingleCarrierChannel(tuple(tuple(c * x for x in row) for row in carrier.h))
        for carrier, c in zip(CE.carriers, (c1, c2))
    ))
    scheme = rates.ia_feasibility(channel)
    assert scheme is not None
    g = rates.effective_gains(channel, scheme)
    # not exact zeros: the scaled gains round (8.5e-22 against 1.4e-5 at 1e-5/1e5)
    assert all(abs(g[i, j]) <= 1e-12 * min(np.diag(g)) for i in range(3) for j in range(3)
               if i != j)
    (r,) = rates.sweep(channel, [60.0])
    assert r.scheme_note == "ia-zf-tin equal-power"


@pytest.mark.parametrize("delta, aligned", [
    (1e-11, True), (5e-10, True), (8e-10, True), (-5e-10, True),
    (1.2e-9, False), (2e-9, False), (1e-8, False), (-2e-9, False),
])
def test_ia_alignment_tol_is_a_relative_gap_in_the_map(delta, aligned):
    # h12 of carrier 1 times 1 + delta moves T on carrier 1 by that factor
    base = [list(row) for row in CE.carriers[0].h]
    base[0][1] *= 1.0 + delta
    channel = chan.ParallelChannel((chan.SingleCarrierChannel(base), CE.carriers[1]))
    assert rates.ALIGNMENT_TOL == 1e-9
    assert (rates.ia_feasibility(channel) is not None) == aligned


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


def test_sweep_rejects_a_grid_above_the_point_cap():
    # the parent built a row for each of the 100,002 points
    drawn = []

    def grid():
        for k in range(rates.MAX_SNR_POINTS + 2):
            drawn.append(k)
            yield k * 1e-4

    with pytest.raises(ValueError, match=f"more than {rates.MAX_SNR_POINTS} points"):
        rates.sweep(CE, grid())
    assert len(drawn) == rates.MAX_SNR_POINTS + 1


def test_sweep_validates_the_channel_once(monkeypatch):
    calls = []
    validate = chan.ensure_parallel_valid
    monkeypatch.setattr(chan, "ensure_parallel_valid", lambda c: calls.append(c) or validate(c))
    rates.sweep(CE, [0.0, 10.0])
    assert len(calls) == 1


def test_sweep_rejects_bad_grids():
    with pytest.raises(ValueError):
        rates.sweep(CE, [])
    with pytest.raises(ValueError):
        rates.sweep(CE, [0.0, 0.0])
    with pytest.raises(ValueError):
        rates.sweep(CE, [10.0, 5.0])
