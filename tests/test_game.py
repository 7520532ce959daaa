"""Adversarial coefficient game tests."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from icsep import channel as chan
from icsep import game

CE = chan.make_counterexample()
OFF_DIAG = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j)


def carrier(rows):
    return chan.SingleCarrierChannel(tuple(tuple(r) for r in rows))


nonzero_gain = st.floats(min_value=-5.0, max_value=5.0).filter(lambda x: abs(x) > 0.1)
random_carrier = st.builds(
    lambda flat: carrier([flat[0:3], flat[3:6], flat[6:9]]),
    st.lists(nonzero_gain, min_size=9, max_size=9),
)


# ------------------------------------------------------ best response

def test_best_response_position_12():
    # h12 <- h13 * h22 / h23
    c = carrier([[1, 9, 2], [1, 3, 4], [1, 1, 1]])
    got = game.adversary_best_response(c, (1, 2))
    assert got.gain(1, 2) == Fraction(3, 2)
    assert got.gain(1, 2) == 1.5


def test_best_response_position_21_frozen_derivation():
    # solving the ratio condition for (2,1) by hand gives
    # h21 <- h23 * h11 / h13; on this carrier that is 13*2/5 = 26/5
    c = carrier([[2, 3, 5], [7, 11, 13], [17, 19, 23]])
    got = game.adversary_best_response(c, (2, 1))
    assert got.gain(2, 1) == Fraction(26, 5)
    # everything else untouched
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if (i, j) != (2, 1):
                assert got.gain(i, j) == c.gain(i, j)


def test_best_response_on_counterexample_carrier_is_identity():
    c1 = CE.carriers[0]
    got = game.adversary_best_response(c1, (2, 1))
    assert got.gain(2, 1) == 1


def test_best_response_rejects_diagonal_position():
    with pytest.raises(ValueError, match="off-diagonal"):
        game.adversary_best_response(CE.carriers[0], (2, 2))


@pytest.mark.parametrize("pos", [(True, 2), (1, True), (1, 2.0), (1.0, 2), (np.float64(1), 2),
                                 (np.True_, 2), 12, (1, 2, 3)])
def test_best_response_rejects_non_int_indices(pos):
    # equal to a valid index, but a bool or float is not a position, and neither is a non-pair
    with pytest.raises(ValueError, match="off-diagonal"):
        game.adversary_best_response(CE.carriers[0], pos)


def test_best_response_accepts_numpy_int_indices():
    got = game.adversary_best_response(CE.carriers[0], (np.int64(2), np.int32(1)))
    assert got == game.adversary_best_response(CE.carriers[0], (2, 1))


@settings(max_examples=50)
@given(random_carrier, st.sampled_from(OFF_DIAG))
def test_best_response_always_creates_exact_witness(c, pos):
    modified = game.adversary_best_response(c, pos)
    i, j = pos
    k = next(x for x in (1, 2, 3) if x not in (i, j))
    witnesses = {(w.i, w.j, w.k) for w in chan.all_witnesses(modified, exact=True)}
    # the forced collision reads h[j][k]/h[j][j] == h[i][k]/h[i][j]
    assert (j, k, i) in witnesses
    assert chan.singularity_check(modified) is not None  # default tolerance too


# every type a gain is stored as, each with either sign
signed_exact_gain = st.builds(
    lambda x, sign: sign * x,
    st.one_of(
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=1e-3, max_value=1e3),
        st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=10**6),
    ),
    st.sampled_from((-1, 1)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(signed_exact_gain, min_size=9, max_size=9), st.sampled_from(OFF_DIAG))
def test_best_response_value_is_the_exact_fraction_product(flat, pos):
    i, j = pos
    k = next(x for x in (1, 2, 3) if x not in (i, j))
    h = [flat[0:3], flat[3:6], flat[6:9]]
    got = game.adversary_best_response(carrier(h), pos).gain(i, j)
    assert got == Fraction(h[i - 1][k - 1]) * Fraction(h[j - 1][j - 1]) / Fraction(h[j - 1][k - 1])
    assert type(got) is Fraction


signed_wide_gain = st.builds(
    lambda e, sign: sign * 10.0**e,
    st.floats(min_value=-6.0, max_value=6.0),
    st.sampled_from((-1.0, 1.0)),
)
wide_carrier = st.builds(
    lambda flat: carrier([flat[0:3], flat[3:6], flat[6:9]]),
    st.lists(signed_wide_gain, min_size=9, max_size=9),
)


@settings(max_examples=200, deadline=None)
@given(wide_carrier, st.sampled_from(OFF_DIAG))
def test_float_detector_confirms_every_valid_best_response(c, pos):
    # play_game reports DoF 1 per modified carrier without running the detector;
    # the float detector is the independent check of that constant
    modified = game.adversary_best_response(c, pos)
    assume(chan.validate(modified).ok)
    assert chan.per_carrier_dof(chan.ParallelChannel((modified,))) == (1,)


@settings(max_examples=50)
@given(random_carrier, st.sampled_from(OFF_DIAG))
def test_best_response_is_idempotent(c, pos):
    once = game.adversary_best_response(c, pos)
    twice = game.adversary_best_response(once, pos)
    assert once == twice


@settings(max_examples=50)
@given(random_carrier, st.sampled_from(OFF_DIAG))
def test_best_response_value_is_nonzero(c, pos):
    modified = game.adversary_best_response(c, pos)
    assert modified.gain(*pos) != 0
    assert chan.validate(modified).ok


# --------------------------------------------------------------- play_game

def test_player1_wins_on_counterexample_construction():
    outcome = game.play_game(CE, [(1, 2), (2, 3)])
    assert outcome.modified_channel == CE  # best response leaves it unchanged
    assert outcome.per_carrier_dof == (1, 1)
    assert outcome.winner == game.PLAYER1
    assert outcome.joint_dof_estimate == pytest.approx(1.5, abs=0.05)


def test_player2_wins_on_single_carrier():
    single = chan.ParallelChannel((carrier([[1.1, 0.6, 1.4], [0.8, 1.3, 0.5], [0.7, 0.9, 1.2]]),))
    outcome = game.play_game(single, [(1, 2)])
    assert outcome.winner == game.PLAYER2
    assert outcome.per_carrier_dof == (1,)
    assert outcome.joint_dof_estimate == pytest.approx(1.0, abs=0.05)


def test_player2_wins_when_same_coefficient_controls_all_carriers():
    outcome = game.play_game(CE, [(1, 2), (1, 2)])
    assert outcome.winner == game.PLAYER2
    assert outcome.per_carrier_dof == (1, 1)
    assert outcome.joint_dof_estimate == pytest.approx(1.0, abs=0.05)


# the CLI prints 9 significant digits of the slope; these pin its last bit
@pytest.mark.parametrize("coeffs, slope_hex", [
    (((1, 2), (2, 3)), "0x1.7ffe21b742b7dp+0"),  # aligned: the TIN fit
    (((1, 2), (1, 2)), "0x1.fffe56d8079e1p-1"),  # not aligned: the TDMA fit
], ids=["tin-fit", "tdma-fit"])
def test_game_slope_is_pinned_bit_for_bit(coeffs, slope_hex):
    assert game.play_game(CE, coeffs).joint_dof_estimate.hex() == slope_hex


def test_play_game_requires_one_coeff_per_carrier():
    with pytest.raises(ValueError, match="per carrier"):
        game.play_game(CE, [(1, 2)])


def test_play_game_rejects_positions_that_are_not_pairs():
    with pytest.raises(ValueError, match="off-diagonal"):
        game.play_game(CE, [12, 21])


@pytest.mark.parametrize("rows, reason", [
    # h13 * h22 / h23 = 1e311, beyond the float range
    ([[1, 1, 1e150], [1, 1e150, 1e-11], [1, 1, 1]], "not a finite real number"),
    # h13 * h22 / h23 = 1e-172, below ZERO_TOL
    ([[1, 1, 1e-11], [1, 1e-11, 1e150], [1, 1, 1]], "zero gain"),
])
def test_best_response_out_of_range_is_blamed_on_the_best_response(rows, reason):
    single = chan.ParallelChannel((carrier(rows),))
    assert chan.validate(single.carriers[0]).ok
    with pytest.raises(ValueError, match=rf"best response.*\(1,2\): {reason}"):
        game.play_game(single, [(1, 2)])


# ------------------------------------------ the verdict and the gain scale

def scaled_counterexample(c1, c2):
    """Every gain of carrier m multiplied by c_m: valid, and aligned exactly."""
    return chan.ParallelChannel(
        tuple(
            carrier([[c * x for x in row] for row in base.h])
            for base, c in zip(CE.carriers, (c1, c2))
        )
    )


ALIGNED, REPEATED = ((1, 2), (2, 3)), ((1, 2), (1, 2))


def assert_scale_free_verdict(c1, c2):
    channel = scaled_counterexample(c1, c2)
    assert game.play_game(channel, ALIGNED).winner == game.PLAYER1
    assert game.play_game(channel, REPEATED).winner == game.PLAYER2


@pytest.mark.parametrize("c", [1e-5, 1e-3, 3e-3, 1e-2, 1e5])
def test_verdict_does_not_depend_on_gain_scale(c):
    # below 1e-1 the 40-80 dB slope reads low (0.532 at 1e-3); the verdict must not
    assert_scale_free_verdict(c, c)


def log_scale(lo, hi):
    """10**e for e uniform in [lo, hi]."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


@settings(max_examples=100, deadline=None)
@given(log_scale(-6.0, 6.0))
def test_verdict_is_scale_free_under_uniform_scaling(c):
    assert_scale_free_verdict(c, c)


@settings(max_examples=100, deadline=None)
@given(log_scale(-9.0, 9.0), log_scale(-9.0, 9.0))
def test_verdict_is_scale_free_under_per_carrier_scaling(c1, c2):
    assert_scale_free_verdict(c1, c2)


def benchmark_like_pool(rng, n):
    """Inputs drawn like the ``game`` benchmark's: the scaled counterexample
    with log-uniform c1, c2 in [0.3, 3] under both coefficient patterns,
    and generic channels with gains uniform in +-[0.3, 3]."""
    def scale():
        return 0.3 * 10.0 ** rng.uniform(0.0, 1.0)

    def gain():
        return rng.uniform(0.3, 3.0) * rng.choice((-1.0, 1.0))

    for _ in range(n):
        yield scaled_counterexample(scale(), scale()), ALIGNED
        pos = rng.choice(OFF_DIAG)
        yield scaled_counterexample(scale(), scale()), (pos, pos)
        generic = chan.ParallelChannel(
            tuple(carrier([[gain() for _ in range(3)] for _ in range(3)]) for _ in range(2))
        )
        yield generic, (rng.choice(OFF_DIAG), rng.choice(OFF_DIAG))


@pytest.mark.parametrize("seed", range(3))
def test_reported_slope_matches_the_verdict_on_the_benchmark_range(seed):
    # the verdict does not read the slope; on these gains the 40-80 dB fit lands
    # within 1e-3 of the verdict's DoF (worst seen 3.0e-4), though rarer draws
    # with a small effective gain can read far lower
    for channel, coeffs in benchmark_like_pool(random.Random(seed), 100):
        outcome = game.play_game(channel, coeffs)
        assert outcome.per_carrier_dof == chan.per_carrier_dof(outcome.modified_channel)
        dof = 1.5 if outcome.winner == game.PLAYER1 else 1.0
        assert abs(outcome.joint_dof_estimate - dof) <= 1e-3, (channel, coeffs, outcome)
