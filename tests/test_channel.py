"""Channel model, validation and singularity detector tests."""

import json
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icsep import channel as chan
from icsep.game import adversary_best_response

ALL_TRIPLES = tuple(sorted(permutations((1, 2, 3))))
OFF_DIAG = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j)


def carrier(rows):
    return chan.SingleCarrierChannel(tuple(tuple(row) for row in rows))


def exhaustive_witnesses(rows):
    """Independent brute-force oracle: exact rational test of all 6 triples."""
    found = []
    for i, j, k in ALL_TRIPLES:
        r1 = Fraction(rows[i - 1][j - 1]) / Fraction(rows[i - 1][i - 1])
        r2 = Fraction(rows[k - 1][j - 1]) / Fraction(rows[k - 1][i - 1])
        if r1 == r2:
            found.append((i, j, k, r1))
    return found


nonzero_gain = st.floats(min_value=-5.0, max_value=5.0).filter(lambda x: abs(x) > 0.1)
random_carrier = st.builds(
    lambda flat: carrier([flat[0:3], flat[3:6], flat[6:9]]),
    st.lists(nonzero_gain, min_size=9, max_size=9),
)


# ---------------------------------------------------------------- validate

def test_validate_all_ones_is_valid():
    assert chan.validate(carrier([[1, 1, 1], [1, 1, 1], [1, 1, 1]])).ok


def test_validate_reports_zero_entry_with_index():
    result = chan.validate(carrier([[1, 0, 1], [1, 1, 1], [1, 1, 1]]))
    assert not result.ok
    assert result.issues == ((1, 2, "zero gain"),)


def test_validate_reports_nonfinite_entry():
    result = chan.validate(carrier([[1, 1, 1], [1, float("nan"), 1], [1, 1, float("inf")]]))
    assert not result.ok
    assert {(i, j) for i, j, _ in result.issues} == {(2, 2), (3, 3)}


def test_validate_reports_gain_whose_square_overflows():
    # finite, but every rate squares the gains
    result = chan.validate(carrier([[1, 1, 1], [1, 1, -1e200], [1, 1, 1]]))
    assert not result.ok
    assert [(i, j) for i, j, _ in result.issues] == [(2, 3)]
    assert chan.validate(carrier([[1, 1, 1], [1, 1, -1e150], [1, 1, 1]])).ok


def test_validate_counterexample_carriers():
    for c in chan.make_counterexample().carriers:
        assert chan.validate(c).ok


def test_ensure_valid_raises_with_indices():
    with pytest.raises(chan.InvalidChannelError, match=r"\(1,2\)"):
        chan.ensure_valid(carrier([[1, 0, 1], [1, 1, 1], [1, 1, 1]]))


# ------------------------------------------------------- singularity check

def test_counterexample_carrier1_witness():
    c1 = chan.make_counterexample().carriers[0]
    w = chan.singularity_check(c1)
    # several triples collide on this carrier; the lexicographically first
    # one wins and the common ratio is 1
    assert (w.i, w.j, w.k) == (1, 2, 3)
    assert w.gamma == 1.0


def test_counterexample_carrier2_witness():
    c2 = chan.make_counterexample().carriers[1]
    w = chan.singularity_check(c2)
    assert (w.i, w.j, w.k) == (3, 1, 2)
    assert w.gamma == 1.0


def test_generic_integer_channel_has_no_witness():
    # frozen from the exhaustive rational oracle below
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    assert exhaustive_witnesses(rows) == []
    assert chan.singularity_check(carrier(rows)) is None
    assert chan.all_witnesses(carrier(rows)) == ()


def test_detector_agrees_with_exhaustive_oracle_on_counterexample():
    for c in chan.make_counterexample().carriers:
        got = {(w.i, w.j, w.k) for w in chan.all_witnesses(c)}
        want = {(i, j, k) for i, j, k, _ in exhaustive_witnesses(c.h)}
        assert got == want


def test_constructed_singular_channel_fires():
    base = carrier([[1.3, 0.7, 2.1], [0.9, 1.7, 0.4], [2.3, 0.6, 1.1]])
    modified = adversary_best_response(base, (1, 2))
    assert chan.singularity_check(modified) is not None
    assert chan.singularity_check(modified, exact=True) is not None


def test_tol_must_be_positive():
    c1 = chan.make_counterexample().carriers[0]
    with pytest.raises(ValueError, match="tol"):
        chan.singularity_check(c1, tol=0.0)


def test_invalid_channel_rejected():
    with pytest.raises(chan.InvalidChannelError):
        chan.singularity_check(carrier([[1, 1, 1], [1, 0, 1], [1, 1, 1]]))


def test_random_continuous_channels_do_not_fire():
    # the ratio condition cuts out a measure-zero set, so i.i.d.
    # continuous draws never land on it
    rng = np.random.default_rng(31337)
    for _ in range(100):
        c = carrier(rng.uniform(-3.0, 3.0, size=(3, 3)).tolist())
        assert chan.singularity_check(c, tol=1e-9) is None


@settings(max_examples=30)
@given(random_carrier, st.sampled_from(OFF_DIAG), st.lists(nonzero_gain, min_size=3, max_size=3))
def test_row_scaling_leaves_witness_set_unchanged(c, pos, scales):
    """The ratio condition only compares entries within a row."""
    singular = adversary_best_response(c, pos)
    scaled = chan.SingleCarrierChannel(
        tuple(tuple(float(x) * s for x in row) for row, s in zip(singular.h, scales))
    )
    before = {(w.i, w.j, w.k) for w in chan.all_witnesses(singular)}
    after = {(w.i, w.j, w.k) for w in chan.all_witnesses(scaled)}
    assert before == after


@settings(max_examples=30)
@given(random_carrier, st.sampled_from(OFF_DIAG), st.permutations((1, 2, 3)))
def test_witnesses_are_permutation_covariant(c, pos, perm):
    singular = adversary_best_response(c, pos)
    relabel = {old: new for old, new in zip((1, 2, 3), perm)}
    rows = [[None] * 3 for _ in range(3)]
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            rows[relabel[i] - 1][relabel[j] - 1] = singular.gain(i, j)
    permuted = chan.SingleCarrierChannel(tuple(tuple(r) for r in rows))
    before = {(relabel[w.i], relabel[w.j], relabel[w.k]) for w in chan.all_witnesses(singular)}
    after = {(w.i, w.j, w.k) for w in chan.all_witnesses(permuted)}
    assert before == after


# ----------------------------------------------------------- counterexample

def test_make_counterexample_matrices():
    ce = chan.make_counterexample()
    assert ce.carriers[0].h == ((1, 1, 1), (1, 1, 1), (1, 1, -1))
    assert ce.carriers[1].h == ((-1, 1, 1), (1, -1, 1), (1, 1, 1))


def test_make_counterexample_is_deterministic():
    assert chan.make_counterexample() == chan.make_counterexample()


def test_both_counterexample_carriers_are_singular():
    for c in chan.make_counterexample().carriers:
        assert chan.singularity_check(c) is not None


# ---------------------------------------------------------- per-carrier DoF

def test_per_carrier_dof_counterexample():
    assert chan.per_carrier_dof(chan.make_counterexample()) == (1, 1)


def test_per_carrier_dof_generic_is_unknown():
    c = carrier([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert chan.per_carrier_dof(chan.ParallelChannel((c,))) == (None,)


def test_per_carrier_dof_single_carrier_counterexample():
    c1 = chan.make_counterexample().carriers[0]
    assert chan.per_carrier_dof(chan.ParallelChannel((c1,))) == (1,)


# --------------------------------------------------------------- JSON files

def test_parse_and_load_roundtrip(tmp_path):
    doc = {"carriers": [{"h": [[1.5, 1, 1], [1, 1, 1], [1, 1, -2]]}]}
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc))
    loaded = chan.load_channel(path)
    assert loaded == chan.parse_channel(doc)
    assert loaded.carriers[0].gain(1, 1) == 1.5
    assert loaded.carriers[0].gain(3, 3) == -2


def test_parse_rejects_missing_carriers():
    with pytest.raises(chan.ChannelFormatError, match="carriers"):
        chan.parse_channel({"h": [[1, 1, 1]] * 3})


def test_parse_reports_bad_row_with_context():
    with pytest.raises(chan.ChannelFormatError, match=r"carriers\[0\]"):
        chan.parse_channel({"carriers": [{"h": [[1, 1], [1, 1, 1], [1, 1, 1]]}]})


def test_parse_reports_non_number_entry():
    with pytest.raises(chan.ChannelFormatError, match=r"h\[1\]\[2\]"):
        chan.parse_channel({"carriers": [{"h": [[1, 1, 1], [1, 1, "x"], [1, 1, 1]]}]})


def test_load_reports_syntax_error_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"carriers": [')
    with pytest.raises(chan.ChannelFormatError, match="line"):
        chan.load_channel(path)


def test_link_gains_vector():
    ce = chan.make_counterexample()
    assert np.array_equal(ce.link_gains(3, 3), np.array([-1.0, 1.0]))
    assert np.array_equal(ce.link_gains(1, 2), np.array([1.0, 1.0]))
