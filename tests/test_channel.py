"""Channel model, validation and singularity detector tests."""

import json
import math
import numbers
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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


@pytest.mark.parametrize("big", [10**400, Fraction(10**400)], ids=["int", "fraction"])
def test_validate_reports_gain_whose_float_conversion_overflows(big):
    result = chan.validate(carrier([[1, 1, 1], [1, big, 1], [1, 1, 1]]))
    assert not result.ok
    assert result.issues == ((2, 2, "not a finite real number"),)


def test_validate_reports_gain_whose_square_overflows():
    # finite, but every rate squares the gains
    result = chan.validate(carrier([[1, 1, 1], [1, 1, -1e200], [1, 1, 1]]))
    assert not result.ok
    assert [(i, j) for i, j, _ in result.issues] == [(2, 3)]
    assert chan.validate(carrier([[1, 1, 1], [1, 1, -1e150], [1, 1, 1]])).ok


# a valid gain of each type a carrier stores, with either sign
stored_gain = st.builds(
    lambda x, sign: sign * x,
    st.one_of(
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=1e-6, max_value=1e6),
        st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=10**6),
    ),
    st.sampled_from((-1, 1)),
)
# replacements validate rejects: beyond the float range, at or below ZERO_TOL, a square that overflows
rejected_gain = st.sampled_from([
    Fraction(10**400), -(10**400), math.inf, math.nan,
    Fraction(1, 10**13), chan.ZERO_TOL, -1e-300, 0,
    1e200, -(10**200), Fraction(10**160, 3),
])


@pytest.mark.parametrize("pos", OFF_DIAG)
@settings(max_examples=60, deadline=None)
@given(st.lists(stored_gain, min_size=9, max_size=9), st.one_of(rejected_gain, stored_gain))
@example([1] * 9, Fraction(10**400))  # not a finite real number
@example([1] * 9, Fraction(1, 10**13))  # zero gain
@example([1] * 9, 1e200)  # gain too large: its square overflows
def test_with_gain_is_the_full_build(pos, flat, x):
    rows = [flat[0:3], flat[3:6], flat[6:9]]
    base = carrier(rows)
    assert chan.validate(base).ok
    i, j = pos
    rows[i - 1][j - 1] = x
    want = carrier(rows)
    got = base._with_gain(i, j, x)
    # repr tells int, float and Fraction apart, and is exact for each
    assert repr(got.h) == repr(want.h)
    assert [type(v) for row in got.h for v in row] == [type(v) for row in want.h for v in row]
    assert repr(got._floats) == repr(want._floats)
    assert got._issues == want._issues


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
    assert chan.all_witnesses(modified, exact=True) != ()


def test_tol_must_be_positive():
    c1 = chan.make_counterexample().carriers[0]
    with pytest.raises(ValueError, match="tol"):
        chan.singularity_check(c1, tol=0.0)


# a tol of 1 or more collides any two same-sign ratios, so a generic carrier
# would get a witness; NaN must fail the check too
@pytest.mark.parametrize("tol", [1.0, math.inf, math.nan])
def test_tol_must_be_below_one(tol):
    generic = carrier([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    with pytest.raises(ValueError, match="tol"):
        chan.singularity_check(generic, tol=tol)


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


@settings(max_examples=100)
@given(random_carrier, st.sampled_from(OFF_DIAG),
       st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=3, max_size=3))
def test_column_scaling_leaves_witness_set_unchanged(c, pos, exponents):
    """Scaling column j scales both ratios of a triple by the same factor."""
    singular = adversary_best_response(c, pos)
    scaled = chan.SingleCarrierChannel(
        tuple(tuple(float(x) * 10.0**e for x, e in zip(row, exponents)) for row in singular.h)
    )
    assume(chan.validate(scaled).ok)
    before = {(w.i, w.j, w.k) for w in chan.all_witnesses(singular)}
    after = {(w.i, w.j, w.k) for w in chan.all_witnesses(scaled)}
    assert before == after


def test_small_ratios_do_not_collide_absolutely():
    # r1 = 2e-9 and r2 = 1.11e-9 differ by 45%; a tolerance floored at an
    # absolute 1e-9 reported them as the witness (1, 2, 3)
    rows = [[1.0, 2e-9, 0.7], [0.5, 1.3, 1.1], [0.9, 1e-9, 1.7]]
    assert exhaustive_witnesses(rows) == []
    assert chan.singularity_check(carrier(rows)) is None


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


def test_per_carrier_dof_rejects_the_first_invalid_carrier():
    ok = chan.make_counterexample().carriers[0]
    zero = carrier([[1, 1, 1], [1, 0, 1], [1, 1, 1]])
    nan = carrier([[float("nan"), 1, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(chan.InvalidChannelError, match=r"\(2,2\): zero gain"):
        chan.per_carrier_dof(chan.ParallelChannel((ok, zero, nan)))


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


# a bool or a float equal to a user index is not one, and 0 or -1 must not wrap round to 3 or 2
@pytest.mark.parametrize("index", [True, np.True_, 1.0, np.float64(1), 0, -1, 4],
                         ids=["bool", "numpy-bool", "float", "numpy-float", "zero", "minus-one", "four"])
def test_gain_rejects_non_user_indices(index):
    c = chan.make_counterexample().carriers[0]
    for i, j in ((index, 2), (2, index)):
        with pytest.raises(ValueError, match="user indices"):
            c.gain(i, j)


def test_gain_accepts_numpy_int_indices():
    c = chan.make_counterexample().carriers[0]
    assert c.gain(np.int64(3), np.int32(3)) == c.gain(3, 3) == -1


def test_parse_rejects_missing_carriers():
    for doc in (
        {"h": [[1, 1, 1]] * 3},
        {"carriers": []},
        {"carriers": [{"g": [[1, 1, 1]] * 3}]},
        {"carriers": [{"h": [[1, 1, 1]] * 2}]},
    ):
        with pytest.raises(chan.ChannelFormatError, match="carriers"):
            chan.parse_channel(doc)


@pytest.mark.parametrize("carriers, match", [
    ((), "at least one carrier"),
    ((chan.make_counterexample(),), r"carriers\[0\]: expected a SingleCarrierChannel"),
], ids=["empty", "not-a-carrier"])
def test_parallel_channel_rejects_a_malformed_carrier_list(carriers, match):
    with pytest.raises(chan.ChannelFormatError, match=match):
        chan.ParallelChannel(carriers)


def test_parse_reports_bad_row_with_context():
    with pytest.raises(chan.ChannelFormatError, match=r"carriers\[0\]"):
        chan.parse_channel({"carriers": [{"h": [[1, 1], [1, 1, 1], [1, 1, 1]]}]})


def test_parse_reports_non_number_entry():
    with pytest.raises(chan.ChannelFormatError, match=r"h\[1\]\[2\]"):
        chan.parse_channel({"carriers": [{"h": [[1, 1, 1], [1, 1, "x"], [1, 1, 1]]}]})


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
def test_numpy_scalar_gains_are_stored_as_python_numbers(dtype):
    # int64 and float32 are numbers.Real without being int or float
    arr = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 10]], dtype=dtype)
    c = chan.SingleCarrierChannel(tuple(tuple(r) for r in arr))
    assert c == chan.SingleCarrierChannel(arr.tolist())
    assert {type(x) for row in c.h for x in row} <= {int, float}
    assert chan.all_witnesses(c, exact=True) == ()
    modified = adversary_best_response(c, (1, 2))
    assert chan.all_witnesses(modified, exact=True) != ()


class _Ratio:
    """A numbers.Rational that is not a Fraction (as sympy's or gmpy2's rationals are)."""

    def __init__(self, numerator, denominator):
        self.numerator, self.denominator = numerator, denominator


numbers.Rational.register(_Ratio)


def test_other_rational_gains_stay_exact():
    rows = [[1, Fraction(1, 3), 2], [Fraction(2, 7), 1, 3], [Fraction(3, 7), Fraction(1, 7), 1]]
    c = carrier([[_Ratio(x.numerator, x.denominator) for x in map(Fraction, row)] for row in rows])
    exact = carrier(rows)
    assert c == exact
    assert {type(x) for row in c.h for x in row} <= {int, Fraction}
    assert chan.all_witnesses(c, exact=True) == chan.all_witnesses(exact, exact=True)


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


def one_gain_carrier(x):
    return carrier([[1, x, 1], [1, 1, 1], [1, 1, 1]])


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
def test_bool_gain_is_not_a_number(flag):
    with pytest.raises(chan.ChannelFormatError, match=r"h\[0\]\[1\]: expected a number, got bool"):
        one_gain_carrier(flag)


@pytest.mark.parametrize("x, stored", [
    (_Int(3), 3), (np.float64(0.5), 0.5), (_Fraction(2, 6), Fraction(1, 3)),
], ids=["int-subclass", "numpy-float64", "fraction-subclass"])
def test_subclass_gains_are_stored_as_the_exact_type(x, stored):
    # np.float64 is a float subclass; each subclass is converted to the exact base type
    got = one_gain_carrier(x).h[0][1]
    assert got == stored and type(got) is type(stored)


def test_fraction_gain_is_stored_as_itself():
    x = Fraction(-7, 3)
    got = one_gain_carrier(x).h[0][1]
    assert got == x and type(got) is Fraction


def test_load_reports_syntax_error_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"carriers": [')
    with pytest.raises(chan.ChannelFormatError, match="line"):
        chan.load_channel(path)


# files json cannot decode for a reason other than a syntax error; 100,000
# levels is beyond the nesting limit of every supported Python
@pytest.mark.parametrize("content", [
    ('{"carriers": ' + "[" * 100_000 + "]" * 100_000 + "}").encode(),
    b'\xff\xfe{"carriers": []}',
    b'{"carriers": [{"h": [[' + b"1" * 5000 + b', 1, 1], [1, 1, 1], [1, 1, 1]]}]}',
], ids=["nested-too-deep", "not-utf8", "integer-over-digit-limit"])
def test_load_names_the_file_it_cannot_decode(tmp_path, content):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    with pytest.raises(chan.ChannelFormatError, match="undecodable.json: "):
        chan.load_channel(path)
