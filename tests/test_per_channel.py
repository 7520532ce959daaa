"""The per-channel curves behind ``sweep`` and the game's DoF estimate.

``sweep`` and ``game.play_game`` prepare each channel once (the aligned
TIN curve, else the TDMA curve) and then evaluate every SNR point with
arithmetic alone; these tests hold them equal, bit for bit, to the
per-point public functions.  A carrier's gains are checked once, when it
is built, so no public call on a built channel checks them again.
"""

import pytest
from hypothesis import given, settings, strategies as st

from icsep import channel as chan
from icsep import cli, game
from icsep import outerbounds as ob
from icsep import rates

CE = chan.make_counterexample()


def scaled_counterexample(c1, c2):
    """Every gain of carrier m multiplied by c_m: aligned, and in the bound family."""
    return chan.ParallelChannel(
        tuple(
            chan.SingleCarrierChannel(tuple(tuple(c * x for x in row) for row in carrier.h))
            for carrier, c in zip(CE.carriers, (c1, c2))
        )
    )


scale = st.floats(min_value=0.3, max_value=3.0)
gain = st.tuples(st.floats(min_value=0.1, max_value=5.0), st.sampled_from((-1.0, 1.0))).map(
    lambda t: t[0] * t[1]
)
generic_carrier = st.lists(gain, min_size=9, max_size=9).map(
    lambda g: chan.SingleCarrierChannel((tuple(g[0:3]), tuple(g[3:6]), tuple(g[6:9])))
)
two_carrier_channel = st.one_of(
    st.builds(scaled_counterexample, scale, scale),
    st.builds(lambda a, b: chan.ParallelChannel((a, b)), generic_carrier, generic_carrier),
)
# strictly increasing, at least 0.5 dB apart
db_grid = st.lists(st.integers(min_value=-40, max_value=160), min_size=1, max_size=12, unique=True).map(
    lambda xs: [0.5 * x for x in sorted(xs)]
)


def per_point(channel, snr):
    """(joint, separate, tdma) at one SNR through the public per-point functions."""
    tdma = max(rates.tdma_rate(channel, i, snr).sum_rate for i in chan.USERS)
    scheme = rates.ia_feasibility(channel)
    joint = tdma if scheme is None else rates.tin_rate(channel, scheme.with_equal_power(snr)).sum_rate
    try:
        separate = ob.separate_outerbound(channel, snr)
    except ob.NoSeparateBoundError:
        separate = None
    return joint, separate, tdma


def columns(rows):
    return [
        [r.joint_tin for r in rows],
        [r.separate_outer for r in rows],
        [r.tdma for r in rows],
    ]


@settings(max_examples=60, deadline=None)
@given(two_carrier_channel, db_grid)
def test_sweep_rows_equal_per_point_calls(channel, grid):
    for row in rates.sweep(channel, grid):
        assert (row.joint_tin, row.separate_outer, row.tdma) == per_point(
            channel, rates.db_to_linear(row.snr_db)
        )


@settings(max_examples=60, deadline=None)
@given(two_carrier_channel, st.lists(st.floats(min_value=-20.0, max_value=90.0), min_size=1, max_size=5))
def test_joint_rate_fn_equals_per_point_calls(channel, dbs):
    joint = rates._tin_curve(channel) or rates._tdma_curve(channel)
    for db in dbs:
        snr = rates.db_to_linear(db)
        assert joint(snr) == per_point(channel, snr)[0]


@settings(max_examples=60, deadline=None)
@given(two_carrier_channel, db_grid)
def test_sweep_columns_nondecreasing_in_snr(channel, grid):
    for col in columns(rates.sweep(channel, grid)):
        if col[0] is not None:
            assert all(b >= a for a, b in zip(col, col[1:]))


@settings(max_examples=60, deadline=None)
@given(two_carrier_channel, db_grid)
def test_sweep_columns_invariant_under_carrier_swap(channel, grid):
    swapped = chan.ParallelChannel(channel.carriers[::-1])
    rows, rows_swapped = rates.sweep(channel, grid), rates.sweep(swapped, grid)
    assert [r.scheme_note for r in rows] == [r.scheme_note for r in rows_swapped]
    for col, col_swapped in zip(columns(rows), columns(rows_swapped)):
        for a, b in zip(col, col_swapped):
            assert (a is None) == (b is None)
            if a is not None:
                assert b == pytest.approx(a, rel=1e-12, abs=0.0)



# no carrier is in the equal-magnitude family or singular
GENERIC = chan.ParallelChannel((
    chan.SingleCarrierChannel(((1.0, 0.3, 0.7), (0.5, 1.3, 1.1), (0.9, 0.2, 1.7))),
    chan.SingleCarrierChannel(((1.2, 0.4, 0.6), (0.8, 0.9, 1.5), (0.35, 1.1, 0.75))),
))


def separate_or_none(channel):
    try:
        return ob.separate_outerbound(channel, 10.0)
    except ob.NoSeparateBoundError:
        return None


@pytest.mark.parametrize("call, scans, entries", [
    (lambda: rates.sweep(CE, [float(db) for db in range(61)]), 0, 0),
    (lambda: ob.separate_outerbound(CE, 10.0), 0, 0),
    (lambda: rates.ia_feasibility(CE), 0, 0),
    # the rewritten entry of each of the two carriers of player 2's best response
    (lambda: game.play_game(CE, ((1, 2), (2, 3))), 0, 2),
    (lambda: rates.sweep(GENERIC, [float(db) for db in range(61)]), 0, 0),
    (lambda: separate_or_none(GENERIC), 0, 0),
    # the two carriers of the built-in
    (lambda: cli.main(["check", "--builtin", "counterexample"]), 2, 0),
    (lambda: chan.SingleCarrierChannel(((1, 2, 3), (4, 5, 6), (7, 8, 10))), 1, 0),
], ids=[
    "sweep", "separate_outerbound", "ia_feasibility", "play_game",
    "sweep-generic", "separate_outerbound-generic", "cli-check", "build-carrier",
])
def test_each_public_call_validates_each_carrier_once(monkeypatch, call, scans, entries):
    full, single = [], []
    gain_issues, gain_issue = chan._gain_issues, chan._gain_issue
    monkeypatch.setattr(chan, "_gain_issues", lambda rows: full.append(rows) or gain_issues(rows))
    monkeypatch.setattr(chan, "_gain_issue", lambda x: single.append(x) or gain_issue(x))
    call()
    # a full scan checks its nine entries through _gain_issue too
    assert (len(full), len(single) - 9 * len(full)) == (scans, entries)
