"""The benchmark's workloads: input generation, the timed task and its output checks.

Each workload turns a seeded ``random.Random`` into a pool of inputs, runs
one user-level job per task through the public ``icsep`` API, and checks
every output against oracles written here, independently of the library.
Library calls go through ``icsep.<name>`` at call time so that the traced
run's wrappers see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import icsep

USERS = (1, 2, 3)
OFF_DIAGONAL = tuple((i, j) for i in USERS for j in USERS if i != j)
SWEEP_DB = tuple(float(db) for db in range(0, 61))

PLAYER1 = "player1"
PLAYER2 = "player2"


def _stratified(rng, lo, hi, n, log=False):
    """n draws uniform (or log-uniform) in [lo, hi], one per equal stratum, shuffled.

    Stratifying keeps every seed's pool close to the full distribution, so
    runs with different seeds time nearly the same mix of costs.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    draws = [a + (k + rng.random()) * (b - a) / n for k in range(n)]
    rng.shuffle(draws)
    return [math.exp(x) for x in draws] if log else draws


def _scaled_counterexample(c1, c2):
    """The built-in counterexample with every gain of carrier m scaled by c_m."""
    base = icsep.make_counterexample()
    return icsep.ParallelChannel(
        tuple(
            icsep.SingleCarrierChannel(tuple(tuple(c * x for x in row) for row in carrier.h))
            for carrier, c in zip(base.carriers, (c1, c2))
        )
    )


def _water_fill_rate(gains_sq, snr):
    """Per-carrier rate (1/2) max sum_m (1/2)log2(1 + g_m p_m) over p1 + p2 <= snr.

    Closed-form two-carrier water-filling: only the stronger carrier is
    active until the budget covers the gap between the two floors 1/g_m.
    """
    lo, hi = sorted(1.0 / g for g in gains_sq)
    if snr <= hi - lo:
        return 0.25 * math.log2(1.0 + snr / lo)
    level = 0.5 * (snr + lo + hi)
    return 0.25 * (math.log2(level / lo) + math.log2(level / hi))


# --- exhibit: the paper's headline job on the counterexample family --------


@dataclass(frozen=True)
class ExhibitInput:
    c: tuple
    channel: object


def exhibit_inputs(rng, n=32):
    """Task 0 is the unscaled counterexample; the rest scale carrier m by c_m."""
    c1s = _stratified(rng, 0.3, 3.0, n - 1, log=True)
    c2s = _stratified(rng, 0.3, 3.0, n - 1, log=True)
    return [ExhibitInput((1.0, 1.0), icsep.make_counterexample())] + [
        ExhibitInput(c, _scaled_counterexample(*c)) for c in zip(c1s, c2s)
    ]


def exhibit_run(inp):
    ch = inp.channel
    rows = icsep.sweep(ch, SWEEP_DB)
    scheme = icsep.ia_feasibility(ch)
    joint = icsep.estimate_dof(lambda snr: icsep.tin_rate(ch, scheme.with_equal_power(snr)).sum_rate)
    separate = icsep.estimate_dof(lambda snr: icsep.separate_outerbound(ch, snr))
    return rows, scheme, joint.slope, separate.slope


def exhibit_check(inp, out):
    rows, scheme, joint_slope, separate_slope = out
    problems = []
    if [r.snr_db for r in rows] != list(SWEEP_DB):
        problems.append("sweep rows do not match the SNR grid")
    gains_sq = [c * c for c in inp.c]
    for r in rows:
        want = _water_fill_rate(gains_sq, 10.0 ** (r.snr_db / 10.0))
        if r.separate_outer is None or abs(r.separate_outer - want) > 1e-9:
            problems.append(f"separate_outer {r.separate_outer!r} vs water-fill {want!r} at {r.snr_db} dB")
        if abs(r.tdma - want) > 1e-9:
            problems.append(f"tdma {r.tdma!r} vs water-fill {want!r} at {r.snr_db} dB")
    if abs(joint_slope - 1.5) > 0.05:
        problems.append(f"joint slope {joint_slope}")
    if abs(separate_slope - 1.0) > 0.05:
        problems.append(f"separate slope {separate_slope}")
    if scheme is None:
        return problems + ["alignment reported infeasible on a counterexample family member"]
    g = icsep.effective_gains(inp.channel, scheme)
    cross = max(abs(g[i, j]) for i in range(3) for j in range(3) if i != j)
    # exact zeros are promised only on the built-in channel itself
    limit = 0.0 if inp.c == (1.0, 1.0) else 1e-12 * max(abs(g[i, i]) for i in range(3))
    if cross > limit:
        problems.append(f"largest cross term {cross!r} exceeds {limit!r}")
    return problems


# --- mac-bound: the genie-aided MAC search alone ---------------------------


@dataclass(frozen=True)
class MacInput:
    h: float
    snr: float


def mac_inputs(rng, n=64):
    hs = _stratified(rng, 1.01, 10.0, n, log=True)
    snr_dbs = _stratified(rng, -20.0, 60.0, n)
    return [MacInput(h, 10.0 ** (db / 10.0)) for h, db in zip(hs, snr_dbs)]


def mac_run(inp):
    return icsep.mac_bound_optimize(inp.h, inp.snr)


def _symmetric_tin_rate(h, snr):
    """Sum rate of the symmetric single-carrier channel, equal power, interference as noise."""
    p = snr / 3.0
    return 1.5 * math.log2(1.0 + p / (1.0 + 2.0 * h * h * p))


def mac_check(inp, out):
    problems = []
    if not out.params.feasible():
        problems.append(f"returned genie params {out.params} are infeasible")
    else:
        again = icsep.mac_bound_eval(inp.h, inp.snr, out.params)
        if abs(again - out.value) > 1e-12:
            problems.append(f"mac_bound_eval gives {again!r}, optimizer reported {out.value!r}")
    tin = _symmetric_tin_rate(inp.h, inp.snr)
    if not out.value >= tin:
        problems.append(f"bound {out.value!r} below the TIN rate {tin!r}")
    return problems


def mac_grid_check(inp, out):
    grid = icsep.mac_bound_grid_min(inp.h, inp.snr)
    if out.value > grid + 1e-3:
        return [f"bound {out.value!r} exceeds the dense-grid minimum {grid!r} by more than 1e-3"]
    return []


# --- game: check step, then the coefficient game ---------------------------


@dataclass(frozen=True)
class GameInput:
    kind: str
    channel: object
    coeffs: tuple
    expected: str


def _generic_channel(rng):
    return icsep.ParallelChannel(
        tuple(
            icsep.SingleCarrierChannel(
                tuple(
                    tuple(rng.uniform(0.3, 3.0) * rng.choice((-1.0, 1.0)) for _ in USERS)
                    for _ in USERS
                )
            )
            for _ in range(2)
        )
    )


def game_inputs(rng, n=300):
    """Input classes cycle by task index, so every run plays the same mix.

    The repeated class cycles through the six positions, whose costs differ.
    """
    per_class = n // 3
    scales = {
        kind: iter(zip(_stratified(rng, 0.3, 3.0, per_class, log=True),
                       _stratified(rng, 0.3, 3.0, per_class, log=True)))
        for kind in ("aligned", "repeated")
    }
    pool = []
    for idx in range(3 * per_class):
        kind = ("generic", "aligned", "repeated")[idx % 3]
        if kind == "generic":
            coeffs = (rng.choice(OFF_DIAGONAL), rng.choice(OFF_DIAGONAL))
            pool.append(GameInput(kind, _generic_channel(rng), coeffs, PLAYER2))
            continue
        channel = _scaled_counterexample(*next(scales[kind]))
        if kind == "aligned":
            pool.append(GameInput(kind, channel, ((1, 2), (2, 3)), PLAYER1))
        else:
            pos = OFF_DIAGONAL[idx // 3 % len(OFF_DIAGONAL)]
            pool.append(GameInput(kind, channel, (pos, pos), PLAYER2))
    return pool


def game_run(inp):
    checked = [
        (icsep.validate(carrier), icsep.singularity_check(carrier))
        for carrier in inp.channel.carriers
    ]
    return checked, icsep.play_game(inp.channel, inp.coeffs)


def game_check(inp, out):
    checked, outcome = out
    problems = []
    for m, (validation, witness) in enumerate(checked, start=1):
        if not validation.ok:
            problems.append(f"carrier {m} reported invalid: {validation.issues}")
        if inp.kind != "generic" and witness is None:
            problems.append(f"carrier {m} of a family member reported non-singular")
    for m, (base, new, (i, j)) in enumerate(
        zip(inp.channel.carriers, outcome.modified_channel.carriers, inp.coeffs), start=1
    ):
        changed = [(a, b) for a in USERS for b in USERS if new.gain(a, b) != base.gain(a, b)]
        if changed not in ([], [(i, j)]):
            problems.append(f"carrier {m}: entries {changed} changed, only ({i},{j}) may")
        k = next(x for x in USERS if x not in (i, j))
        f = {(a, b): Fraction(new.gain(a, b)) for a in USERS for b in USERS}
        if f[j, k] / f[j, j] != f[i, k] / f[i, j]:
            problems.append(f"carrier {m}: ratio condition fails after rewriting ({i},{j})")
    if tuple(outcome.per_carrier_dof) != (1, 1):
        problems.append(f"per-carrier dof {outcome.per_carrier_dof}")
    if outcome.winner != inp.expected:
        problems.append(f"{inp.kind}: winner {outcome.winner}, expected {inp.expected}")
    return problems


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    run: Callable
    check: Callable
    #: tasks in the traced run; fixed so that per-task call counts repeat exactly
    trace_tasks: int
    #: a check too slow for every task, run after the timed loop on a seeded sample
    slow_check: Optional[Callable] = None
    slow_sample: int = 0


WORKLOADS = {
    "exhibit": Workload(exhibit_inputs, exhibit_run, exhibit_check, trace_tasks=4),
    "mac-bound": Workload(
        mac_inputs, mac_run, mac_check, trace_tasks=12, slow_check=mac_grid_check, slow_sample=2
    ),
    "game": Workload(game_inputs, game_run, game_check, trace_tasks=30),
}
