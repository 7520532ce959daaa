"""Command-line front end.

Subcommands
-----------
check      validate a channel, report singularity witnesses and per-carrier DoF
sweep      joint-vs-separate rate comparison over an SNR grid, emitted as CSV
bound-mac  optimized genie MAC bound for the symmetric channel
game       play the adversarial coefficient game
alloc      exact water-filling across user-chosen per-carrier bounds

Channels come either from a JSON file (``--channel``, schema
``{"carriers": [{"h": [[..],[..],[..]]}, ...]}``) or from ``--builtin
counterexample``.  SNR values are given in dB and converted to linear
internally.  All numeric output is printed with 9 significant digits and
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import channel as chan
from . import game as game_mod
from .outerbounds import mac_bound_optimize
from .rates import MAX_SNR_POINTS, _half_log2_1p, _prepare_fill, db_to_linear, sweep
from .rates import water_fill

CSV_HEADER = "snr_db,joint_tin,separate_outer,tdma,scheme_note"


def _fmt(x) -> str:
    return format(float(x), ".9g")


def _add_channel_opts(p) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--channel", metavar="PATH", help="channel JSON file")
    g.add_argument(
        "--builtin",
        choices=("counterexample",),
        help="use a built-in channel instead of a file",
    )


def _resolve_channel(args) -> chan.ParallelChannel:
    if args.builtin:
        return chan.make_counterexample()
    return chan.load_channel(args.channel)


def _parse_coeff(text: str) -> tuple:
    """``i,j`` as a pair of ints; game.adversary_best_response checks the position."""
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"coefficient position must look like 'i,j', got {text!r}") from None
    return (i, j)


def cmd_check(args) -> int:
    chan._check_tol(args.tol)
    channel = _resolve_channel(args)
    status = 0
    for m, carrier in enumerate(channel.carriers, start=1):
        result = chan.validate(carrier)
        if not result.ok:
            for i, j, msg in result.issues:
                print(f"carrier {m}: invalid at ({i},{j}): {msg}")
            status = 2
            continue
        witness = chan.singularity_check(carrier, args.tol)
        if witness is None:
            print(f"carrier {m}: valid; no witness; dof=unknown")
        else:
            print(
                f"carrier {m}: valid; witness (i={witness.i}, j={witness.j}, "
                f"k={witness.k}, gamma={_fmt(witness.gamma)}); dof=1"
            )
    return status


def _snr_grid(start: float, stop: float, step: float) -> list:
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError("--snr-db-start, --snr-db-stop and --snr-db-step must be finite")
    if step <= 0:
        raise ValueError("--snr-db-step must be positive")
    if stop < start:
        raise ValueError("--snr-db-stop must not be below --snr-db-start")
    span = (stop - start) / step + 1e-9  # the 1e-9 keeps an on-grid stop
    # at most MAX_SNR_POINTS + 1 points, also for a span that overflows to
    # inf: sweep refuses a grid above its cap
    return [start + k * step for k in range(int(min(span, MAX_SNR_POINTS)) + 1)]


def cmd_sweep(args) -> int:
    channel = _resolve_channel(args)
    grid = _snr_grid(args.snr_db_start, args.snr_db_stop, args.snr_db_step)
    rows = [CSV_HEADER]
    for r in sweep(channel, grid):
        separate = "" if r.separate_outer is None else _fmt(r.separate_outer)
        rows.append(
            f"{_fmt(r.snr_db)},{_fmt(r.joint_tin)},{separate},{_fmt(r.tdma)},{r.scheme_note}"
        )
    text = "\n".join(rows) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bound_mac(args) -> int:
    for snr_db in args.snr_db:
        snr = db_to_linear(snr_db)
        result = mac_bound_optimize(args.h, snr)
        p = result.params
        print(
            f"h={_fmt(args.h)} snr_db={_fmt(snr_db)} snr={_fmt(snr)}: "
            f"bound={_fmt(result.value)} a1={_fmt(p.a1)} sigma={_fmt(p.sigma)} rho={_fmt(p.rho)}"
        )
    return 0


def cmd_game(args) -> int:
    channel = _resolve_channel(args)
    coeffs = [_parse_coeff(c) for c in args.coeff]
    if len(coeffs) == 1 and channel.n_carriers > 1:
        coeffs = coeffs * channel.n_carriers
    outcome = game_mod.play_game(channel, coeffs)
    print("modified channel:")
    for m, carrier in enumerate(outcome.modified_channel.carriers, start=1):
        rows = "; ".join(" ".join(_fmt(g) for g in row) for row in carrier.h)
        print(f"carrier {m}: {rows}")
    print("per-carrier dof:", *outcome.per_carrier_dof)
    print(f"joint dof slope: {_fmt(outcome.joint_dof_estimate)}")
    print(f"winner: {outcome.winner}")
    return 0


def _parse_bound(text: str) -> float:
    """Squared gain g^2 of a per-carrier bound (1/2)log2(1 + g^2 p)."""
    if text == "example1":
        return 1.0
    if text.startswith("p2p:"):
        try:
            gain = float(text[4:])
            return _prepare_fill([gain * gain]).pairs[0][0]  # the water-fill's own gain rule
        except ValueError as exc:
            raise ValueError(f"--bound {text}: {exc}") from None
    raise ValueError(f"unknown bound spec {text!r} (use 'example1' or 'p2p:<gain>')")


def cmd_alloc(args) -> int:
    gains_sq = [_parse_bound(b) for b in args.bound]
    total = db_to_linear(args.snr_db)
    alloc = water_fill(gains_sq, total)
    objective = 0.0
    for m, (name, g, p) in enumerate(zip(args.bound, gains_sq, alloc), start=1):
        rate = _half_log2_1p(g, p)
        objective += rate
        print(f"carrier {m} ({name}): snr={_fmt(p)} rate={_fmt(rate)}")
    print(f"total snr: {_fmt(total)}")
    print(f"objective: {_fmt(objective)}")
    return 0


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list) -> list:
    """``--opt -1e3`` as ``--opt=-1e3``, which argparse always parsed.

    argparse reads a token that starts with '-' as an option unless it looks
    like a number; on Python 3.10, 3.11 and the early 3.12 and 3.13 patch
    releases only -1540 or -1.5 do, so a negative value in exponent form (and
    -inf on every version) after an option fails with "expected one argument".  A '--' option followed by a '-'-led token that
    float() reads is joined into the '=' form; argparse resolves its
    abbreviations as before.
    """
    joined = []
    for arg in argv:
        prev = joined[-1] if joined else ""
        if (prev.startswith("--") and prev != "--" and "=" not in prev
                and arg.startswith("-") and _is_float(arg)):
            joined[-1] = f"{prev}={arg}"
        else:
            joined.append(arg)
    return joined


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icsep",
        description="Rates, outerbounds and DoF diagnostics for 3-user Gaussian interference channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a channel and report singularity witnesses")
    _add_channel_opts(p)
    p.add_argument("--tol", type=float, default=chan.SINGULARITY_TOL,
                   help="relative tolerance of the singularity ratio test, in (0, 1)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="joint vs separate rate sweep, CSV output")
    _add_channel_opts(p)
    p.add_argument("--snr-db-start", type=float, required=True)
    p.add_argument("--snr-db-stop", type=float, required=True)
    p.add_argument("--snr-db-step", type=float, required=True)
    p.add_argument("--output", metavar="PATH", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bound-mac", help="optimized genie MAC bound for the symmetric channel")
    p.add_argument("--h", type=float, required=True, help="cross gain (must exceed 1)")
    p.add_argument("--snr-db", type=float, action="append", required=True,
                   help="SNR point in dB (repeatable)")
    p.set_defaults(func=cmd_bound_mac)

    p = sub.add_parser("game", help="play the adversarial coefficient game")
    _add_channel_opts(p)
    p.add_argument("--coeff", action="append", required=True, metavar="I,J",
                   help="off-diagonal position controlled by player 2; one per carrier, "
                        "or a single one applied to every carrier")
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("alloc", help="optimal power allocation across per-carrier bounds")
    p.add_argument("--snr-db", type=float, required=True, help="total power budget in dB")
    p.add_argument("--bound", action="append", required=True, metavar="SPEC",
                   help="per-carrier bound: 'example1' or 'p2p:<gain>' (repeatable)")
    p.set_defaults(func=cmd_alloc)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
