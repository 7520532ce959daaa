"""End-to-end CLI tests: cli.main in this process, a subprocess where the process is under test."""

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from icsep import channel as chan
from icsep import cli, rates


def run_cli(capsys, *args):
    """``icsep args`` through cli.main in this process, returned like subprocess.run's result."""
    returncode = cli.main(list(args))
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, returncode, out, err)


def run_process(module, *args):
    """``python -m module args`` in a new process."""
    cmd = [sys.executable, "-m", module, *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def fixture(name):
    """A channel file committed next to this module; CI's numpy-free step runs the CLI on it too."""
    return str(Path(__file__).with_name(name))


THREE_CARRIERS = fixture("three_carriers.json")


def write_channel(path, carriers):
    path.write_text(json.dumps({"carriers": [{"h": h} for h in carriers]}))
    return str(path)


def test_help():
    cp = run_process("icsep.cli", "--help")
    assert cp.returncode == 0, cp.stderr
    for name in ("check", "sweep", "bound-mac", "game", "alloc"):
        assert name in cp.stdout


def test_pkg_main_entry():
    cp = run_process("icsep", "check", "--builtin", "counterexample")
    assert cp.returncode == 0, cp.stderr


# ------------------------------------------------------------------- check

def test_check_builtin_counterexample(capsys):
    cp = run_cli(capsys, "check", "--builtin", "counterexample")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert len(lines) == 2
    assert all("dof=1" in line for line in lines)
    assert all("gamma=1" in line for line in lines)


def test_check_generic_channel_reports_no_witness(tmp_path, capsys):
    path = write_channel(tmp_path / "c.json", [[[1, 2, 3], [4, 5, 6], [7, 8, 10]]])
    cp = run_cli(capsys, "check", "--channel", path)
    assert cp.returncode == 0, cp.stderr
    assert "no witness" in cp.stdout
    assert "dof=unknown" in cp.stdout


def test_check_rejects_a_tol_of_one_or_more(tmp_path, capsys):
    # the parent printed a witness with dof=1 for this generic carrier
    path = write_channel(tmp_path / "c.json", [[[1, 2, 3], [4, 5, 6], [7, 8, 10]]])
    assert cli.main(["check", "--channel", path, "--tol", "inf"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("tol", ["2", "nan"])
@pytest.mark.parametrize("carriers", [
    [[[1, 0, 1], [1, 1, 1], [1, 1, 2]]],
    [[[1, 0, 1], [1, 1, 1], [1, 1, 2]], [[1, 2, 3], [4, 5, 6], [7, 8, 10]]],
], ids=["all-invalid", "mixed"])
def test_check_rejects_a_bad_tol_before_reporting_any_carrier(tmp_path, capsys, carriers, tol):
    # the parent printed the invalid carrier's line first, and on the
    # all-invalid channel never reported the tol at all
    path = write_channel(tmp_path / "c.json", carriers)
    assert cli.main(["check", "--channel", path, "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0].startswith("error: tol must lie in (0, 1)")
    # the CLI has no exact mode to point at
    assert "exact" not in err


def test_check_reports_no_witness_for_two_small_distinct_ratios(capsys):
    # r1 = 2e-9 and r2 = 1.11e-9: printed as a witness with gamma=2e-09 and
    # dof=1 while the ratio test had an absolute floor
    # [[1.0, 2e-9, 0.7], [0.5, 1.3, 1.1], [0.9, 1e-9, 1.7]]
    assert cli.main(["check", "--channel", fixture("two_small_ratios.json")]) == 0
    assert capsys.readouterr().out == "carrier 1: valid; no witness; dof=unknown\n"


def test_check_zero_gain_exits_nonzero_with_position(tmp_path, capsys):
    path = write_channel(tmp_path / "c.json", [[[1, 0, 1], [1, 1, 1], [1, 1, 2]]])
    cp = run_cli(capsys, "check", "--channel", path)
    assert cp.returncode != 0
    assert "carrier 1" in cp.stdout
    assert "(1,2)" in cp.stdout


def test_check_gain_whose_square_overflows_exits_2_with_position(tmp_path, capsys):
    path = write_channel(tmp_path / "c.json", [[[1, 1, 1], [1, 1, 1], [1, 1e200, 2]]])
    cp = run_cli(capsys, "check", "--channel", path)
    assert cp.returncode == 2
    assert "carrier 1: invalid at (3,2)" in cp.stdout
    assert "squared gains" not in cp.stdout + cp.stderr
    # a 400-digit JSON integer (10**399 at (1,1)) is beyond the float range:
    # the build-time float conversion reports it
    cp = run_cli(capsys, "check", "--channel", fixture("gain_beyond_float_range.json"))
    assert cp.returncode == 2
    assert cp.stdout == "carrier 1: invalid at (1,1): not a finite real number\n"


def test_check_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"carriers": [{"h": [[1, 2], [3], [4]]}]}')
    cp = run_cli(capsys, "check", "--channel", str(path))
    assert cp.returncode != 0
    assert "carriers[0]" in cp.stderr


@pytest.mark.parametrize("content", [
    ('{"carriers": ' + "[" * 100_000 + "]" * 100_000 + "}").encode(),
    b'\xff\xfe{"carriers": []}',
], ids=["nested-too-deep", "not-utf8"])
def test_check_undecodable_file_exits_2_naming_it(tmp_path, capsys, content):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    cp = run_cli(capsys, "check", "--channel", str(path))
    assert cp.returncode == 2 and cp.stdout == ""
    assert cp.stderr.startswith(f"error: {path}: ") and len(cp.stderr.splitlines()) == 1
    assert "Traceback" not in cp.stderr


# ------------------------------------------------------------------- sweep

def test_sweep_row_count_and_header(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    cp = run_cli(
        capsys, "sweep", "--builtin", "counterexample",
        "--snr-db-start", "0", "--snr-db-stop", "50", "--snr-db-step", "5",
        "--output", str(out),
    )
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "snr_db,joint_tin,separate_outer,tdma,scheme_note"
    assert len(lines) == 12  # header + 11 rows


def test_sweep_is_byte_identical_across_runs(tmp_path):
    args = (
        "sweep", "--builtin", "counterexample",
        "--snr-db-start", "0", "--snr-db-stop", "30", "--snr-db-step", "3",
    )
    first, second = run_process("icsep.cli", *args), run_process("icsep.cli", *args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_process("icsep.cli", *args, "--output", str(out1)).returncode == 0
    assert run_process("icsep.cli", *args, "--output", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_joint_column_slope(tmp_path, capsys):
    out = tmp_path / "high.csv"
    cp = run_cli(
        capsys, "sweep", "--builtin", "counterexample",
        "--snr-db-start", "40", "--snr-db-stop", "80", "--snr-db-step", "2",
        "--output", str(out),
    )
    assert cp.returncode == 0, cp.stderr
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    dbs = np.array([float(r[0]) for r in rows])
    joint = np.array([float(r[1]) for r in rows])
    x = 0.5 * np.log2(10.0 ** (dbs / 10.0))
    slope = np.polyfit(x, joint, 1)[0]
    assert abs(slope - 1.5) <= 0.05


def test_sweep_unwritable_output(tmp_path, capsys):
    cp = run_cli(
        capsys, "sweep", "--builtin", "counterexample",
        "--snr-db-start", "0", "--snr-db-stop", "10", "--snr-db-step", "5",
        "--output", str(tmp_path / "missing-dir" / "out.csv"),
    )
    assert cp.returncode != 0
    assert "error" in cp.stderr


def test_sweep_rejects_non_finite_grid_bounds(capsys):
    cp = run_cli(
        capsys, "sweep", "--builtin", "counterexample",
        "--snr-db-start", "0", "--snr-db-stop", "inf", "--snr-db-step", "1",
    )
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and "finite" in cp.stderr
    assert "Traceback" not in cp.stderr


def test_sweep_rejects_grid_above_point_cap(capsys):
    # 6e10 points: sweep refuses the grid after reading 100,001 of them, before any row
    cp = run_cli(
        capsys, "sweep", "--builtin", "counterexample",
        "--snr-db-start", "0", "--snr-db-stop", "60", "--snr-db-step", "1e-9",
    )
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and "points" in cp.stderr
    assert cp.stdout == ""


def exact_half_log2(one_plus_x: Fraction) -> float:
    """(1/2)log2 of a rational 1 + x, from log2 of its big-int numerator and denominator."""
    return 0.5 * (math.log2(one_plus_x.numerator) - math.log2(one_plus_x.denominator))


def test_sweep_is_finite_and_exact_for_gains_near_the_float_limit(capsys):
    # diagonal gains 1e150, the rest 1: every rate at 120 dB multiplies 1e300
    # by 1e12; the parent printed inf
    argv = ["sweep", "--channel", fixture("gains_near_float_limit.json"),
            "--snr-db-start", "0", "--snr-db-stop", "120", "--snr-db-step", "1"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    for row in rows:  # the separate column is empty: no bound applies
        assert all(math.isfinite(float(x)) for x in row.split(",")[1:4] if x), row
    last = rows[-1].split(",")
    want = exact_half_log2(1 + Fraction(1e150) ** 2 * 10**12)
    assert last[0] == "120"
    assert float(last[1]) == float(last[3]) == pytest.approx(want, rel=1e-8)


def test_sweep_columns_are_finite_on_a_scaled_counterexample(tmp_path, capsys):
    scaled = [[[1e150 * x for x in row] for row in c.h] for c in chan.make_counterexample().carriers]
    argv = ["sweep", "--channel", write_channel(tmp_path / "c.json", scaled),
            "--snr-db-start", "0", "--snr-db-stop", "120", "--snr-db-step", "1"]
    assert cli.main(argv) == 0
    for row in capsys.readouterr().out.splitlines()[1:]:
        assert all(math.isfinite(float(x)) for x in row.split(",")[1:4]), row
    # relabelled and sign-flipped, the counterexample has the builtin's separate bound (column 3)
    grid = ["--snr-db-start", "0", "--snr-db-stop", "60", "--snr-db-step", "1"]
    columns = []
    for source in (["--builtin", "counterexample"],
                   ["--channel", fixture("relabelled_counterexample.json")]):
        assert cli.main(["sweep", *source, *grid]) == 0
        columns.append([row.split(",")[2] for row in capsys.readouterr().out.splitlines()])
    assert columns[0] == columns[1] and all(columns[0])


def test_sweep_aligns_where_the_chain_vector_squares_overflow(capsys):
    # h31 scaled by 1e150 and h32 by 1e-11 on the counterexample: the aligned
    # vectors' squared norms overflow, and the run must neither raise nor lose alignment
    argv = ["sweep", "--channel", fixture("chain_squares_overflow.json"),
            "--snr-db-start", "0", "--snr-db-stop", "60", "--snr-db-step", "10"]
    assert cli.main(argv) == 0
    assert "ia-zf-tin" in capsys.readouterr().out.splitlines()[-1]


# --------------------------------------------------------------- bound-mac

def test_bound_mac_at_the_edge_of_the_stated_range(capsys):
    # snr h^2 = 1e154, where 2h^2 and 4h(h+1) overflow
    assert cli.main(["bound-mac", "--h", "1e154", "--snr-db", "-1540"]) == 0
    assert "bound=509.99" in capsys.readouterr().out


def test_bound_mac_has_no_oracle_option(capsys):
    # the dense-grid oracle is a library function, mac_bound_grid_min
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound-mac", "--h", "2", "--snr-db", "10", "--oracle"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --oracle\n")


def test_bound_mac_zero_snr(capsys):
    cp = run_cli(capsys, "bound-mac", "--h", "2", "--snr-db", "-400")
    assert cp.returncode == 0, cp.stderr
    bound = float(cp.stdout.split("bound=")[1].split()[0])
    assert bound <= 1e-12


def test_bound_mac_rejects_h_below_one(capsys):
    cp = run_cli(capsys, "bound-mac", "--h", "0.5", "--snr-db", "10")
    assert cp.returncode != 0
    assert "h > 1" in cp.stderr


def test_bound_mac_rejects_non_finite_h(capsys):
    cp = run_cli(capsys, "bound-mac", "--h", "nan", "--snr-db", "10")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:")
    assert cp.stdout == ""


def test_bound_mac_beyond_the_float_range_is_an_error_not_a_traceback(capsys):
    cp = run_cli(capsys, "bound-mac", "--h", "1e80", "--snr-db", "0")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and "floating-point range" in cp.stderr
    assert "Traceback" not in cp.stderr
    assert cp.stderr == (
        "error: the genie MAC bound at h=1e+80, snr=1.0 with "
        "GenieParams(a1=-4e+80, sigma=0.08333333333333333, rho=-0.999999) "
        "is beyond the floating-point range\n"
    )


@pytest.mark.parametrize("argv", [
    ["bound-mac", "--h", "2", "--snr-db", "-1e3", "--snr-db", "-1E1", "--snr-db", "1e1"],
    ["bound-mac", "--h", "2", "--snr-d", "-.5e1"],
    ["bound-mac", "--h", "-1e3", "--snr-db", "0"],
    ["sweep", "--builtin", "counterexample",
     "--snr-db-start", "-1e1", "--snr-db-stop", "0", "--snr-db-step", "5"],
    ["sweep", "--builtin", "counterexample",
     "--snr-db-sta", "-1e1", "--snr-db-sto", "-0.5e1", "--snr-db-ste", "5"],
    ["alloc", "--snr-db", "-1e1", "--bound", "example1"],
    ["check", "--builtin", "counterexample", "--tol", "-1e-3"],
])
def test_float_options_take_a_negative_value_in_exponent_form(capsys, argv):
    # argparse reads "-1e3" after an option as an option; the "--opt=-1e3" form always parsed
    want = run_cli(capsys, *argv[:1], *(
        f"{arg}={argv[i + 1]}" for i, arg in enumerate(argv) if arg.startswith("--")
    ))
    got = run_cli(capsys, *argv)
    assert (got.returncode, got.stdout, got.stderr) == (want.returncode, want.stdout, want.stderr)
    assert got.returncode == 2 or got.stdout.startswith(("h=2", "snr_db,", "carrier 1"))


def test_a_non_float_option_given_an_exponent_form_value_is_an_error(capsys):
    # "-1e3" is joined to --coeff like to any option, on every Python version
    got = run_cli(capsys, "game", "--builtin", "counterexample", "--coeff", "-1e3")
    assert (got.returncode, got.stdout) == (2, "")
    assert got.stderr == "error: coefficient position must look like 'i,j', got '-1e3'\n"


# -------------------------------------------------------------------- game

def test_game_counterexample_construction_player1(capsys):
    cp = run_cli(capsys, "game", "--builtin", "counterexample", "--coeff", "1,2", "--coeff", "2,3")
    assert cp.returncode == 0, cp.stderr
    assert "winner: player1" in cp.stdout
    assert "per-carrier dof: 1 1" in cp.stdout


def test_game_single_carrier_player2(tmp_path, capsys):
    path = write_channel(tmp_path / "c.json", [[[1.1, 0.6, 1.4], [0.8, 1.3, 0.5], [0.7, 0.9, 1.2]]])
    cp = run_cli(capsys, "game", "--channel", path, "--coeff", "1,2")
    assert cp.returncode == 0, cp.stderr
    assert "winner: player2" in cp.stdout


def test_game_single_coeff_broadcasts_player2(capsys):
    cp = run_cli(capsys, "game", "--builtin", "counterexample", "--coeff", "1,2")
    assert cp.returncode == 0, cp.stderr
    assert "winner: player2" in cp.stdout


def test_game_rejects_malformed_coeff(capsys):
    cp = run_cli(capsys, "game", "--builtin", "counterexample", "--coeff", "1,1")
    assert cp.returncode != 0
    assert "off-diagonal" in cp.stderr


def test_game_rejects_coeff_index_out_of_range(capsys):
    # the CLI only parses the pair; the library owns the off-diagonal rule
    assert cli.main(["game", "--builtin", "counterexample", "--coeff", "4,1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "off-diagonal" in err


def test_game_on_a_small_gain_counterexample_player1(capsys):
    # every gain times 1e-3: the 40-80 dB slope reads 0.53, but the scheme aligns
    path = fixture("small_counterexample.json")
    assert cli.main(["game", "--channel", path, "--coeff", "1,2", "--coeff", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "joint dof slope: 0.532029176" in out
    assert "winner: player1" in out
    # carrier 1 times 1e-6 and carrier 2 times 1e6: the alignment tests are scale-free per carrier
    path = fixture("split_scale_counterexample.json")
    assert cli.main(["game", "--channel", path, "--coeff", "1,2", "--coeff", "2,3"]) == 0
    assert "winner: player1" in capsys.readouterr().out.splitlines()


def test_game_best_response_out_of_range_is_an_error_not_a_traceback(capsys):
    # a valid carrier whose best response at (1,2) is 1e150 * 1e150 / 1e-11 = 1e311
    # [[1, 1, 1e150], [1, 1e150, 1e-11], [1, 1, 1]]
    cp = run_cli(capsys, "game", "--channel", fixture("best_response_overflow.json"), "--coeff", "1,2")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and "best response" in cp.stderr
    assert len(cp.stderr.splitlines()) == 1
    assert "Traceback" not in cp.stderr and cp.stdout == ""


# ------------------------------------------------------------------- alloc

def test_alloc_symmetric_bounds_split_equally(capsys):
    cp = run_cli(capsys, "alloc", "--snr-db", "10", "--bound", "example1", "--bound", "example1")
    assert cp.returncode == 0, cp.stderr
    assert "snr=5 " in cp.stdout
    assert "objective: " in cp.stdout
    objective = float(cp.stdout.split("objective: ")[1].strip())
    assert objective == float(f"{math.log2(6.0):.9g}")


def test_alloc_is_finite_and_exact_where_the_product_overflows(capsys):
    # the parent printed rate=inf and objective: inf
    assert cli.main(["alloc", "--snr-db", "100", "--bound", "p2p:1e150", "--bound", "example1"]) == 0
    out = capsys.readouterr().out
    # water level (1e10 + 1 + 1e-300)/2: carrier 1 gets 5e9 + 1/2, carrier 2 5e9 - 1/2
    p1, p2 = Fraction(10**10 + 1, 2), Fraction(10**10 - 1, 2)
    rate1 = exact_half_log2(1 + Fraction(1e150) ** 2 * p1)
    rate2 = exact_half_log2(1 + p2)
    assert float(out.split("rate=")[1].split()[0]) == pytest.approx(rate1, rel=1e-8)
    assert float(out.split("objective: ")[1]) == pytest.approx(rate1 + rate2, rel=1e-8)


def test_alloc_rejects_non_finite_gain(capsys):
    cp = run_cli(capsys, "alloc", "--snr-db", "10", "--bound", "example1", "--bound", "p2p:nan")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and "p2p" in cp.stderr


def test_alloc_names_the_bound_the_water_fill_rejects(capsys):
    # 1e-160 squares to 1e-320, finite and positive, but its reciprocal overflows
    assert cli.main(["alloc", "--snr-db", "10", "--bound", "example1", "--bound", "p2p:1e-160"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "p2p:1e-160" in err and "reciprocal" in err


def test_alloc_rejects_a_non_finite_budget(capsys):
    # water_fill checks the budget; the CLI prints its message, not a traceback
    cp = run_cli(capsys, "alloc", "--snr-db", "nan", "--bound", "example1")
    assert cp.returncode == 2
    assert cp.stderr == "error: power budget must be finite and nonnegative, got nan\n"
    assert cp.stdout == ""


def test_alloc_rejects_unknown_bound(capsys):
    cp = run_cli(capsys, "alloc", "--snr-db", "10", "--bound", "mystery")
    assert cp.returncode != 0
    assert "bound spec" in cp.stderr


# ------------------------------------------- numpy at the edges, golden output

# a None entry in sys.modules makes every ``import numpy`` raise ImportError
_NO_NUMPY = "import sys; sys.modules['numpy'] = None; "


@pytest.mark.parametrize("code", [
    "import icsep",
    "import icsep; icsep.play_game(icsep.make_counterexample(), [(1, 2), (2, 3)])",
    "import icsep; icsep.sweep(icsep.make_counterexample(), range(61))",
    "import icsep; icsep.mac_bound_optimize(2.0, 10.0)",
    "from icsep import cli; "
    "sys.exit(cli.main(['alloc', '--snr-db', '10', '--bound', 'example1', '--bound', 'p2p:2']))",
    "from icsep import rates; rates.water_fill([4.0, 1.0], 3.0)",
], ids=["import", "game", "sweep", "mac-bound", "alloc", "water-fill"])
def test_runs_without_numpy(code):
    cp = subprocess.run([sys.executable, "-c", _NO_NUMPY + code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


_CE = chan.make_counterexample()
_CE_SCHEME = rates.ia_feasibility(_CE)
_WITH_FRACTION = chan.ParallelChannel(
    (chan.SingleCarrierChannel(((1, Fraction(1, 3), 2.5), (1, 1, 1), (1, 1, -1))),)
)
_R2 = 0.7071067811865476  # 1/sqrt(2) rounded to a float


# one carrier and v = u = (1,) for every user, so g_ij is the gain h_ij itself
_ONE_CARRIER_SCHEME = rates.BeamformingScheme(((1.0,),) * 3, ((1.0,),) * 3)


# The as_array, link_gains-fraction, v_vec and u_vec rows pin the values of
# accessors since deleted: the gains through effective_gains, the aligned
# vectors as the plain-float tuples the scheme holds. water_fill returns a
# tuple of floats.
@pytest.mark.parametrize("call, want", [
    (lambda: rates.effective_gains(_WITH_FRACTION, _ONE_CARRIER_SCHEME)[0, 1:2], [1.0 / 3.0]),
    (lambda: rates.effective_gains(_WITH_FRACTION, _ONE_CARRIER_SCHEME),
     [[1.0, 1.0 / 3.0, 2.5], [1.0, 1.0, 1.0], [1.0, 1.0, -1.0]]),
    (lambda: _CE_SCHEME.v[1], (_R2, _R2)),
    (lambda: _CE_SCHEME.u[2], (-_R2, _R2)),
    (lambda: rates.effective_gains(_CE, _CE_SCHEME),
     [[1.0, 0.0, 0.0], [0.0, 1.0000000000000002, 0.0], [0.0, 0.0, 1.0000000000000002]]),
    (lambda: rates.water_fill([4.0, 1.0, 0.25], 3.0), (1.875, 1.125, 0.0)),
], ids=["link_gains-fraction", "as_array", "v_vec", "u_vec", "effective_gains", "water_fill"])
def test_ndarray_helpers_keep_type_and_values(call, want):
    # values frozen from the implementation that computed them with numpy
    got = call()
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.tolist() == want


@pytest.mark.parametrize("argv, digest", [
    (["sweep", "--builtin", "counterexample",
      "--snr-db-start", "0", "--snr-db-stop", "60", "--snr-db-step", "1"],
     "aa285b7fd0428d628b396725a199fbbb9c7fc670ed2b9deca3587a0879ad290c"),
    (["game", "--builtin", "counterexample", "--coeff", "1,2", "--coeff", "2,3"],
     "e0688e618efd1c51727506ff85b3974b7efb71708dd1ce38c5ee940611e80937"),
    (["game", "--builtin", "counterexample", "--coeff", "1,2"],
     "803324ef1e365422bc855c83b344b78bc9a82d35fcb0d59981c48748fbd1ee5d"),
    (["bound-mac", "--h", "2", "--snr-db", "0", "--snr-db", "10", "--snr-db", "20"],
     "2a8e9ea2c76861ad08938ee29d3d826ff52f0e1f451122070c31112940253d39"),
    # three carriers, where no alignment is implemented: every sweep row is
    # "tdma-fallback no-ia no-separate-bound" and the game prints "winner: player2"
    (["sweep", "--channel", THREE_CARRIERS,
      "--snr-db-start", "0", "--snr-db-stop", "60", "--snr-db-step", "30"],
     "5259b9646b0d381660bd8119b2c11a4c8225fcf9c707773e1c42fccb55520c68"),
    (["game", "--channel", THREE_CARRIERS, "--coeff", "1,2"],
     "8ebbdd4fbb5b5dc6a32cde4d6d74ac87d92e879845474a5b6271500490f06d04"),
    (["check", "--builtin", "counterexample"],
     "9f8a42219d405805367c2451c38a302028a9443d6183e574b34481f90785e2c8"),
    (["alloc", "--snr-db", "10", "--bound", "example1", "--bound", "p2p:2.0"],
     "ba8a89f7060f091abdeafc3fb446a2bad0ca6d9428de0b50eb6936f4d3d6ea07"),
    # one carrier whose share is small against its floor 1/g^2 gets exactly the budget
    (["alloc", "--snr-db", "-10", "--bound", "p2p:1e-4"],
     "7f460fa1d79d28a40decae2f4be220322d716af5a8ebbcfa7ff17e3239504905"),
    (["alloc", "--snr-db", "0", "--bound", "p2p:1e-10"],
     "b8d012430fb9c9abf4ffbe58c9810c48f4d14ab139088f0c1c7de6e6319338bd"),
])
def test_golden_output(capsys, argv, digest):
    # frozen stdout digests: a changed printed digit shows up here
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
