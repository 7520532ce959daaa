"""End-to-end CLI tests, mostly through a subprocess like a user would run them."""

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from icsep import channel as chan
from icsep import cli, rates
from icsep.outerbounds import GenieParams


def run_cli(*args):
    cmd = [sys.executable, "-m", "icsep.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def run_pkg_main(*args):
    cmd = [sys.executable, "-m", "icsep", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def write_channel(path, carriers):
    path.write_text(json.dumps({"carriers": [{"h": h} for h in carriers]}))
    return str(path)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    for name in ("check", "sweep", "bound-mac", "game", "alloc"):
        assert name in cp.stdout


def test_pkg_main_entry():
    cp = run_pkg_main("check", "--builtin", "counterexample")
    assert cp.returncode == 0, cp.stderr


# ------------------------------------------------------------------- check

def test_check_builtin_counterexample():
    cp = run_cli("check", "--builtin", "counterexample")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert len(lines) == 2
    assert all("dof=1" in line for line in lines)
    assert all("gamma=1" in line for line in lines)


def test_check_generic_channel_reports_no_witness(tmp_path):
    path = write_channel(tmp_path / "c.json", [[[1, 2, 3], [4, 5, 6], [7, 8, 10]]])
    cp = run_cli("check", "--channel", path)
    assert cp.returncode == 0, cp.stderr
    assert "no witness" in cp.stdout
    assert "dof=unknown" in cp.stdout


def test_check_zero_gain_exits_nonzero_with_position(tmp_path):
    path = write_channel(tmp_path / "c.json", [[[1, 0, 1], [1, 1, 1], [1, 1, 2]]])
    cp = run_cli("check", "--channel", path)
    assert cp.returncode != 0
    assert "carrier 1" in cp.stdout
    assert "(1,2)" in cp.stdout


def test_check_gain_whose_square_overflows_exits_2_with_position(tmp_path):
    path = write_channel(tmp_path / "c.json", [[[1, 1, 1], [1, 1, 1], [1, 1e200, 2]]])
    cp = run_cli("check", "--channel", path)
    assert cp.returncode == 2
    assert "carrier 1: invalid at (3,2)" in cp.stdout
    assert "squared gains" not in cp.stdout + cp.stderr


def test_check_rejects_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"carriers": [{"h": [[1, 2], [3], [4]]}]}')
    cp = run_cli("check", "--channel", str(path))
    assert cp.returncode != 0
    assert "carriers[0]" in cp.stderr


# ------------------------------------------------------------------- sweep

def test_sweep_row_count_and_header(tmp_path):
    out = tmp_path / "sweep.csv"
    cp = run_cli(
        "sweep", "--builtin", "counterexample",
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
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--output", str(out1)).returncode == 0
    assert run_cli(*args, "--output", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_joint_column_slope(tmp_path):
    out = tmp_path / "high.csv"
    cp = run_cli(
        "sweep", "--builtin", "counterexample",
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


def test_sweep_unwritable_output(tmp_path):
    cp = run_cli(
        "sweep", "--builtin", "counterexample",
        "--snr-db-start", "0", "--snr-db-stop", "10", "--snr-db-step", "5",
        "--output", str(tmp_path / "missing-dir" / "out.csv"),
    )
    assert cp.returncode != 0
    assert "error" in cp.stderr


def test_sweep_rejects_non_finite_grid_bounds():
    cp = run_cli(
        "sweep", "--builtin", "counterexample",
        "--snr-db-start", "0", "--snr-db-stop", "inf", "--snr-db-step", "1",
    )
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and "finite" in cp.stderr
    assert "Traceback" not in cp.stderr


def test_sweep_rejects_grid_above_point_cap():
    # 6e10 points: refused before any list is built
    cp = run_cli(
        "sweep", "--builtin", "counterexample",
        "--snr-db-start", "0", "--snr-db-stop", "60", "--snr-db-step", "1e-9",
    )
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and "points" in cp.stderr
    assert cp.stdout == ""


# --------------------------------------------------------------- bound-mac

def test_bound_mac_with_oracle_gap():
    cp = run_cli("bound-mac", "--h", "2", "--snr-db", "10", "--oracle")
    assert cp.returncode == 0, cp.stderr
    assert "bound=" in cp.stdout and "oracle=" in cp.stdout
    gap = float(cp.stdout.split("gap=")[1].split()[0])
    assert abs(gap) <= 1e-3


def test_bound_mac_zero_snr():
    cp = run_cli("bound-mac", "--h", "2", "--snr-db", "-400")
    assert cp.returncode == 0, cp.stderr
    bound = float(cp.stdout.split("bound=")[1].split()[0])
    assert bound <= 1e-12


def test_bound_mac_rejects_h_below_one():
    cp = run_cli("bound-mac", "--h", "0.5", "--snr-db", "10")
    assert cp.returncode != 0
    assert "h > 1" in cp.stderr


def test_bound_mac_rejects_non_finite_h():
    cp = run_cli("bound-mac", "--h", "nan", "--snr-db", "10")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:")
    assert cp.stdout == ""


# -------------------------------------------------------------------- game

def test_game_counterexample_construction_player1():
    cp = run_cli("game", "--builtin", "counterexample", "--coeff", "1,2", "--coeff", "2,3")
    assert cp.returncode == 0, cp.stderr
    assert "winner: player1" in cp.stdout
    assert "per-carrier dof: 1 1" in cp.stdout


def test_game_single_carrier_player2(tmp_path):
    path = write_channel(tmp_path / "c.json", [[[1.1, 0.6, 1.4], [0.8, 1.3, 0.5], [0.7, 0.9, 1.2]]])
    cp = run_cli("game", "--channel", path, "--coeff", "1,2")
    assert cp.returncode == 0, cp.stderr
    assert "winner: player2" in cp.stdout


def test_game_single_coeff_broadcasts_player2():
    cp = run_cli("game", "--builtin", "counterexample", "--coeff", "1,2")
    assert cp.returncode == 0, cp.stderr
    assert "winner: player2" in cp.stdout


def test_game_rejects_malformed_coeff():
    cp = run_cli("game", "--builtin", "counterexample", "--coeff", "1,1")
    assert cp.returncode != 0
    assert "off-diagonal" in cp.stderr


# ------------------------------------------------------------------- alloc

def test_alloc_symmetric_bounds_split_equally():
    cp = run_cli("alloc", "--snr-db", "10", "--bound", "example1", "--bound", "example1")
    assert cp.returncode == 0, cp.stderr
    assert "snr=5 " in cp.stdout
    assert "objective: " in cp.stdout
    objective = float(cp.stdout.split("objective: ")[1].strip())
    assert objective == float(f"{math.log2(6.0):.9g}")


def test_alloc_rejects_non_finite_gain():
    cp = run_cli("alloc", "--snr-db", "10", "--bound", "example1", "--bound", "p2p:nan")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:") and "p2p" in cp.stderr


def test_alloc_rejects_unknown_bound():
    cp = run_cli("alloc", "--snr-db", "10", "--bound", "mystery")
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
], ids=["import", "game", "sweep", "mac-bound", "alloc"])
def test_runs_without_numpy(code):
    cp = subprocess.run([sys.executable, "-c", _NO_NUMPY + code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


_CE = chan.make_counterexample()
_CE_SCHEME = rates.ia_feasibility(_CE)
_WITH_FRACTION = chan.ParallelChannel(
    (chan.SingleCarrierChannel(((1, Fraction(1, 3), 2.5), (1, 1, 1), (1, 1, -1))),)
)
_R2 = 0.7071067811865476  # 1/sqrt(2) rounded to a float


@pytest.mark.parametrize("call, want", [
    (lambda: _CE.link_gains(3, 3), [-1.0, 1.0]),
    (lambda: _WITH_FRACTION.link_gains(1, 2), [1.0 / 3.0]),
    (lambda: _WITH_FRACTION.carriers[0].as_array(),
     [[1.0, 1.0 / 3.0, 2.5], [1.0, 1.0, 1.0], [1.0, 1.0, -1.0]]),
    (lambda: _CE_SCHEME.v_vec(2), [_R2, _R2]),
    (lambda: _CE_SCHEME.u_vec(3), [-_R2, _R2]),
    (lambda: rates.effective_gains(_CE, _CE_SCHEME),
     [[1.0, 0.0, 0.0], [0.0, 1.0000000000000002, 0.0], [0.0, 0.0, 1.0000000000000002]]),
    (lambda: rates.water_fill([4.0, 1.0, 0.25], 3.0), [1.875, 1.125, 0.0]),
    (lambda: GenieParams(0.5, 2.0, -0.75).covariance(), [[1.0, -1.5], [-1.5, 4.0]]),
], ids=["link_gains", "link_gains-fraction", "as_array", "v_vec", "u_vec",
        "effective_gains", "water_fill", "covariance"])
def test_ndarray_helpers_keep_type_and_values(call, want):
    # values frozen from the implementation that computed them with numpy
    got = call()
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
    (["bound-mac", "--h", "2", "--snr-db", "0", "--snr-db", "10", "--snr-db", "20", "--oracle"],
     "9a951ba708f858d56901626d5bd96470acedd158aaa3b4263b3681a981a356ee"),
])
def test_golden_output(capsys, argv, digest):
    # frozen stdout digests: a changed printed digit shows up here
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
