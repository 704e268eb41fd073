"""Command-line surface: subcommands, flags, exit codes."""

import argparse
import json

import pytest

from tauvar import cli
from tauvar.arith import tau_k_of, tau_k_segments
from tauvar.cli import build_parser, main
from tauvar.constants import GAMMA_METHODS
from tauvar.sweep import SweepConfig, read_records, run_sweep
from tauvar.variance import CUTOFFS
from tauvar.verify import SUITE_NAMES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tau_single(capsys):
    code, out, _ = run_cli(capsys, "tau", "--k", "3", "12")
    assert code == 0
    assert json.loads(out) == {"k": 3, "n": 12, "tau": 18}


def test_tau_range(capsys):
    code, out, _ = run_cli(capsys, "tau", "--k", "2", "1", "11")
    assert code == 0
    assert out.splitlines() == [
        "1,1", "2,2", "3,2", "4,3", "5,2", "6,4", "7,2", "8,4", "9,3", "10,4",
    ]


def test_tau_range_to_file(tmp_path, capsys):
    path = tmp_path / "tau.csv"
    code, out, _ = run_cli(capsys, "tau", "--k", "3", "1", "5", "--out", str(path))
    assert code == 0
    assert path.read_text().splitlines() == ["1,1", "2,3", "3,3", "4,6"]


def test_tau_range_streams_window_by_window(tmp_path, capsys, monkeypatch):
    # windows of 7 entries: each window's lines are written before the next
    # window is sieved, and the text equals the pointwise values
    printed = []

    def small_windows(k, lo, hi):
        for seg in tau_k_segments(k, lo, hi, 7):
            printed.append(capsys.readouterr().out)
            yield seg

    monkeypatch.setattr(cli, "tau_k_segments", small_windows)
    expected = [f"{n},{tau_k_of(3, n)}\n" for n in range(1, 40)]
    code, out, _ = run_cli(capsys, "tau", "--k", "3", "1", "40")
    assert code == 0
    assert printed + [out] == [""] + ["".join(expected[i : i + 7]) for i in range(0, 39, 7)]

    path = tmp_path / "tau.csv"
    assert run_cli(capsys, "tau", "--k", "3", "1", "40", "--out", str(path))[0] == 0
    assert path.read_bytes() == "".join(expected).encode()


def test_tau_range_rejects_empty_and_negative_ranges(capsys):
    for lo, hi in (("10", "5"), ("5", "-3")):
        code, out, err = run_cli(capsys, "tau", "--k", "2", lo, hi)
        assert code == 2
        assert out == ""
        assert "need 1 <= lo < hi" in err


def test_tau_range_error_creates_no_out_file(tmp_path, capsys):
    path = tmp_path / "p"
    code, out, err = run_cli(capsys, "tau", "--k", "2", "10", "5", "--out", str(path))
    assert code == 2
    assert out == "" and "need 1 <= lo < hi" in err
    assert not path.exists()


def test_choice_flags_list_the_library_choices():
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]

    def choices(command, dest):
        [action] = [a for a in subparsers.choices[command]._actions if a.dest == dest]
        return tuple(action.choices)

    assert choices("gamma", "gamma_method") == GAMMA_METHODS
    assert choices("variance", "gamma_method") == GAMMA_METHODS
    assert choices("variance", "cutoff") == CUTOFFS


def test_constants_json(capsys):
    code, out, _ = run_cli(
        capsys, "constants", "--k", "2", "--d", "3", "--prime-bound", "100000"
    )
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 2 and data["d"] == 3
    assert data["g_k"] == "2"
    assert data["a_k"] == pytest.approx(0.6079, abs=1e-3)
    assert data["a_k_d"] == pytest.approx(data["a_k"] / 4.5, rel=1e-12)


def test_gamma_subcommand(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--k", "3", "--c", "2.5")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "closed-form"
    assert data["value"] == pytest.approx(0.5**8 / 40320.0)

    code, out, _ = run_cli(
        capsys, "gamma", "--k", "3", "--c", "2.5", "--gamma-method", "mc",
        "--samples", "10000", "--seed", "9",
    )
    data = json.loads(out)
    assert data["method"] == "monte-carlo" and data["params"]["seed"] == 9


def test_gamma_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "gamma", "--k", "3", "--c", "1.5")
    assert code == 2
    assert "error:" in err
    code, out, _ = run_cli(capsys, "gamma", "--k", "3", "--c", "2.0")  # c = k - 1 is in [k-1, k)
    assert code == 0
    assert json.loads(out)["value"] == 1.0 / 40320.0


def test_variance_subcommand(capsys, tmp_path):
    record_file = tmp_path / "runs.jsonl"
    code, out, _ = run_cli(
        capsys, "variance", "--k", "2", "--d", "4", "--c", "1.6609640474436813",
        "--cutoff", "sharp", "--out", str(record_file),
    )
    assert code == 0
    data = json.loads(out)
    assert data["variance"] == 2.0
    [stored] = read_records(record_file)
    assert stored["report"]["variance"] == 2.0
    # the same record format as a sweep's
    cfg = SweepConfig(k_list=(2,), d_list=(4,), c_list=(1.6609640474436813,), cutoff="sharp")
    [swept] = read_records(run_sweep(cfg, out_dir=tmp_path / "sweep").jsonl_path)
    assert stored.keys() == swept.keys()
    assert stored["report"].keys() == swept["report"].keys()

    # the sieve window is no option
    with pytest.raises(SystemExit) as exc:
        main(["variance", "--k", "2", "--d", "101", "--c", "1.5", "--segment-size", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --segment-size 5" in capsys.readouterr().err

    for workers in ("0", "-2"):
        code, out, err = run_cli(
            capsys, "variance", "--k", "2", "--d", "101", "--c", "1.5", "--cutoff", "sharp",
            "--workers", workers,
        )
        assert code == 2
        assert out == ""
        assert "workers must be positive" in err


def test_verify_known_and_unknown_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "moment")
    assert code == 0
    assert "[PASS] moment/g3=42" in out

    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2
    for name in SUITE_NAMES:
        assert name in err  # the error lists every valid suite


def test_verify_json_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "magic", "--json")
    assert code == 0
    payload = [l for l in out.splitlines() if l.startswith("{")]
    assert json.loads(payload[0])["suite"] == "magic"


def test_plot_gamma3(capsys, tmp_path):
    out_path = tmp_path / "fig.svg"
    code, out, _ = run_cli(capsys, "plot", "gamma3", "--out", str(out_path))
    assert code == 0
    assert out_path.exists()
    assert json.loads(out)["target"] == "gamma3"


def test_sweep_end_to_end(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("k = 2\nd = 4,5\nc = 1.5\ncutoff = sharp\n")
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(
        capsys, "sweep", "--config", str(cfg), "--out", str(out_dir), "--workers", "1"
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["completed"] == 2 and summary["failed"] == 0
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "results.jsonl").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
