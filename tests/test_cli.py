"""CLI contract: subcommands, exit codes, determinism of outputs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mfun.density
from mfun.cli import _fmt, default_test_functions, main
from mfun.density import support_radius
from mfun.empirical import haar_oracle
from mfun.zeros import bundled_zeros_path


def run(args):
    return main(args)


def test_print_config(capsys):
    assert run(["density", "--print-config", "--N", "7"]) == 0
    out = capsys.readouterr().out
    assert "N = 7" in out
    assert "seed = 1" in out


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 9\nseed = 4  # comment\nx-max = 1500\n")
    assert run(["density", "--config", str(cfg), "--seed", "6",
                "--print-config"]) == 0
    out = capsys.readouterr().out
    assert "N = 9" in out           # from file
    assert "seed = 6" in out        # flag wins
    assert "x-max = 1500" in out


def test_config_file_bad_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble = 3\n")
    assert run(["density", "--config", str(cfg)]) == 2


def test_zeros_verify_ok(tmp_path, capsys):
    assert run(["zeros-verify", "--out", str(tmp_path)]) == 0
    report = (tmp_path / "zeros_report.csv").read_text().splitlines()
    assert report[0] == "index,gamma,verified,residual"
    assert len(report) == 101
    assert (tmp_path / "zeros_counting.csv").exists()


def test_zeros_verify_typo_is_failure(tmp_path, capsys):
    lines = bundled_zeros_path().read_text().splitlines()
    vals = [ln for ln in lines if ln and not ln.startswith("#")]
    vals[4] = str(float(vals[4]) + 0.21)   # inject a typo ordinate
    bad = tmp_path / "typo.txt"
    bad.write_text("\n".join(vals) + "\n")
    assert run(["zeros-verify", "--zeros", str(bad),
                "--out", str(tmp_path / "o")]) == 1
    assert "5" in capsys.readouterr().out


def test_zeros_verify_missing_file_is_usage_error(tmp_path):
    assert run(["zeros-verify", "--zeros", str(tmp_path / "nope.txt"),
                "--out", str(tmp_path)]) == 2


def test_density_outputs_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["density", "--N", "6", "--out", str(out1)]) == 0
    assert run(["density", "--N", "6", "--out", str(out2)]) == 0
    for name in ("density.csv", "characteristic.csv", "density_meta.json",
                 "density.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    meta = json.loads((out1 / "density_meta.json").read_text())
    assert meta["n_used"] == 6
    assert abs(meta["mass"] - 1.0) <= 1e-6


def test_density_low_order_is_usage_error(tmp_path):
    assert run(["density", "--N", "3", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "characteristic.csv").exists()


def test_density_eps_honours_r_points(tmp_path, capsys):
    assert run(["density", "--eps", "1", "--r-points", "512",
                "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "density_meta.json").read_text())
    assert meta["n_used"] == 49
    assert meta["order"] == "limit"
    assert meta["r_points"] == 512
    assert len((tmp_path / "density.csv").read_text().splitlines()) == 513


def test_density_and_compare_independent_of_threads(tmp_path):
    src = str(Path(mfun.__file__).resolve().parents[1])
    runs = [(["density", "--N", "25"], ("density.csv", "density_meta.json")),
            (["compare", "--N", "6", "--samples", "100000", "--X", "20000"],
             ("compare.csv",))]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        files = {}
        for args, names in runs:
            out = tmp_path / threads / args[0]
            proc = subprocess.run(
                [sys.executable, "-m", "mfun.cli", *args, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            files.update((name, (out / name).read_bytes()) for name in names)
        outputs.append(files)
    for name, data in outputs[0].items():
        assert outputs[1][name] == data, name


def test_compare_small(tmp_path, capsys, coeffs):
    out = tmp_path / "cmp"
    assert run(["compare", "--N", "6", "--samples", "100000",
                "--X", "20000", "--out", str(out)]) == 0
    with open(out / "compare.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[:3] == ["phi", "density", "haar"]
    assert (out / "compare_weyl.csv").exists()
    # the haar column holds the exact Haar means at the default seed
    phis = default_test_functions(support_radius(coeffs, 6))
    means, _ = haar_oracle(coeffs, 6, phis, 100000, seed=1)
    assert [row[2] for row in rows] == [_fmt(m) for m in means]


@pytest.fixture
def no_grid(monkeypatch):
    """Fail the test if a rho grid is built: usage errors must come first."""
    def fail(*args, **kwargs):
        raise AssertionError("rho grid built before the usage check")
    monkeypatch.setattr(mfun.density, "default_rho_grid", fail)


def test_compare_short_x_is_usage_error(tmp_path, no_grid):
    assert run(["compare", "--N", "6", "--samples", "100000",
                "--X", "10", "--out", str(tmp_path)]) == 2


def test_compare_low_order_is_usage_error(tmp_path, no_grid):
    assert run(["compare", "--N", "3", "--out", str(tmp_path)]) == 2


def test_compare_few_samples_is_usage_error(tmp_path, no_grid):
    assert run(["compare", "--N", "6", "--samples", "100",
                "--X", "20000", "--out", str(tmp_path)]) == 2


def test_unwritable_out_is_usage_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["weyl", "--count", "1", "--out",
                str(blocker / "sub")]) == 2


def test_goldbach_validate_desk_scale(tmp_path, capsys):
    out = tmp_path / "gb"
    assert run(["goldbach-validate", "--x-max", "1500", "--N", "30",
                "--prime-cutoff", "100000", "--out", str(out)]) == 0
    assert (out / "goldbach.csv").exists()
    assert (out / "goldbach.svg").exists()
    assert "brute-force cross-check" in capsys.readouterr().out


def test_goldbach_guard_is_usage_error(tmp_path):
    assert run(["goldbach-validate", "--x-max", str(10 ** 8),
                "--out", str(tmp_path)]) == 2


def test_weyl_command(tmp_path, capsys):
    out = tmp_path / "w"
    assert run(["weyl", "--N", "10", "--X", "10000", "--count", "10",
                "--seed", "3", "--out", str(out)]) == 0
    lines = (out / "weyl.csv").read_text().splitlines()
    assert lines[0] == "n_vector,X,modulus,bound,ok"
    assert len(lines) == 11


def test_weyl_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["weyl", "--count", "5", "--X", "10000", "--out", str(a)])
    run(["weyl", "--count", "5", "--X", "10000", "--out", str(b)])
    assert (a / "weyl.csv").read_bytes() == (b / "weyl.csv").read_bytes()


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
