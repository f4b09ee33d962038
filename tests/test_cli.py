"""CLI contract: subcommands, exit codes, determinism of outputs."""

import csv
import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mfun.cli
import mfun.density
import mfun.empirical
import mfun.goldbach
import mfun.zeros
from mfun._kernels import splitmix64
from mfun.cli import _fmt, _write_csv, default_test_functions, main
from mfun.density import support_radius
from mfun.empirical import haar_oracle
from mfun.zeros import bundled_zeros_path


def run(args):
    """main's exit code, argparse's usage errors included."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def test_print_config(capsys):
    assert run(["weyl", "--print-config", "--N", "7"]) == 0
    out = capsys.readouterr().out
    assert "N = 7" in out
    assert "seed = 1" in out


def test_parser_built_once_per_process(capsys):
    """One parser serves every run in a process, and each run prints its
    own command's options only, with its own values."""
    printed = []
    for args in (["weyl", "--N", "7"],
                 ["goldbach-validate", "--x-max", "1500"]):
        assert run([*args, "--print-config"]) == 0
        lines = capsys.readouterr().out.splitlines()
        printed.append(dict(line.split(" = ", 1) for line in lines))
    assert mfun.cli._parser() is mfun.cli._parser()
    weyl, goldbach = printed
    assert weyl.keys() == {"zeros", "out", "N", "X", "seed", "count"}
    assert goldbach.keys() == {"zeros", "out", "N", "x-max"}
    assert (weyl["N"], goldbach["N"], goldbach["x-max"]) == ("7", "10", "1500")


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 9\nseed = 4  # comment\n")
    assert run(["weyl", "--config", str(cfg), "--seed", "6",
                "--print-config"]) == 0
    out = capsys.readouterr().out
    assert "N = 9" in out           # from file
    assert "seed = 6" in out        # flag wins
    cfg.write_text("x-max = 1500\n")
    assert run(["goldbach-validate", "--config", str(cfg),
                "--print-config"]) == 0
    assert "x-max = 1500" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [2 ** 53 + 1, 2 ** 64 - 1])
def test_config_file_integer_is_exact(tmp_path, capsys, seed):
    """A file value is converted as its flag is, not through a float."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = {seed}\n")
    assert run(["weyl", "--config", str(cfg), "--print-config"]) == 0
    assert f"seed = {seed}" in capsys.readouterr().out.splitlines()


def test_config_file_bad_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble = 3\n")
    assert run(["density", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command, options", [
    ("zeros-verify", {"--zeros", "--out", "--tol"}),
    ("density", {"--zeros", "--out", "--N", "--eps", "--r-points"}),
    ("compare", {"--zeros", "--out", "--N", "--X", "--samples", "--seed",
                 "--r-points"}),
    ("goldbach-validate", {"--zeros", "--out", "--N", "--x-max"}),
    ("weyl", {"--zeros", "--out", "--N", "--X", "--seed", "--count"}),
])
def test_help_lists_only_the_options_read(capsys, command, options):
    assert run([command, "--help"]) == 0
    listed = set(re.findall(r"^  (?:-h, )?(--[\w-]+)",
                            capsys.readouterr().out, re.MULTILINE))
    assert listed == options | {"--help", "--config", "--print-config"}


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


def test_zeros_verify_failure_names_residual_and_tol(tmp_path, monkeypatch,
                                                      capsys):
    """A failed ordinate prints its index, its residual and the tolerance."""
    index = np.arange(100)
    monkeypatch.setattr(mfun.cli, "verify_table", lambda table, tol: (
        index != 4, np.where(index == 4, 0.25, 0.0)))
    assert run(["zeros-verify", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert re.fullmatch(r"verification FAILED at index 5 "
                        r"\(gamma 32\.935\d+\): residual 2\.500e-01 "
                        r"> tol 1e-06\n", out), out


def test_counting_failure_names_count_and_slack(tmp_path, monkeypatch,
                                                capsys):
    """A failed counting check prints T, both counts and the slack."""
    index = np.arange(100)
    monkeypatch.setattr(mfun.cli, "verify_table",
                        lambda table, tol: (index >= 0, 0.0 * index))
    real = mfun.cli.counting_check

    def shifted(table, t):
        observed, expected = real(table, t)
        return observed + 3 * (t == 25.0), expected
    monkeypatch.setattr(mfun.cli, "counting_check", shifted)
    assert run(["zeros-verify", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert re.fullmatch(r"counting check FAILED at T = 25: observed 5, "
                        r"expected 2\.391, \|difference\| 2\.609 > slack 2\n",
                        out), out


def test_zeros_verify_missing_file_is_usage_error(tmp_path):
    assert run(["zeros-verify", "--zeros", str(tmp_path / "nope.txt"),
                "--out", str(tmp_path)]) == 2


def test_zeros_verify_short_table_is_usage_error(tmp_path, monkeypatch,
                                                 capsys):
    """A table ending below the counting check's first T = 25 is refused
    before any Z is evaluated, and leaves no output."""
    def fail(t):
        raise AssertionError("Z evaluated before the table range check")
    monkeypatch.setattr(mfun.zeros, "hardy_z", fail)
    short = tmp_path / "two.txt"
    short.write_text("14.134725141734694\n21.022039638771555\n")
    out = tmp_path / "out"
    assert run(["zeros-verify", "--zeros", str(short), "--out", str(out)]) == 2
    assert "T = 25.0" in capsys.readouterr().err
    assert not out.exists()


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
    rows = (out1 / "characteristic.csv").read_text().splitlines()[1:]
    assert len(rows) == meta["rho_points"]


def test_write_csv_float_array_matches_fmt(tmp_path):
    """A float array's rows, printed with one template, match ``_fmt``
    value for value: signed zeros, infinities, NaN, subnormals and ints."""
    inf, nan = float("inf"), float("nan")
    rows = [(0.0, -0.0), (inf, -inf), (nan, -nan), (1.0 / 3.0, -2.5e-7),
            (5e-324, 1.7976931348623157e308), (0, 7), (-12, 2 ** 53),
            (10 ** 16, 123456789.0)]
    _write_csv(tmp_path / "array.csv", ["a", "b"],
               np.array(rows, dtype=np.float64))
    _write_csv(tmp_path / "cells.csv", ["a", "b"], rows)
    lines = (tmp_path / "array.csv").read_text().splitlines()[1:]
    assert lines == [",".join(_fmt(v) for v in row) for row in rows]
    assert ((tmp_path / "array.csv").read_bytes()
            == (tmp_path / "cells.csv").read_bytes())


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


def run_process(args, out, timeout, preexec_fn=None, **env):
    """``python -m mfun.cli ARGS --out OUT`` in a fresh interpreter."""
    src = str(Path(mfun.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "mfun.cli", *args, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=preexec_fn)


def test_density_and_compare_independent_of_threads(tmp_path):
    """Order 25 sums its Hankel series directly; order 5 on 512 points
    and the order-6 inversion of compare take the FFT path.  zeros-verify
    and weyl run too (goldbach-validate has its own test).  compare also
    runs pinned to one CPU, where its streams are not split between two
    processes."""
    density = ("density.csv", "density_meta.json")
    runs = [(["density", "--N", "25"], density),
            (["density", "--N", "5", "--r-points", "512"], density),
            (["compare", "--N", "6", "--samples", "100000", "--X", "20000"],
             ("compare.csv", "compare_weyl.csv")),
            (["zeros-verify"], ("zeros_report.csv", "zeros_counting.csv")),
            (["weyl", "--count", "50", "--seed", "1"], ("weyl.csv",))]
    outputs = []
    for threads in ("1", "2"):
        files = {}
        for i, (args, names) in enumerate(runs):
            out = tmp_path / threads / str(i)
            proc = run_process(args, out, 300, OMP_NUM_THREADS=threads,
                               OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            files.update(((i, name), (out / name).read_bytes())
                         for name in names)
        outputs.append(files)
    for key, data in outputs[0].items():
        assert outputs[1][key] == data, key
    if hasattr(os, "sched_setaffinity"):
        args, names = runs[2]
        proc = run_process(args, tmp_path / "pinned", 300,
                           preexec_fn=lambda: os.sched_setaffinity(0, {0}))
        assert proc.returncode == 0, proc.stderr
        for name in names:
            assert (tmp_path / "pinned" / name).read_bytes() \
                == outputs[0][2, name], name


def test_compare_half_stops_with_its_parent(tmp_path):
    """A forked stream half stops at its next chunk once its parent dies
    of a signal that Python does not handle (SIGTERM): it does not run
    on to the end of its range, several seconds at these sizes."""
    if mfun.empirical._split_point(2 * 10 ** 7) == 0:
        pytest.skip("streams are not split here")
    src = str(Path(mfun.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mfun.cli", "compare", "--N", "10",
         "--samples", "20000000", "--X", "2e4", "--out", str(tmp_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    try:
        deadline = time.monotonic() + 60
        while not (kids := children.read_text().split()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
    stat = Path(f"/proc/{kids[0]}/stat")
    deadline = time.monotonic() + 1.0
    while stat.exists() and stat.read_text().split(")")[-1].split()[0] != "Z":
        assert time.monotonic() < deadline, "the forked half ran on"
        time.sleep(0.005)


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


def test_compare_failures_name_row_and_check(tmp_path, monkeypatch, capsys):
    """Each failed compare check prints its row, its value and its bound,
    and the CSVs are written as on a pass."""
    monkeypatch.setattr(mfun.cli, "COMPARE_TOLERANCE", 0.0)
    real = mfun.empirical.compare_report

    def first_trend_fails(*args, **kwargs):
        report = real(*args, **kwargs)
        rows = (dataclasses.replace(report.rows[0], trend_ok=False),
                *report.rows[1:])
        return dataclasses.replace(report, rows=rows)
    monkeypatch.setattr(mfun.empirical, "compare_report", first_trend_fails)
    assert run(["compare", "--N", "6", "--samples", "100000",
                "--X", "20000", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    phi = r"compare FAILED for (rectangle|disc|gaussian|character)\(.*\): "
    value = r"\d\.\d{3}e[-+]\d\d"
    alpha = [ln for ln in out if re.fullmatch(
        phi + rf"\|alpha average - density\| at X = 20000 is {value} "
        r"> tol 0\.0", ln)]
    haar = [ln for ln in out if re.fullmatch(
        phi + rf"\|haar - density\| is {value} > tol 0\.0", ln)]
    trend = [ln for ln in out if re.fullmatch(
        phi + rf"discrepancies \[{value}, {value}, {value}\] over "
        r"X = \[200\.0, 2000\.0, 20000\.0\] rise by more than 2x above "
        r"the floor 0\.002", ln)]
    assert (len(alpha), len(haar), len(trend)) == (8, 8, 1), out
    assert trend[0].startswith("compare FAILED for rectangle(")
    assert re.fullmatch(rf"max discrepancy {value} \(FAIL\)", out[-1])
    with open(tmp_path / "compare.csv", newline="") as fh:
        trends = [row[-1] for row in csv.reader(fh)][1:]
    assert trends == ["fail"] + ["ok"] * 7
    assert (tmp_path / "compare_weyl.csv").exists()


@pytest.mark.parametrize("args", [
    ["compare", "--N", "6", "--samples", "100000", "--X", "20000"],
    ["weyl", "--count", "3"],
])
def test_failed_weyl_bound_is_failure(tmp_path, monkeypatch, capsys, args):
    # the CLI checks its vectors in one batch: modulus 1 for every row
    monkeypatch.setattr(mfun.empirical, "weyl_test",
                        lambda coeffs, vecs, x: np.ones(len(vecs), complex))
    assert run([*args, "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert re.search(r"Weyl bound FAILED for n = \([-\d ]+\): "
                     r"modulus 1\.0+e\+00 > bound \d", out)


@pytest.fixture
def no_grid(monkeypatch):
    """Fail the test if a rho grid is built: usage errors must come first."""
    def fail(*args, **kwargs):
        raise AssertionError("rho grid built before the usage check")
    monkeypatch.setattr(mfun.density, "default_rho_grid", fail)


def test_compare_short_x_is_usage_error(tmp_path, no_grid, capsys):
    assert run(["compare", "--N", "6", "--samples", "100000",
                "--X", "10", "--out", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: X=10.0 below the minimum usable")


def test_compare_low_order_is_usage_error(tmp_path, no_grid):
    assert run(["compare", "--N", "3", "--out", str(tmp_path)]) == 2


def test_compare_few_samples_is_usage_error(tmp_path, no_grid):
    assert run(["compare", "--N", "6", "--samples", "100",
                "--X", "20000", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("args, config", [
    (["weyl", "--N", "0", "--count", "2"], None),
    (["weyl", "--X", "-1"], None),
    (["weyl", "--X", "inf"], None),
    (["weyl", "--count", "-3"], None),
    (["weyl", "--seed", "-1"], None),
    (["weyl", "--seed", str(2 ** 64)], None),
    (["density", "--eps", "-1"], None),
    (["density", "--eps", "nan"], None),
    (["density", "--r-points", "0"], None),
    (["density", "--r-points", "1"], None),
    (["zeros-verify", "--tol", "0"], None),
    (["weyl"], "N = inf\n"),
    (["goldbach-validate", "--x-max", str(10 ** 7 + 1)], None),
    (["goldbach-validate", "--prime-cutoff", "100000"], None),
    (["compare", "--samples", "100"], None),
    (["weyl"], "N = 9.7\n"),
    (["zeros-verify", "--samples", "20000"], None),
    (["density"], "x-max = 1500\n"),
    (["goldbach-validate", "--N", "101"], None),
    (["weyl", "--N", "101"], None),
    (["goldbach-validate"], "prime-cutoff = 100000\n"),
    (["density", "--r-points", str(2 ** 18 + 1)], None),
    (["compare", "--r-points", str(2 ** 18 + 1)], None),
    (["weyl", "--count", str(10 ** 5 + 1)], None),
])
def test_out_of_range_input_is_usage_error(tmp_path, args, config):
    """Out-of-range values, and options the command does not read, exit 2
    before the output directory is made."""
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args = [*args, "--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "out"
    if args[:3] == ["weyl", "--N", "0"]:
        # once an endless loop: a fresh process, so a hang fails the test
        code = run_process(args, out, 60).returncode
    else:
        code = run([*args, "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("option, ceiling", [("--r-points", 2 ** 18),
                                             ("--count", 10 ** 5)])
def test_ceilings_are_inclusive(capsys, option, ceiling):
    """--print-config takes a value at the ceiling and refuses one above."""
    command = "weyl" if option == "--count" else "density"
    assert run([command, option, str(ceiling), "--print-config"]) == 0
    assert run([command, option, str(ceiling + 1), "--print-config"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option[2:]} must be")


@pytest.mark.parametrize("args", [
    ["compare", "--X", "10", "--samples", "10000"],
    ["density", "--N", "3"],
    ["density", "--zeros", "/nonexistent"],
])
def test_usage_error_in_command_leaves_no_directory(tmp_path, args):
    """A usage error found by the command itself removes the --out
    directory (and its parents) that the run created."""
    out = tmp_path / "new" / "out"
    assert run([*args, "--out", str(out)]) == 2
    assert not (tmp_path / "new").exists()


def test_usage_error_keeps_existing_directory(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert run(["density", "--N", "3", "--out", str(out)]) == 2
    assert out.is_dir()


def test_internal_value_error_is_not_usage_error(tmp_path, monkeypatch):
    """A broken invariant inside the library is a bug, not exit 2."""
    def broken(*args, **kwargs):
        raise ValueError("invariant violated")
    monkeypatch.setattr(mfun.density, "char_M_N", broken)
    with pytest.raises(ValueError, match="invariant violated"):
        run(["density", "--N", "6", "--out", str(tmp_path)])


def test_unwritable_out_is_usage_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["weyl", "--count", "1", "--out",
                str(blocker / "sub")]) == 2


def test_goldbach_validate_desk_scale(tmp_path, capsys):
    out = tmp_path / "gb"
    assert run(["goldbach-validate", "--x-max", "1500", "--N", "30",
                "--out", str(out)]) == 0
    assert (out / "goldbach.csv").exists()
    assert (out / "goldbach.svg").exists()
    assert "brute-force cross-check" in capsys.readouterr().out


def test_goldbach_csv_array_matches_rows(tmp_path, monkeypatch):
    """goldbach.csv, written as a float array, is the bytes of its rows
    written cell by cell through ``_fmt`` with x an int, at x_max = 2e4."""
    caught, compare = [], mfun.goldbach.compare_main_term

    def spied(*args):
        caught.extend(rows := compare(*args))
        return rows

    monkeypatch.setattr(mfun.goldbach, "compare_main_term", spied)
    assert run(["goldbach-validate", "--x-max", "20000", "--N", "30",
                "--out", str(tmp_path)]) == 0
    header = ["x", "a2", "main_term", "residual", "normalized_residual"]
    assert all(type(r["x"]) is int for r in caught) and len(caught) > 200
    _write_csv(tmp_path / "rows.csv", header,
               [[r[key] for key in header] for r in caught])
    assert ((tmp_path / "goldbach.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())


def test_svg_polyline_written_in_blocks(tmp_path):
    """A 9,000-point curve spans three 4,096-point writes: its polyline
    holds every point once, single-spaced across the block edges, each
    scaled into the plot area as the whole-array map scales it."""
    from mfun import svgplot
    x = np.arange(9000.0)
    y = np.sin(x / 300.0)
    svgplot.line_plot(tmp_path / "p.svg", [("sin", x, y)])
    text = (tmp_path / "p.svg").read_text()
    (points,) = re.findall(r'<polyline points="([^"]*)"', text)
    pairs = points.split(" ")
    assert len(pairs) == x.size and text.endswith("</svg>\n")
    pad = 0.05 * (y.max() - y.min())
    y0, y1 = y.min() - pad, y.max() + pad
    u = svgplot._ML + x / x[-1] * (svgplot._W - svgplot._ML - svgplot._MR)
    v = svgplot._MT + (y1 - y) / (y1 - y0) * (
        svgplot._H - svgplot._MT - svgplot._MB)
    assert pairs == [f"{a:.2f},{b:.2f}" for a, b in zip(u.tolist(),
                                                        v.tolist())]


def test_goldbach_cross_check_has_its_own_verdict(tmp_path, monkeypatch,
                                                  capsys):
    """A brute-force mismatch fails the run on a verdict line of its own,
    with the measured gap and the bound; the residual line still passes."""
    oracle = mfun.goldbach.brute_force_sums
    def shifted(table, s2):
        r2, a2 = oracle(table, s2)
        return r2, a2 + 1.0
    monkeypatch.setattr(mfun.goldbach, "brute_force_sums", shifted)
    assert run(["goldbach-validate", "--x-max", "1500", "--N", "30",
                "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^brute-force cross-check: max \|A2 - brute force\| = "
                     r"1\.000e\+00 \(bound \d\.\d{3}e[-+]\d+\) FAIL$", out,
                     re.MULTILINE)
    assert re.search(r"^max normalized residual .* pass$", out, re.MULTILINE)


def test_goldbach_validate_smallest_x_max(tmp_path, capsys):
    """The least accepted --x-max runs: the x grid starts at 2, not 1."""
    assert run(["goldbach-validate", "--x-max", "2",
                "--out", str(tmp_path)]) == 0


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


@pytest.mark.parametrize("n, count", [(1, 60), (7, 200), (10, 50)])
def test_weyl_vectors_are_the_loop_draws(tmp_path, n, count):
    """The batched draw lists the vectors that drawing one vector at a time
    and skipping zero vectors gives, in order; at N = 1 a seventh of the
    draws are zero, so the top-up from the same stream is exercised.
    Entry m of a row is ((w >> 32) * 7 >> 32) - 3 of its SplitMix64 word w,
    here in Python integers."""
    want, word = [], 0
    while len(want) < count:
        vec = [((int(w) >> 32) * 7 >> 32) - 3
               for w in splitmix64(3, word, word + n)]
        word += n
        if any(vec):
            want.append("(" + " ".join(map(str, vec)) + ")")
    assert run(["weyl", "--N", str(n), "--count", str(count), "--seed", "3",
                "--out", str(tmp_path)]) == 0
    with open(tmp_path / "weyl.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n_vector"] for r in rows] == want
    assert all(r["ok"] == "true" for r in rows)


@pytest.mark.parametrize("fail", [False, True])
def test_weyl_rows_written_in_blocks(tmp_path, monkeypatch, capsys, coeffs,
                                     fail):
    """At the default budget (blocks of 4,096 vectors) 4,110 vectors span
    a whole block and a partial one; weyl.csv holds the rows that checking
    and formatting the whole batch at once writes, and every failing row,
    in whichever block, is reported."""
    count, x = 4110, 1e4
    if fail:
        monkeypatch.setattr(mfun.empirical, "weyl_test",
                            lambda coeffs, vecs, x: np.ones(len(vecs), complex))
    words = splitmix64(3, 0, count * 10).reshape(count, 10)
    vecs = ((words >> 32) * 7 >> 32).astype(np.int64) - 3
    assert vecs.any(axis=1).all()   # no top-up draw at this seed
    moduli = np.abs(mfun.empirical.weyl_test(coeffs, vecs, x))
    bounds = 2.0 / (x * np.abs(mfun.empirical.weyl_frequency(coeffs, vecs)))
    ok = moduli <= bounds * (1 + 1e-12)
    want = ["n_vector,X,modulus,bound,ok"] + [
        ",".join(_fmt(v) for v in ("(" + " ".join(map(str, vec)) + ")", x,
                                   modulus, bound, good))
        for vec, modulus, bound, good in zip(vecs.tolist(), moduli, bounds,
                                             ok)]
    assert ok.all() != fail
    assert run(["weyl", "--count", str(count), "--seed", "3", "--X", "1e4",
                "--out", str(tmp_path)]) == int(fail)
    assert (tmp_path / "weyl.csv").read_text().splitlines() == want
    failed = re.findall(r"Weyl bound FAILED for n = (\([-\d ]+\))",
                        capsys.readouterr().out)
    assert failed == [line.split(",")[0] for line in want[1:]] * fail


def test_weyl_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["weyl", "--count", "5", "--X", "10000", "--out", str(a)])
    run(["weyl", "--count", "5", "--X", "10000", "--out", str(b)])
    assert (a / "weyl.csv").read_bytes() == (b / "weyl.csv").read_bytes()


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _modules_after(code, package="scipy"):
    """The modules of package loaded once a fresh interpreter has run code."""
    src = str(Path(mfun.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = proc.stdout.split()
    assert "mfun" in modules
    return [m for m in modules
            if m == package or m.startswith(package + ".")]


def test_cli_import_leaves_out_heavy_scipy():
    """mfun runs on numpy alone: importing the package or the CLI loads no
    scipy module at all."""
    assert _modules_after("import mfun") == []
    assert _modules_after("import mfun.cli") == []


def test_commands_load_no_scipy():
    """Nor does running every command, at desk scale."""
    assert _modules_after(
        "import mfun.cli, tempfile\n"
        "for argv in ('zeros-verify', 'density --N 10 --r-points 64',\n"
        "             'compare --N 6 --samples 10000 --X 1e4',\n"
        "             'goldbach-validate --x-max 1500', 'weyl --count 2'):\n"
        "    with tempfile.TemporaryDirectory() as out:\n"
        "        assert mfun.cli.main([*argv.split(), '--out', out]) == 0"
    ) == []


def test_compare_and_weyl_load_no_numpy_random():
    """The Haar samples and the Weyl vectors come from the package's own
    SplitMix64 stream: neither command imports numpy.random."""
    assert _modules_after(
        "import mfun.cli, tempfile\n"
        "for argv in ('compare --N 10 --samples 20000 --X 1e4 "
        "--r-points 512',\n"
        "             'weyl --count 50'):\n"
        "    with tempfile.TemporaryDirectory() as out:\n"
        "        assert mfun.cli.main([*argv.split(), '--out', out]) == 0",
        "numpy.random") == []
