"""Command-line pipeline: zero verification, density construction,
three-route comparison, Goldbach validation, and Weyl-sum checks.

All commands are deterministic given their configuration (seeds included);
reruns produce byte-identical primary outputs.  Exit codes: 0 success,
1 tolerance or verification failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import density as dn
from . import empirical as em
from . import goldbach as gb
from . import spectral as sp
from ._kernels import _per_block, splitmix64
from .errors import MfunError, RangeError
from .svgplot import line_plot
from .testfuncs import TestFunction
from .zeros import bundled_zeros_path, counting_check, load_zeros, verify_table

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

COMPARE_TOLERANCE = 1e-2
COUNTING_SLACK = 2
COUNTING_T_MIN = 25.0

# Ceilings on the two options whose memory grows with their value: a
# density at 2^18 r points peaks near 60 MiB (numpy, the profile and one
# 4 MiB spectrum of its Hankel sum at a time), and 10^5 Weyl vectors,
# checked in one batch, near 63 MiB.
MAX_R_POINTS = 2 ** 18
MAX_WEYL_COUNT = 10 ** 5

# Calibrated once on the bundled pipeline (x_max=2e5, N=100, observed
# maximum 0.0099 over x >= 1000) and frozen with a 5x margin.
NORMALIZED_RESIDUAL_BOUND = 0.05


class Option(NamedTuple):
    """A flag's and a config-file value's converter, the default, and the
    test a value must pass, with the rule that states it in words."""
    convert: Callable[[str], object]
    default: object
    rule: str
    accepts: Callable[[object], bool] = lambda v: True


# Every option, declared once.  Its range is checked before any grid, sample
# or file is made; chained comparisons also refuse NaN.  eps = 0 keeps its
# meaning of a fixed-order density; the seed keys a SplitMix64 stream.
# The library checks x_max and samples again where it uses them.
_OPTIONS = {
    "zeros": Option(Path, bundled_zeros_path(), "zero-ordinate file"),
    "out": Option(str, "mfun-out", "output directory"),
    "N": Option(int, 10, ">= 1", lambda v: v >= 1),
    "eps": Option(float, 0.0, ">= 0 and finite", lambda v: 0 <= v < math.inf),
    "X": Option(float, 1e6, "positive and finite", lambda v: 0 < v < math.inf),
    "count": Option(int, 50, f"in [1, {MAX_WEYL_COUNT}]",
                    lambda v: 1 <= v <= MAX_WEYL_COUNT),
    "seed": Option(int, 1, "in [0, 2^64)", lambda v: 0 <= v < 2 ** 64),
    "r_points": Option(int, dn.R_GRID_POINTS, f"in [2, {MAX_R_POINTS}]",
                       lambda v: 2 <= v <= MAX_R_POINTS),
    "tol": Option(float, 1e-6, "positive and finite",
                  lambda v: 0 < v < math.inf),
    "x_max": Option(int, 200000, f"in [2, {gb.X_MAX_GUARD}]",
                    lambda v: 2 <= v <= gb.X_MAX_GUARD),
    "samples": Option(int, 10 ** 7, f">= {em.MIN_HAAR_SAMPLES}",
                      lambda v: v >= em.MIN_HAAR_SAMPLES),
}


def _key(name: str) -> str:
    return name.replace("_", "-")


def _load_config_file(path: str, command: str) -> dict:
    """``key = value`` lines, each value converted as its flag's value is."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise MfunError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = (part.strip() for part in text.partition("="))
            key = key.replace("-", "_")
            if key not in _COMMANDS[command][1]:
                raise MfunError(f"{path}:{lineno}: {command} has no option "
                                f"{_key(key)!r}")
            try:
                values[key] = _OPTIONS[key].convert(val)
            except ValueError:
                raise MfunError(f"{path}:{lineno}: bad value for "
                                f"{_key(key)}: {val!r}") from None
    return values


def _resolve(args) -> argparse.Namespace:
    """The command's options: defaults, then the config file, then flags."""
    names = _COMMANDS[args.command][1]
    values = {name: _OPTIONS[name].default for name in names}
    if args.config:
        values.update(_load_config_file(args.config, args.command))
    values.update((name, getattr(args, name)) for name in names
                  if getattr(args, name) is not None)
    for name, value in values.items():
        if not _OPTIONS[name].accepts(value):
            raise MfunError(f"{_key(name)} must be {_OPTIONS[name].rule}, "
                            f"got {value}")
    return argparse.Namespace(**values)


def _fmt(x) -> str:
    if isinstance(x, str):
        return f'"{x}"' if "," in x else x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}i"
    return f"{float(x):.17g}"


def _write_csv(path: Path, header, rows):
    """Write header and rows; each cell as ``_fmt`` prints it.

    rows is an iterable of rows, or a 2-D float array whose rows all take
    one "%.17g" template, as ``_fmt`` prints a float (an integral value
    below 1e17 prints as its int).  The array is formatted a budget of
    rows per string, which bounds the memory the text takes.
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            step = _per_block(64 * rows.shape[1])   # a cell's float and text
            for lo in range(0, rows.shape[0], step):
                block = rows[lo:lo + step]
                fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))
            return
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _coefficients(config: argparse.Namespace):
    return sp.build_coefficients(load_zeros(config.zeros))


# ---------------------------------------------------------------- commands

def cmd_zeros_verify(config: argparse.Namespace, out: Path) -> int:
    table = load_zeros(config.zeros)
    gammas = table.gammas.tolist()
    if gammas[-1] < COUNTING_T_MIN:
        raise RangeError(f"the counting check starts at T = {COUNTING_T_MIN}, "
                         f"above the last ordinate {gammas[-1]}")
    verified, residuals = verify_table(table, config.tol)
    _write_csv(out / "zeros_report.csv",
               ["index", "gamma", "verified", "residual"],
               zip(range(1, len(gammas) + 1), gammas, verified.tolist(),
                   residuals.tolist()))
    failures = [f"verification FAILED at index {i + 1} (gamma {gammas[i]}): "
                f"residual {residuals[i]:.3e} > tol {config.tol}"
                for i in np.flatnonzero(~verified).tolist()]
    count_rows = []
    for t in np.linspace(COUNTING_T_MIN, gammas[-1], 20):
        observed, expected = counting_check(table, float(t))
        gap = abs(observed - expected)
        count_rows.append((t, observed, expected, gap <= COUNTING_SLACK))
        if gap > COUNTING_SLACK:
            failures.append(f"counting check FAILED at T = {t:.6g}: observed "
                            f"{observed}, expected {expected:.3f}, "
                            f"|difference| {gap:.3f} > slack {COUNTING_SLACK}")
    _write_csv(out / "zeros_counting.csv",
               ["T", "observed", "expected", "within_slack"], count_rows)
    if failures:
        print("\n".join(failures))
        return EXIT_FAIL
    print(f"all {len(gammas)} ordinates verified (tol {config.tol})")
    return EXIT_OK


def cmd_density(config: argparse.Namespace, out: Path) -> int:
    coeffs = _coefficients(config)
    if config.eps > 0:
        d = dn.invert_limit_density(coeffs, config.eps, config.r_points)
    else:
        d = dn.invert_to_density(coeffs, config.N, config.r_points)
    _write_csv(out / "characteristic.csv", ["rho", "value"],
               np.column_stack([d.rho_grid, d.characteristic]))
    _write_csv(out / "density.csv", ["r", "value"],
               np.column_stack([d.r_grid, d.values]))
    meta = {
        "order": d.order if d.error_budget is None else "limit",
        "n_used": d.order,
        "mass": d.mass,
        "support_radius": d.support_radius,
        "leakage": d.leakage,
        "error_budget": d.error_budget,
        "r_points": len(d.r_grid),
        "rho_points": len(d.rho_grid),
    }
    with open(out / "density_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    line_plot(out / "density.svg",
              [(f"M_{d.order}(r)", d.r_grid, d.values)],
              title="radial value-distribution density",
              xlabel="r", ylabel="M(r)")
    print(f"density at order {d.order}: mass {d.mass:.9f}, "
          f"support {d.support_radius:.6g}, leakage {d.leakage:.2e}")
    return EXIT_OK


def default_test_functions(support: float) -> list[TestFunction]:
    s = support
    return [
        TestFunction.rectangle(-0.5 * s, 0.5 * s, -0.5 * s, 0.5 * s),
        TestFunction.rectangle(-0.25 * s, 0.75 * s, 0.0, 0.6 * s),
        TestFunction.disc(0.0, 0.5 * s),
        TestFunction.disc(0.25 * s + 0.0j, s / 3.0),
        TestFunction.gaussian(0.0, s / 3.0),
        TestFunction.gaussian(-0.25 * s + 0.1j * s, s / 4.0),
        TestFunction.character(1.0 / s),
        TestFunction.character(4.0 / s),
    ]


def _ladder(config: argparse.Namespace, coeffs) -> tuple[list[float], bool]:
    x_min = em.min_average_length(coeffs)
    rungs = [config.X / 100.0, config.X / 10.0, config.X]
    usable = [x for x in rungs if x >= x_min]
    if not usable:
        raise RangeError(f"X={config.X} below the minimum usable average "
                         f"length {x_min:.1f}")
    return usable, len(usable) >= 2


def cmd_compare(config: argparse.Namespace, out: Path) -> int:
    coeffs = _coefficients(config)
    n = config.N
    dn.check_inversion_order(n)   # usage errors before the grid and samples
    ladder, trend_usable = _ladder(config, coeffs)
    phis = default_test_functions(dn.support_radius(coeffs, n))
    haar_means, _ = em.haar_oracle(coeffs, n, phis, config.samples,
                                   config.seed)
    d = dn.invert_to_density(coeffs, n, config.r_points)
    report = em.compare_report(coeffs, n, haar_means, d, phis,
                               x_ladder=ladder)
    header = (["phi", "density", "haar"]
              + [f"alpha_X{int(x)}" for x in ladder]
              + [f"disc_X{int(x)}" for x in ladder] + ["trend"])
    rows = []
    failures = []
    for row in report.rows:
        trend = ("ok" if row.trend_ok else "fail") if trend_usable \
            else "insufficient-X"
        rows.append([row.phi, row.density_value, row.haar_value,
                     *row.alpha_values, *row.discrepancies, trend])
        checks = {f"|alpha average - density| at X = {ladder[-1]:g}":
                  row.discrepancies[-1],
                  "|haar - density|": abs(row.haar_value - row.density_value)}
        failures += [f"{row.phi}: {name} is {value:.3e} > tol "
                     f"{COMPARE_TOLERANCE}" for name, value in checks.items()
                     if value > COMPARE_TOLERANCE]
        if trend == "fail":
            discs = ", ".join(f"{d:.3e}" for d in row.discrepancies)
            failures.append(f"{row.phi}: discrepancies [{discs}] over X = "
                            f"{ladder} rise by more than 2x above the floor "
                            f"{em.TREND_FLOOR}")
    _write_csv(out / "compare.csv", header, rows)
    for line in failures:
        print("compare FAILED for " + line)
    weyl_ok = _weyl_appendix(config, coeffs, out / "compare_weyl.csv", 10)
    failed = bool(failures) or not weyl_ok
    print(f"max discrepancy {report.max_discrepancy:.3e} "
          f"({'FAIL' if failed else 'pass'})")
    return EXIT_FAIL if failed else EXIT_OK


def _weyl_appendix(config: argparse.Namespace, coeffs, path: Path,
                   count: int) -> bool:
    """Check count random Weyl sums against their bounds; print failures."""
    n = config.N
    coeffs.check_order(n)
    # Entry m of row i is ((w >> 32) * 7 >> 32) - 3 for word w = i*n + m of
    # the seed's SplitMix64 stream: each of -3 .. 3 has probability 1/7 to
    # within a factor 1 +- 7/2^32.  Zero rows are dropped and the following
    # rows drawn in their place.
    vecs = np.empty((0, n), dtype=np.int64)
    word = 0
    while len(vecs) < count:
        more = count - len(vecs)
        draw = splitmix64(config.seed, word, word + more * n)
        word += more * n
        draw >>= 32
        draw *= 7
        draw >>= 32
        draw = draw.view(np.int64).reshape(more, n) - 3
        vecs = np.concatenate([vecs, draw[draw.any(axis=1)]])
    moduli = np.abs(em.weyl_test(coeffs, vecs, config.X))
    bounds = 2.0 / (config.X * np.abs(em.weyl_frequency(coeffs, vecs)))
    ok = moduli <= bounds * (1 + 1e-12)
    bad = []

    def rows():
        step = _per_block(128)   # a vector's CSV row as Python objects
        for lo in range(0, count, step):
            hi = lo + step
            for vec, modulus, bound, good in zip(
                    vecs[lo:hi].tolist(), moduli[lo:hi].tolist(),
                    bounds[lo:hi].tolist(), ok[lo:hi].tolist()):
                row = ["(" + " ".join(map(str, vec)) + ")", config.X,
                       modulus, bound, good]
                if not good:
                    bad.append(row)
                yield row

    _write_csv(path, ["n_vector", "X", "modulus", "bound", "ok"], rows())
    for vec, _, modulus, bound, _ in bad:
        print(f"Weyl bound FAILED for n = {vec}: modulus {modulus:.6e} "
              f"> bound {bound:.6e}")
    return not bad


def cmd_weyl(config: argparse.Namespace, out: Path) -> int:
    coeffs = _coefficients(config)
    ok = _weyl_appendix(config, coeffs, out / "weyl.csv", config.count)
    print(f"{config.count} Weyl vectors: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_goldbach(config: argparse.Namespace, out: Path) -> int:
    coeffs = _coefficients(config)
    coeffs.check_order(config.N)
    table = gb.sieve_lambda(config.x_max)
    lo = max(2, min(100, config.x_max // 2))
    grid = sorted(set(np.geomspace(lo, config.x_max, 257).astype(int)
                      .tolist()))
    # only A_2 at the grid is kept, never an x_max-long array
    rows = gb.compare_main_term(gb.a2_curve(table, grid), coeffs, config.N,
                                grid)
    _write_csv(out / "goldbach.csv",
               ["x", "a2", "main_term", "residual", "normalized_residual"],
               [(r["x"], r["a2"], r["main_term"], r["residual"],
                 r["normalized_residual"]) for r in rows])
    xs = np.array([r["x"] for r in rows], dtype=float)
    line_plot(out / "goldbach.svg",
              [("A2(x)", xs, [r["a2"] for r in rows]),
               ("main term", xs, [r["main_term"] for r in rows])],
              title="summatory Goldbach residue vs zero-sum main term",
              xlabel="x", ylabel="value")
    failed = False
    if config.x_max <= 2000:
        _, brute = gb.brute_force_sums(
            table, gb.singular_series_all(config.x_max))
        curve = gb.a2_curve(table, range(config.x_max + 1))
        mismatch = float(np.max(np.abs(brute - list(curve.values()))))
        bound = 1e-9 * (float(np.max(np.abs(brute))) or 1.0)
        bad = not mismatch <= bound
        print(f"brute-force cross-check: max |A2 - brute force| = "
              f"{mismatch:.3e} (bound {bound:.3e}) {'FAIL' if bad else 'pass'}")
        failed |= bad
    tail = [abs(r["normalized_residual"]) for r in rows if r["x"] >= 1000]
    worst = max(tail) if tail else 0.0
    bad = worst > NORMALIZED_RESIDUAL_BOUND
    print(f"max normalized residual (x >= 1000): {worst:.4f} "
          f"(bound {NORMALIZED_RESIDUAL_BOUND}) {'FAIL' if bad else 'pass'}")
    failed |= bad
    return EXIT_FAIL if failed else EXIT_OK


# ------------------------------------------------------------------- main

# Each command with the options it reads; --config and --print-config are
# common to all.
_COMMANDS = {
    "zeros-verify": (cmd_zeros_verify, ("zeros", "out", "tol")),
    "density": (cmd_density, ("zeros", "out", "N", "eps", "r_points")),
    "compare": (cmd_compare, ("zeros", "out", "N", "X", "samples", "seed",
                              "r_points")),
    "goldbach-validate": (cmd_goldbach, ("zeros", "out", "N", "x_max")),
    "weyl": (cmd_weyl, ("zeros", "out", "N", "X", "seed", "count")),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfun",
        description="value-distribution density of the summatory Goldbach "
                    "main term, with three-route verification")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, names) in _COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="file of 'key = value' lines, keys "
                                        "among this command's options")
        p.add_argument("--print-config", action="store_true",
                       help="print the resolved options and exit")
        for name in names:
            opt = _OPTIONS[name]
            p.add_argument("--" + _key(name), dest=name, type=opt.convert,
                           help=f"{opt.rule} (default {opt.default})")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    made = []   # the directories this run creates, deepest first
    try:
        config = _resolve(args)
        if args.print_config:
            for name, value in vars(config).items():
                print(f"{_key(name)} = {value}")
            return EXIT_OK
        out = Path(config.out)
        made = [p for p in (out, *out.parents) if not p.exists()]
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command][0](config, out)
    except (MfunError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a usage error leaves no empty directory behind
        for path in made:
            if not path.is_dir() or any(path.iterdir()):
                break
            path.rmdir()
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
