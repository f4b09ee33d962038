"""Benchmark of the mfun CLI: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json):
  analytic    density at N = 5 (--r-points 512), 10 and 25, then --eps 1
  compare     compare --N 10 --samples 2e6 --X 1e5 --seed <seed>
  arithmetic  zeros-verify, goldbach-validate --x-max 5e5, weyl --seed <seed>

A pass is one fresh Python process that imports ``mfun`` from ``src/`` of
this checkout and runs the workload's operations back to back through
``mfun.cli.main``.  Passes repeat until ``--seconds`` have gone by (at least
two, so that byte-identical reruns can be checked).  Every operation is
checked against perfbench/reference.json; a failed check or a digest that
differs between passes counts as a failed operation, and a pass with a
failed operation is not timed.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
(medians over passes): setup_s, wall_s and peak_rss_mb.  With ``--trace 1``
passes alternate untraced and traced, and the last line holds the
per-layer metrics; a metric whose function no longer exists in the package
reads 0 and is listed on the ``absent:`` line.  Failed operations over
attempted ones (ops_failed_frac) are the ``failed`` and ``attempted``
fields of the result.  A record of each run, with the environment and the
spans of the traced passes, goes to perfbench/runs/.

``--smoke`` runs the same operations at tiny sizes; selftest.py uses it.
BLAS and OpenMP pools are pinned to THREADS threads in every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import OP_NAMES, WORKLOADS, workload_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / "_work"
RUNS_DIR = HERE / "runs"

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
MIN_PASSES = 2
RUN_BUDGET_S = 170.0   # a run must end within 180 s


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _git_commit():
    if not (ROOT / ".git").exists():   # benchmark checkouts carry no history
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _spawn(args: list[str], result: Path, timeout: float) -> dict:
    """Run worker.py; its parsed result, or {"crashed": reason}."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--result", str(result), *args]
    try:
        done = subprocess.run(cmd, env=_child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass exceeded {timeout:.0f} s"}
    if done.returncode != 0 or not result.is_file():
        return {"crashed": f"worker exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}"}
    with open(result) as fh:
        return json.load(fh)


def _op_ok(op: dict) -> bool:
    return op["rc"] == 0 and not op["reasons"]


def _check_digests(passes: list[dict]) -> None:
    """Mark operations whose output bytes differ from the first pass."""
    first = {}
    for p in passes:
        for op in p.get("ops", ()):
            digest = op.get("digest")
            if digest is None:
                continue
            expected = first.setdefault(op["name"], digest)
            if digest != expected:
                op["reasons"].append("output differs from the first pass "
                                     "with the same seed")


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _wall(p: dict) -> float:
    return sum(op["seconds"] for op in p["ops"])


def _metrics(spec: dict, trace: bool, passes: list[dict],
             setups: list[float]) -> tuple[dict, list[str]]:
    good = [p for p in passes
            if "crashed" not in p and all(_op_ok(op) for op in p["ops"])]
    timed = good or [p for p in passes if "crashed" not in p]
    plain = [p for p in timed if not p["traced"]]
    values, absent = {}, set()
    if not trace:
        values["setup_s"] = _median(setups)
        values["wall_s"] = _median(_wall(p) for p in plain)
        values["peak_rss_mb"] = _median(p["rss_mb"] for p in plain)
        kind = "end_to_end"
    else:
        traced = [p for p in timed if p["traced"]]
        for p in traced:
            absent.update(p["absent"])
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                values[name] = (_median(_wall(p) for p in traced)
                                - _median(_wall(p) for p in plain))
            elif name.removesuffix("_s") in OP_NAMES:
                op = name.removesuffix("_s")
                values[name] = _median(o["seconds"] for p in plain
                                       for o in p["ops"] if o["name"] == op
                                       and _op_ok(o))
            else:
                values[name] = _median(p["layers"].get(name, 0)
                                       for p in traced)
        kind = "per_layer"
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in spec[kind]}
    return metrics, sorted(absent & set(metrics))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up probe (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mfun" / "cli.py").is_file():
        print(f"error: no mfun sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seed = args.seed % 2 ** 32
    trace = args.trace == 1
    ops = workload_ops(args.workload, seed, args.smoke)
    started = time.perf_counter()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - started)

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    setups, passes = [], []
    try:
        for k in range(1 if args.smoke else 3):
            probe = _spawn(["--setup-only"], work / f"probe{k}.json",
                           remaining())
            if "crashed" in probe:
                print(f"error: set-up probe failed: {probe['crashed']}",
                      file=sys.stderr)
                return 1
            setups.append(probe["setup_s"])
        env = probe["env"]
        loop_start = time.perf_counter()
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - loop_start < args.seconds):
            traced = trace and len(passes) % 2 == 1
            flags = ["--workload", args.workload, "--seed", str(seed),
                     "--work", str(work)]
            flags += ["--trace"] * traced + ["--smoke"] * args.smoke
            p = _spawn(flags, work / f"pass{len(passes)}.json", remaining())
            p["traced"] = traced
            passes.append(p)
            if "crashed" in p:
                print(f"error: {p['crashed']}", file=sys.stderr)
                break
            setups.append(p["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _check_digests(passes)
    attempted = sum(len(p["ops"]) if "ops" in p else len(ops) for p in passes)
    failed = sum(len(ops) if "crashed" in p
                 else sum(not _op_ok(op) for op in p["ops"]) for p in passes)
    metrics, absent = _metrics(spec, trace, passes, setups)

    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "config": [list(op.argv) for op in ops],
        "env": {**env, "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "threads": THREADS, "python": sys.version,
                "platform": platform.platform(), "git_commit": _git_commit()},
        "passes": passes, "metrics": metrics, "absent": absent,
    }
    RUNS_DIR.mkdir(exist_ok=True)
    tag = ("smoke-" if args.smoke else "") + f"{args.workload}-trace{args.trace}"
    with open(RUNS_DIR / f"{tag}.json", "w") as fh:
        json.dump(record, fh)

    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    for i, p in enumerate(passes):
        if "crashed" in p:
            print(f"pass {i}: crashed")
            continue
        print(f"pass {i}{' (traced)' if p['traced'] else ''}: "
              f"setup {p['setup_s']:.3f} s, wall {_wall(p):.3f} s, "
              f"rss {p['rss_mb']:.1f} MiB; " + ", ".join(
                  f"{op['name']} {op['seconds']:.3f} s" for op in p["ops"]))
        for op in p["ops"]:
            for reason in op["reasons"]:
                print(f"  FAILED {op['name']}: {reason}")
    print(f"ops_failed_frac: {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted})")
    if absent:
        print(f"absent: {' '.join(absent)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
