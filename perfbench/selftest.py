"""Smoke-mode self-test of the benchmark, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload it runs run.py --smoke untraced (seed 2) and traced
twice (seed 1), and checks that:
  - each run is correct and prints exactly the metrics named in
    BENCHMARK.json, each with its unit;
  - every child span lies inside its parent's interval;
  - counts repeat exactly across the two traced runs;
  - kernel.hankel_sum.j0_evals equals the sum of r_points * rho_points
    over the density_meta.json files of the traced pass.
It also checks that run.py fails without a result in a directory that
holds only BENCHMARK.json and perfbench/.  Exits 1 on any failure.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from tracer import nesting_violations
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(workload: str, seed: int, trace: int, problems: list[str]):
    done = _run(workload, seed, trace)
    lines = done.stdout.strip().splitlines()
    where = f"{workload} seed {seed} trace {trace}"
    if done.returncode != 0 or not lines:
        problems.append(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
        return None, None
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct: " + "\n".join(lines[:-1]))
    with open(HERE / "runs" / f"smoke-{workload}-trace{trace}.json") as fh:
        record = json.load(fh)
    return result, record


def _check_metrics(where, metrics, declared, problems):
    if list(metrics) != [m["name"] for m in declared]:
        problems.append(f"{where}: printed {sorted(metrics)}, declared "
                        f"{sorted(m['name'] for m in declared)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"] \
                or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {m['name']} printed as {got}")


def _check_trace(workload, record, problems):
    for p in record["passes"]:
        if not p.get("traced"):
            continue
        for bad in nesting_violations(p["spans"]):
            problems.append(f"{workload}: span {bad}")
        if workload != "analytic" or "kernel.hankel_sum.j0_evals" in p["absent"]:
            continue
        expected = sum(op["meta"]["r_points"] * op["meta"]["rho_points"]
                       for op in p["ops"] if "meta" in op)
        got = p["layers"].get("kernel.hankel_sum.j0_evals")
        if got != expected:
            problems.append(f"{workload}: hankel_sum.j0_evals {got}, "
                            f"density_meta.json gives {expected}")


def _check_bare_directory(problems):
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "runs",
                                                      "__pycache__"))
        done = _run("analytic", 1, 0, cwd=bare)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append("run.py printed a result without the sources")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in
              ("count", "bytes")]
    problems = []
    for workload in WORKLOADS:
        result, _ = _result(workload, 2, 0, problems)
        if result:
            _check_metrics(f"{workload} trace 0", result["metrics"],
                           spec["end_to_end"], problems)
        first, record = _result(workload, 1, 1, problems)
        again, _ = _result(workload, 1, 1, problems)
        if not (first and again):
            continue
        _check_metrics(f"{workload} trace 1", first["metrics"],
                       spec["per_layer"], problems)
        _check_trace(workload, record, problems)
        for name in counts:
            a, b = (r["metrics"][name]["value"] for r in (first, again))
            if a != b:
                problems.append(f"{workload}: count {name} {a} then {b}")
        print(f"{workload}: checked")
    (HERE / "_work").mkdir(exist_ok=True)
    _check_bare_directory(problems)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
