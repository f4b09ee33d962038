"""Workloads of the mfun benchmark and the checks on their outputs.

Each workload is a fixed list of CLI operations that one fresh Python
process runs back to back through ``mfun.cli.main`` (a closed loop with
one client).  The smoke configurations run the same operations at tiny
sizes for the self-test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Tolerances of the acceptance gate (tests/test_acceptance.py).
MASS_TOL = 1e-6        # |mass - 1|
DENSITY_TOL = 1e-4     # sup |M - M_ref| as a share of the reference peak
A2_RTOL = 1e-9         # sup |A_2 - A_2,ref| as a share of max |A_2,ref|


@dataclass(frozen=True)
class Op:
    """One CLI operation: ``mfun <argv> --out DIR``."""
    name: str               # metric stem, e.g. "density_n5" -> density_n5_s
    argv: tuple[str, ...]
    check: str              # "density", "goldbach", "zeros" or "exit0"
    digest: str | None      # output that must be byte-identical across passes


# name, argv ("{seed}" is replaced by the workload seed), check, digest
_FULL = {
    "analytic": [
        ("density_n5", "density --N 5 --r-points 512", "density", "density.csv"),
        ("density_n10", "density --N 10", "density", "density.csv"),
        ("density_n25", "density --N 25", "density", "density.csv"),
        ("density_eps1", "density --eps 1", "density", "density.csv"),
    ],
    "compare": [
        ("compare", "compare --N 10 --samples 2000000 --X 1e5 --seed {seed}",
         "exit0", "compare.csv"),
    ],
    "arithmetic": [
        ("zeros_verify", "zeros-verify", "zeros", None),
        ("goldbach_validate", "goldbach-validate --x-max 500000 --N 100",
         "goldbach", "goldbach.csv"),
        ("weyl", "weyl --X 1e4 --count 50 --seed {seed}", "exit0", None),
    ],
}

_SMOKE = {
    "analytic": [
        ("density_n10", "density --N 10 --r-points 128", "density", "density.csv"),
        ("density_n25", "density --N 25 --r-points 128", "density", "density.csv"),
    ],
    "compare": [
        ("compare", "compare --N 10 --samples 20000 --X 1e4 --r-points 512 "
         "--seed {seed}",
         "exit0", "compare.csv"),
    ],
    "arithmetic": [
        ("zeros_verify", "zeros-verify", "zeros", None),
        ("goldbach_validate", "goldbach-validate --x-max 20000 --N 100",
         "goldbach", "goldbach.csv"),
        ("weyl", "weyl --X 1e4 --count 10 --seed {seed}", "exit0", None),
    ],
}

WORKLOADS = tuple(_FULL)
OP_NAMES = frozenset(name for ops in _FULL.values() for name, *_ in ops)


def workload_ops(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    table = _SMOKE if smoke else _FULL
    return [Op(name, tuple(argv.format(seed=seed).split()), check, digest)
            for name, argv, check, digest in table[workload]]


def reference_key(op: Op, smoke: bool) -> str:
    return ("smoke/" if smoke else "") + op.name


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_csv(path: Path):
    import numpy as np
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      dtype=np.float64)
    return {name: data[:, i] for i, name in enumerate(header)}


def _read_zeros_report(path: Path) -> list[bool]:
    with open(path) as fh:
        fh.readline()
        return [line.split(",")[2] == "true" for line in fh if line.strip()]


def summarize_output(op: Op, out: Path) -> dict:
    """What the reference stores for an operation (see make_reference.py)."""
    import numpy as np
    if op.check == "density":
        meta = json.loads((out / "density_meta.json").read_text())
        cols = _read_csv(out / "density.csv")
        stride = max(1, (len(cols["r"]) - 1) // 256)
        return {"n_used": meta["n_used"],
                "r": cols["r"][::stride].tolist(),
                "value": cols["value"][::stride].tolist()}
    if op.check == "goldbach":
        cols = _read_csv(out / "goldbach.csv")
        return {"x": cols["x"].astype(np.int64).tolist(),
                "a2": cols["a2"].tolist()}
    if op.check == "zeros":
        return {"count": len(_read_zeros_report(out / "zeros_report.csv"))}
    return {}


def check_output(op: Op, rc: int, out: Path, ref: dict | None) -> list[str]:
    """Reasons the operation failed its check; empty when it passed."""
    import numpy as np
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    if op.check == "exit0":
        return []
    if ref is None or tuple(ref.get("argv", ())) != op.argv:
        return [f"no stored reference for {' '.join(op.argv)!r}; "
                "regenerate it with perfbench/make_reference.py"]
    problems = []
    if op.check == "density":
        meta = json.loads((out / "density_meta.json").read_text())
        if abs(meta["mass"] - 1.0) > MASS_TOL:
            problems.append(f"mass {meta['mass']!r} not within {MASS_TOL} of 1")
        if meta["n_used"] != ref["n_used"]:
            problems.append(f"order {meta['n_used']}, expected {ref['n_used']}")
        cols = _read_csv(out / "density.csv")
        ref_v = np.asarray(ref["value"])
        got = np.interp(ref["r"], cols["r"], cols["value"])
        gap = float(np.max(np.abs(got - ref_v))) / float(np.max(ref_v))
        if not gap <= DENSITY_TOL:
            problems.append(f"density off the reference by {gap:.3e} of peak "
                            f"(bound {DENSITY_TOL})")
    elif op.check == "goldbach":
        cols = _read_csv(out / "goldbach.csv")
        if cols["x"].astype(np.int64).tolist() != ref["x"]:
            problems.append("goldbach.csv grid differs from the reference")
        else:
            ref_a2 = np.asarray(ref["a2"])
            gap = float(np.max(np.abs(cols["a2"] - ref_a2)
                               / np.max(np.abs(ref_a2))))
            if not gap <= A2_RTOL:
                problems.append(f"A_2 off the reference by {gap:.3e} relative "
                                f"(bound {A2_RTOL})")
    elif op.check == "zeros":
        flags = _read_zeros_report(out / "zeros_report.csv")
        if len(flags) != ref["count"] or not all(flags):
            problems.append(f"{sum(flags)} of {len(flags)} ordinates verified, "
                            f"expected all {ref['count']}")
    return problems


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
