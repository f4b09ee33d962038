"""Regenerate perfbench/reference.json from the package in src/.

    python3 perfbench/make_reference.py

Runs every checked operation of every workload (full and smoke sizes)
once and stores what workloads.check_output compares against: a
257-point subsample of each density with its chosen order, A_2 on the
goldbach-validate grid, and the number of verified zero ordinates.
Regenerate only when a workload's configuration changes, never to make a
changed result pass.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import (REFERENCE_PATH, WORKLOADS, reference_key,  # noqa: E402
                       summarize_output, workload_ops)


def main() -> int:
    import mfun.cli as cli
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for smoke in (False, True):
            for workload in WORKLOADS:
                for op in workload_ops(workload, seed=1, smoke=smoke):
                    if op.check == "exit0":
                        continue
                    out = Path(tmp) / reference_key(op, smoke)
                    rc = cli.main([*op.argv, "--out", str(out)])
                    if rc != 0:
                        print(f"error: {' '.join(op.argv)} exited {rc}",
                              file=sys.stderr)
                        return 1
                    reference[reference_key(op, smoke)] = {
                        "argv": list(op.argv), **summarize_output(op, out)}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} references to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
