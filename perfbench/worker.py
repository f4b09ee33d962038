"""One pass of a benchmark workload, in a fresh interpreter.

Started by run.py; not meant to be run by hand.  The process times its own
set-up (``import mfun.cli`` plus building the bundled coefficient table),
then, unless ``--setup-only`` is given, runs the workload's CLI operations
back to back through ``mfun.cli.main``, checks each output against the
stored reference, and writes one JSON result file.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _setup():
    import mfun.cli  # noqa: F401
    from mfun import build_coefficients, bundled_zeros_path, load_zeros
    build_coefficients(load_zeros(bundled_zeros_path()))
    return time.perf_counter() - T0


def _environment() -> dict:
    import os

    import mfun
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "mfun_backend": getattr(mfun, "BACKEND", None),
        "mfun_file": mfun.__file__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                           "openblas configuration")},
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS")
                       or k == "VECLIB_MAXIMUM_THREADS"},
    }


def _run_op(cli, op, out: Path, tracer):
    import contextlib
    import io
    import traceback
    buf = io.StringIO()
    argv = [*op.argv, "--out", str(out)]
    scope = tracer.operation(op.name) if tracer else contextlib.nullcontext()
    error = None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        start = time.perf_counter()
        try:
            with scope:
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an internal bug fails this operation only
            rc, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
    return rc, seconds, buf.getvalue().strip(), error


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work")
    args = parser.parse_args(argv)

    setup_s = _setup()
    import json
    import resource
    import shutil

    import mfun
    src = (Path(args.root) / "src").resolve()
    if src not in Path(mfun.__file__).resolve().parents:
        print(f"error: imported mfun from {mfun.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    result = {"setup_s": setup_s, "env": _environment()}
    if not args.setup_only:
        import mfun.cli as cli
        from tracer import Tracer
        from workloads import (check_output, file_digest, load_reference,
                               reference_key, workload_ops)
        reference = load_reference()
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        ops = []
        for op in workload_ops(args.workload, args.seed, args.smoke):
            out = Path(args.work) / op.name
            shutil.rmtree(out, ignore_errors=True)
            rc, seconds, message, error = _run_op(cli, op, out, tracer)
            record = {"name": op.name, "argv": list(op.argv), "rc": rc,
                      "seconds": seconds, "message": message[-500:]}
            if error:
                record["reasons"] = [error]
            else:
                try:
                    record["reasons"] = check_output(
                        op, rc, out, reference.get(reference_key(op, args.smoke)))
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    record["reasons"] = [f"output check failed: {exc!r}"]
            if op.digest and (out / op.digest).is_file():
                record["digest"] = file_digest(out / op.digest)
            if (out / "density_meta.json").is_file():
                record["meta"] = json.loads(
                    (out / "density_meta.json").read_text())
            ops.append(record)
            shutil.rmtree(out, ignore_errors=True)
        if tracer:
            result["layers"] = tracer.layer_metrics()
            result["absent"] = sorted(tracer.absent)
            result["spans"] = tracer.spans
        result["ops"] = ops
        result["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
