"""Span tracer for the benchmark's traced passes.

The tracer wraps, from outside the package, the names that mfun's modules
actually call (``from ._backend import hankel_sum`` binds the kernel into
``mfun.density``, so it is ``mfun.density.hankel_sum`` that gets wrapped).
Every call of a wrapped name opens a span with a name, start, end, parent
and operation id; spans stay in memory until the pass ends.  Counts come
from the argument shapes, so they repeat exactly from run to run.

A target whose module or attribute no longer exists is reported as absent
instead of raising, so the benchmark still runs on commits that removed it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _r2_pairs(p, result) -> int:
    """Ordered pairs (l, m) of prime powers with l + m <= n_max."""
    pp = np.asarray(p["pp"], dtype=np.int64)
    return int(np.searchsorted(pp, p["n_max"] - pp, side="right").sum())


def _alpha_points(p, result) -> int:
    """Points of the trapezoid alpha grid: step 2*pi/(10*gamma_N) up to max X."""
    step = p.get("step") or 2.0 * math.pi / (10.0 * p["coeffs"].gamma[p["n"] - 1])
    return int(math.ceil(max(p["x_list"]) / step)) + 1


@dataclass(frozen=True)
class Target:
    module: str
    attr: str                   # dotted inside the module, e.g. "Cls.method"
    name: str                   # layer name, e.g. "kernel.hankel_sum"
    span: bool = True           # False: count calls only, no span
    counters: dict = field(default_factory=dict)   # key -> f(params, result)

    def metrics(self) -> list[str]:
        names = [f"{self.name}.calls"]
        if self.span:
            names.append(f"{self.name}.self_s")
        return names + [f"{self.name}.{key}" for key in self.counters]


TARGETS = (
    Target("mfun.density", "hankel_sum", "kernel.hankel_sum",
           counters={"j0_evals": lambda p, _: _size(p["r"]) * _size(p["rho"])}),
    Target("mfun.density", "char_prod", "kernel.char_prod",
           counters={"j0_evals": lambda p, _: _size(p["rho"]) * _size(p["c"])}),
    Target("mfun.density", "j1_arr", "kernel.j1_arr",
           counters={"evals": lambda p, _: _size(p["x"])}),
    Target("mfun.spectral", "f_series", "kernel.f_series",
           counters={"terms": lambda p, _: _size(p["alpha"]) * _size(p["c"])}),
    Target("mfun.empirical", "f_series", "kernel.f_series",
           counters={"terms": lambda p, _: _size(p["alpha"]) * _size(p["c"])}),
    Target("mfun.empirical", "phasor_sum", "kernel.phasor_sum",
           counters={"samples": lambda p, _: int(np.shape(p["theta"])[0])}),
    Target("mfun.goldbach", "r2_convolve", "kernel.r2_convolve",
           counters={"pairs": _r2_pairs}),
    Target("mfun.density", "default_rho_grid", "density.default_rho_grid",
           counters={"points": lambda _, grid: _size(grid)}),
    Target("mfun.density", "invert_to_density", "density.invert_to_density"),
    Target("mfun.density", "invert_limit_density",
           "density.invert_limit_density"),
    Target("mfun.density", "decay_envelope", "density.decay_envelope"),
    Target("mfun.empirical", "integrate_against", "density.integrate_against"),
    Target("mfun.empirical", "alpha_average_many",
           "empirical.alpha_average_many", counters={"points": _alpha_points}),
    Target("mfun.empirical", "haar_oracle", "empirical.haar_oracle"),
    Target("mfun.empirical", "compare_report", "empirical.compare_report"),
    Target("mfun.testfuncs", "TestFunction.__call__", "testfuncs.call",
           counters={"points": lambda p, _: _size(p["w"])}),
    Target("mfun.testfuncs", "TestFunction.angular_average",
           "testfuncs.angular_average"),
    Target("mfun.goldbach", "sieve_lambda", "goldbach.sieve_lambda"),
    Target("mfun.goldbach", "singular_series_all",
           "goldbach.singular_series_all"),
    Target("mfun.goldbach", "a2_curve", "goldbach.a2_curve"),
    Target("mfun.goldbach", "compare_main_term", "goldbach.compare_main_term"),
    Target("mfun.goldbach", "eval_f_N", "spectral.eval_f_N", span=False),
    Target("mfun.cli", "verify_table", "zeros.verify_table"),
    Target("mfun.zeros", "hardy_z", "zeros.hardy_z", span=False),
    Target("mfun.cli", "_write_csv", "output.csv",
           counters={"bytes": lambda p, _: os.path.getsize(p["path"])}),
    Target("mfun.cli", "line_plot", "output.svg"),
)


def _resolve(target: Target):
    """(owner, leaf attribute, function), or None when the name is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, leaf, None)
    return None if fn is None else (owner, leaf, fn)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        # span: [id, name, start, end, parent id or None, operation id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._op: str | None = None

    # -- installation -----------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists, for the rest of the process."""
        provided = set()
        for target in targets:
            found = _resolve(target)
            if found is None:
                continue
            owner, leaf, fn = found
            setattr(owner, leaf, self._wrap(target, fn))
            provided.update(target.metrics())
        expected = {m for t in targets for m in t.metrics()}
        self.absent |= expected - provided

    def _wrap(self, target: Target, fn):
        tracer = self
        calls = f"{target.name}.calls"
        counted_metrics = [f"{target.name}.{key}" for key in target.counters]
        sig = None
        if target.counters:
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):   # e.g. a compiled builtin
                self.absent.update(counted_metrics)

        def count(args, kwargs, result):
            try:
                params = sig.bind(*args, **kwargs).arguments
                for metric, counter in zip(counted_metrics,
                                           target.counters.values()):
                    tracer.counts[metric] += counter(params, result)
            except Exception:  # a changed signature: report, keep running
                tracer.absent.update(counted_metrics)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[calls] += 1
            with tracer.span(target.name) if target.span else nullcontext():
                result = fn(*args, **kwargs)
            if sig is not None:
                count(args, kwargs, result)
            return result
        return wrapper

    # -- spans ------------------------------------------------------------
    def operation(self, op_id: str):
        """Root span of one CLI operation; nested spans carry its id."""
        self._op = op_id
        return self.span(f"op.{op_id}")

    def span(self, name: str):
        return _Span(self, name)

    # -- reduction --------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Self time per span name plus every counter."""
        out = dict(self.counts)
        for name, value in self_times(self.spans).items():
            out[f"{name}.self_s"] = value
        return out


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        self.record = [len(tracer.spans), self.name, 0.0, 0.0,
                       stack[-1] if stack else None, tracer._op]
        tracer.spans.append(self.record)
        stack.append(self.record[0])
        self.record[2] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[3] = perf_counter()
        self.tracer._stack.pop()
        return False


def self_times(spans) -> dict[str, float]:
    """Sum per name of span duration minus the part its children cover."""
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return dict(out)


def nesting_violations(spans) -> list[str]:
    """Child spans that do not lie inside their parent's interval."""
    by_id = {s[0]: s for s in spans}
    bad = []
    for sid, name, start, end, parent, _ in spans:
        if parent is None:
            continue
        _, pname, pstart, pend, _, _ = by_id[parent]
        if not (pstart <= start <= end <= pend):
            bad.append(f"{name}#{sid} [{start}, {end}] outside "
                       f"{pname}#{parent} [{pstart}, {pend}]")
    return bad
