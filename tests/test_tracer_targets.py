"""The benchmark tracer still finds every ``mfun.density`` name it wraps.

A target the tracer cannot resolve reads 0 and is only listed as absent,
so a renamed density function would silently drop its per-layer metrics.
The tracer module is loaded from its file and nothing is installed.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_density_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    targets = [t for t in tracer.TARGETS if t.module == "mfun.density"]
    assert targets
    assert [t.attr for t in targets if tracer._resolve(t) is None] == []
