"""The benchmark tracer still finds every name it wraps in the modules
below.

A target the tracer cannot resolve reads 0 and is only listed as absent,
so a renamed function (``singular_series_all``, ``hardy_z``,
``verify_table``, a density kernel, ``phasor_sum``, a test-function
method) would silently drop its per-layer metrics.  The tracer module is loaded from its file, read and not changed,
and nothing is installed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def unresolved(tracer, module):
    """The attributes of `module` that the tracer wraps but cannot find."""
    targets = [t for t in tracer.TARGETS if t.module == module]
    assert targets
    return [t.attr for t in targets if tracer._resolve(t) is None]


def test_density_targets_resolve(tracer):
    # the tracer still lists decay_envelope, but density no longer has it
    assert unresolved(tracer, "mfun.density") == ["decay_envelope"]


@pytest.mark.parametrize("module, absent", [
    # the tracer still lists r2_convolve, but A_2 no longer forms r_2
    ("mfun.goldbach", ["r2_convolve"]),
    ("mfun.zeros", []),
    ("mfun.cli", []),
], ids=["mfun.goldbach", "mfun.zeros", "mfun.cli"])
def test_arithmetic_targets_resolve(tracer, module, absent):
    assert unresolved(tracer, module) == absent


@pytest.mark.parametrize("module, absent", [
    ("mfun.spectral", []),
    # the tracer still lists f_series here, but empirical no longer calls it
    ("mfun.empirical", ["f_series"]),
    ("mfun.testfuncs", []),
])
def test_compare_targets_resolve(tracer, module, absent):
    assert unresolved(tracer, module) == absent
