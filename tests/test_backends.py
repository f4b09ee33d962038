"""Parity between the compiled extension and the pure numpy fallback.

The pure side has no ``r2_convolve``: both backends share the FFT one in
``mfun.goldbach``, so the compiled kernel is checked against the direct
double-loop oracle of ``test_goldbach``.
"""

import numpy as np
import pytest
from test_goldbach import r2_direct

from mfun import _purepy
from mfun._backend import BACKEND

compiled = pytest.importorskip(
    "mfun._core", reason="compiled extension not built")


@pytest.fixture(scope="module")
def data(coeffs):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(123)))
    return {
        "c": coeffs.c[:20],
        "gamma": coeffs.gamma[:20],
        "beta": coeffs.beta[:20],
        "alpha": np.linspace(0.0, 30.0, 4001),
        "theta": 2.0 * np.pi * rng.random((500, 20)),
        "rho": np.linspace(0.0, 2e4, 3001),
        "r": np.linspace(0.0, 0.015, 301),
    }


def test_j0_parity(data):
    x = data["rho"] * data["c"][0]
    assert np.array_equal(compiled.j0_arr(x), _purepy.j0_arr(x))


def test_j1_parity(data):
    x = data["rho"] * data["c"][0]
    assert np.array_equal(compiled.j1_arr(x), _purepy.j1_arr(x))


def test_f_series_parity(data):
    a = compiled.f_series(data["alpha"], data["c"], data["gamma"],
                          data["beta"])
    b = _purepy.f_series(data["alpha"], data["c"], data["gamma"],
                         data["beta"])
    assert np.max(np.abs(a - b)) <= 1e-15


def test_phasor_sum_parity(data):
    a = compiled.phasor_sum(data["theta"], data["c"])
    b = _purepy.phasor_sum(data["theta"], data["c"])
    assert np.max(np.abs(a - b)) <= 1e-17


def test_char_prod_parity(data):
    a = compiled.char_prod(data["rho"], data["c"])
    b = _purepy.char_prod(data["rho"], data["c"])
    assert np.max(np.abs(a - b)) <= 1e-14


def test_hankel_sum_parity(data):
    w = np.exp(-data["rho"] / 5e3) * data["rho"]
    a = compiled.hankel_sum(data["r"], data["rho"], w)
    b = _purepy.hankel_sum(data["r"], data["rho"], w)
    scale = float(np.max(np.abs(b))) or 1.0
    assert np.max(np.abs(a - b)) <= 1e-12 * scale


def test_r2_convolve_parity():
    from mfun.goldbach import sieve_lambda
    table = sieve_lambda(5000)
    pp = np.flatnonzero(table.lam > 0).astype(np.int64)
    lam_pp = table.lam[pp]
    a = compiled.r2_convolve(pp, lam_pp, table.limit)
    b = r2_direct(pp, lam_pp, table.limit)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_backend_reports_compiled():
    # the extension imports, so the default backend must be the fast one
    assert BACKEND in ("compiled", "pure")
    import os
    if not os.environ.get("MFUN_PURE"):
        assert BACKEND == "compiled"
