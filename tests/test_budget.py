"""One working-set budget, ``_kernels._BLOCK_BYTES``, sizes every blocked
loop in mfun.  No output may depend on it: each blocked kernel, and each
output file formatted in blocks, gives the same bytes at the default
budget, at a tiny one (blocks of one or a few items), at an odd one
(block lengths that are no power of two) and at four times the default.
"""

import math

import numpy as np
import pytest

from mfun import _kernels
from mfun.cli import main
from mfun.density import invert_to_density
from mfun.empirical import alpha_average_many, haar_oracle
from mfun.goldbach import a2_curve, sieve_lambda
from mfun.testfuncs import TestFunction
from mfun.zeros import hardy_z

BUDGETS = [4000, 255_255, 4 * _kernels._BLOCK_BYTES]


def _outputs(coeffs, out):
    """Every blocked loop, on inputs that span several of its blocks at the
    default budget, as {name: bytes}."""
    n = 10
    c, g, b = coeffs.c[:n], coeffs.gamma[:n], coeffs.beta[:n]
    s = float(np.sum(c))
    phis = [TestFunction.rectangle(-0.3 * s, 0.2 * s, -0.1 * s, 0.4 * s),
            TestFunction.gaussian(0.1 * s + 0.2j * s, s / 3.0),
            TestFunction.character(4.0 / s)]
    rng = np.random.Generator(np.random.Philox(key=np.uint64(29)))
    x = rng.uniform(-60.0, 60.0, 40_000)
    wild = x.copy()
    wild[[5, 9000]] = [np.inf, 1e30]   # expi's fallback inside a block
    alpha = rng.uniform(0.0, 1e4, 3000)
    theta = rng.integers(0, 2 ** 24, (3000, n))
    h = 2.0 * math.pi / (10.0 * g[-1])
    # marks inside a block, at either side of a chunk edge at the tiny and
    # at the default budget, and at the partial last block
    k, x_max = _kernels.GRID_BLOCK, 3000.0
    step = x_max / math.ceil(x_max / h)
    ladder = [137.0, *(j * step for j in (4 * k - 1, 4 * k, 2 ** 16 - 1,
                                          2 ** 16)), x_max]
    d10 = invert_to_density(coeffs, n, 300)
    r, rho = d10.r_grid, d10.rho_grid
    weights = rho * d10.characteristic
    r_avg = np.linspace(0.0, 1.2 * s, 3000)
    with np.errstate(invalid="ignore"):
        got = {"expi": _kernels.expi(wild).tobytes()}
    got |= {
        "j0": _kernels.j0_arr(x).tobytes(),
        "j1": _kernels.j1_arr(x).tobytes(),
        "f_series": _kernels.f_series(alpha, c, g, b).tobytes(),
        "phasor_sum": _kernels.phasor_sum(theta, c).tobytes(),
        "f_grid": np.concatenate(list(_kernels.f_grid_chunks(
            5, 60_000, 20_000, h, c, g, b))).tobytes(),
        "hankel_direct": _kernels._hankel_direct(r, rho, weights).tobytes(),
        "hankel_sum": _kernels.hankel_sum(r, rho, weights).tobytes(),
        # order 5: 13,570 nodes, far blocks folded past L = 1,022 columns
        "density_n5": invert_to_density(coeffs, 5, 512).values.tobytes(),
        "haar": repr(haar_oracle(coeffs, n, phis, 70_000, seed=3)),
        "alpha": repr(alpha_average_many(coeffs, n, phis, ladder)),
        "averages": b"".join(np.asarray(phi.angular_average(r_avg)).tobytes()
                             for phi in phis),
        "a2": repr(a2_curve(sieve_lambda(20_000), range(20_001))),
        "hardy_z": hardy_z(np.append(np.linspace(10.0, 300.0, 150),
                                     [1000.3, 1419.4])).tobytes(),
    }
    for args in (["density", "--N", "10", "--r-points", "4200"],
                 ["weyl", "--count", "5000", "--X", "1e4"]):
        assert main([*args, "--out", str(out)]) == 0
    for name in ("density.csv", "density.svg", "characteristic.csv",
                 "weyl.csv"):
        got[name] = (out / name).read_bytes()
    return got


@pytest.fixture(scope="module")
def default_outputs(coeffs, tmp_path_factory):
    return _outputs(coeffs, tmp_path_factory.mktemp("default"))


@pytest.mark.parametrize("budget", BUDGETS, ids=["tiny", "odd", "4x"])
def test_outputs_independent_of_block_budget(coeffs, default_outputs,
                                             monkeypatch, tmp_path, budget):
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", budget)
    got = _outputs(coeffs, tmp_path)
    assert got.keys() == default_outputs.keys()
    for name, want in default_outputs.items():
        assert got[name] == want, name
