"""One working-set budget, ``_kernels._BLOCK_BYTES``, sizes every blocked
loop in mfun.  No output may depend on it: each blocked kernel, and each
output file formatted in blocks, gives the same bytes at the default
budget, at a tiny one (blocks of one or a few items), at an odd one
(block lengths that are no power of two) and at four times the default.
And the budget bounds memory: each blocked kernel's traced peak, beyond
its inputs, its output and a stream's chunk, stays within 3 budgets at
the default and at four times it.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest

import mfun.empirical as em
from mfun import _kernels
from mfun.cli import main
from mfun.density import invert_to_density
from mfun.empirical import alpha_average_many, haar_oracle
from mfun.goldbach import a2_curve, sieve_lambda
from mfun.testfuncs import TestFunction
from mfun.zeros import hardy_z

BUDGETS = [4000, 255_255, 4 * _kernels._BLOCK_BYTES]
S2_STEP = _kernels._per_block(8)   # a2_curve's S_2 block at the default


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
    # A_2 at 2e5 over 4 S_2 blocks, 2 of psi and up to 2 chain blocks: at
    # every x <= 1000 (many chains to a block), the goldbach-validate grid
    # and each S_2 block edge with its neighbours
    a2_grid = sorted({*range(1001), *range(S2_STEP - 1, 200_001, S2_STEP),
                      *range(S2_STEP, 200_001, S2_STEP),
                      *range(S2_STEP + 1, 200_001, S2_STEP),
                      *np.geomspace(100, 200_000, 257).astype(int).tolist()})
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
        "a2": repr(a2_curve(sieve_lambda(200_000), a2_grid)),
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


def _blocked_kernels(coeffs):
    """Every blocked kernel as {name: (call, bytes of it not counted)}, on
    inputs that span several blocks at four times the default budget.
    Only a stream route leaves bytes out of its count: its chunk."""
    n = 10
    c, g, b = coeffs.c[:n], coeffs.gamma[:n], coeffs.beta[:n]
    s = float(np.sum(c))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(30)))
    near = rng.uniform(-20.0, 20.0, 200_000)
    far = rng.uniform(20.0, 1e4, 200_000)
    wild = np.append(near, [1e30, -3e9])   # expi's fallback in one block
    alpha = rng.uniform(0.0, 1e4, 20_000)
    theta = rng.integers(0, 2 ** 24, (20_000, n))
    d10 = invert_to_density(coeffs, n, 4096)
    r, rho = d10.r_grid, d10.rho_grid
    weights = rho * d10.characteristic
    r_avg = np.linspace(0.0, 1.2 * s, 20_000)
    rect = TestFunction.rectangle(-0.3 * s, 0.2 * s, -0.1 * s, 0.4 * s)
    gauss = TestFunction.gaussian(0.1 * s + 0.2j * s, s / 3.0)
    char = TestFunction.character(4.0 / s)
    chunk = em._chunk_points()
    h = 2.0 * math.pi / (10.0 * g[-1])
    streams = [TestFunction.disc(0.0, 0.5 * s), gauss, char]
    return {
        "j0_near": (lambda: _kernels.j0_arr(near), 0),
        "j0_far": (lambda: _kernels.j0_arr(far), 0),
        "j1_near": (lambda: _kernels.j1_arr(near), 0),
        "j1_far": (lambda: _kernels.j1_arr(far), 0),
        "expi": (lambda: _kernels.expi(wild), 0),
        "f_series": (lambda: _kernels.f_series(alpha, c, g, b), 0),
        "phasor_sum": (lambda: _kernels.phasor_sum(theta, c), 0),
        "hankel_direct": (lambda: _kernels._hankel_direct(r, rho, weights),
                          0),
        "hankel_sum": (lambda: _kernels.hankel_sum(r, rho, weights), 0),
        "average_rectangle": (lambda: rect.angular_average(r_avg), 0),
        "average_gaussian": (lambda: gauss.angular_average(r_avg), 0),
        "average_character": (lambda: char.angular_average(r_avg), 0),
        "hardy_z": (lambda: hardy_z(np.append(np.linspace(10.0, 2000.0, 1000),
                                              2e4)), 0),
        "haar": (lambda: haar_oracle(coeffs, n, streams, 4 * chunk, seed=3),
                 16 * chunk),
        "alpha": (lambda: alpha_average_many(coeffs, n, streams,
                                             [2.25 * chunk * h,
                                              4.5 * chunk * h]),
                  16 * chunk),
    }


KERNELS = ["j0_near", "j0_far", "j1_near", "j1_far", "expi", "f_series",
           "phasor_sum", "hankel_direct", "hankel_sum", "average_rectangle",
           "average_gaussian", "average_character", "hardy_z", "haar",
           "alpha"]


@pytest.mark.parametrize("scale", [1, 4], ids=["default", "4x"])
@pytest.mark.parametrize("name", KERNELS)
def test_kernel_holds_three_budgets(coeffs, monkeypatch, name, scale):
    """A blocked kernel's traced peak, beyond its inputs, its output and
    a stream's chunk, stays within 3 budgets at the default budget and
    at four times it.  Counting 16 bytes per element in ``_bessel``, as
    it once did, took j0_arr's far field to 4.6 budgets.  A stream runs
    in one process here, so that tracemalloc sees all of it."""
    budget = scale * _kernels._BLOCK_BYTES
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", budget)
    monkeypatch.setattr(em, "_usable_cpus", lambda: 1)
    call, chunk = _blocked_kernels(coeffs)[name]
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = peak - getattr(out, "nbytes", 0) - chunk
    assert held <= 3 * budget, (name, held / budget)


@pytest.mark.parametrize("name", ["haar", "alpha"])
def test_split_parent_holds_its_reply(coeffs, monkeypatch, name):
    """Split between two processes, a stream's parent traces at most what
    the stream traces in one process plus one pipe buffer and 128 bytes
    per sum, total and point at the marks.  The parent folds its own half
    chunk by chunk, as one process does.  The child's reply, its block
    sums (a few KiB at these sizes) and its iterator's value, arrives
    once that half is done, below the peak of its chunks, and is freed
    before the marks' blocks are drawn again, as one process draws them."""
    call, _ = _blocked_kernels(coeffs)[name]
    peaks = []
    for cpus in (1, 2):
        monkeypatch.setattr(em, "_usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    chunk = em._chunk_points()
    assert em._split_point(4 * chunk) > 0
    streams, marks = 3, 3   # alpha's marks 0, X/2 and X; Haar's one
    values = streams * (marks + 1) + marks + 1   # sums, totals and points
    payload = io.DEFAULT_BUFFER_SIZE + 128 * values
    assert peaks[1] - peaks[0] <= payload, (peaks, payload)
