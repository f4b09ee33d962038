"""Torus sampling, alpha-averaging, Weyl sums and the comparison report."""

import math
import os
import signal

import numpy as np
import pytest

import mfun.empirical as em
from mfun import TestFunction, _kernels
from mfun.density import invert_to_density
from mfun._kernels import GRID_BLOCK, expi, f_grid_chunks, phasor_sum
from mfun.empirical import (
    ResonanceError,
    alpha_average_many,
    compare_report,
    haar_oracle,
    weyl_frequency,
    weyl_test,
)
from mfun.errors import RangeError
from mfun.spectral import build_coefficients, eval_f_N
from mfun.zeros import ZeroTable


def test_torus_map_identity_within_bound(coeffs):
    """f_N(alpha) equals the torus map sum c_m e^{i theta_m} (``phasor_sum``
    on one row) at angles theta_m = alpha gamma_m - beta_m, rounded to the
    nearest integer phase k_m in units of 2pi/2^24.

    Against sum_m c_m expi(2pi k_m/2^24), each part is within the terms'
    4u + 4u, the 2pi * 0.85u rounding of an angle and the products' and
    sums' 2 * N * u/2, all times s = sum c_m.  Against f_N(alpha) it is
    within s * pi/2^24, half a phase step per angle, and those roundings.
    """
    n = 12
    c = coeffs.c[:n]
    s = float(np.sum(c))
    u = 2.0 ** -53
    step = 2.0 * math.pi / 2 ** 24
    for alpha in (0.0, 1.0, 2.5, 17.3):
        angles = alpha * coeffs.gamma[:n] - coeffs.beta[:n]
        k = np.rint(angles / step).astype(np.int64) % 2 ** 24
        mapped = complex(phasor_sum(k[None, :], c)[0])
        table = complex(np.sum(c * expi(step * k)))
        tol = (8.0 + 2.0 * math.pi * 0.85 + n) * u * s
        assert abs(mapped.real - table.real) <= tol
        assert abs(mapped.imag - table.imag) <= tol
        direct = eval_f_N(coeffs, n, alpha)
        assert abs(direct - mapped) <= s * (math.pi / 2 ** 24 + 1e-12)


def test_haar_oracle_deterministic(coeffs):
    phis = [TestFunction.disc(0.0, 0.005), TestFunction.character(100.0)]
    a = haar_oracle(coeffs, 5, phis, 20000, seed=7)
    b = haar_oracle(coeffs, 5, phis, 20000, seed=7)
    assert a == b
    c = haar_oracle(coeffs, 5, phis, 20000, seed=8)
    assert a[0] != c[0]


def test_haar_oracle_sample_floor(coeffs):
    with pytest.raises(RangeError):
        haar_oracle(coeffs, 5, [TestFunction.one()], 100, seed=1)


def test_haar_phi_means_support(coeffs):
    n = 8
    means, max_abs = haar_oracle(coeffs, n, [TestFunction.one()],
                                 50000, seed=2)
    assert means[0] == pytest.approx(1.0)
    assert max_abs <= float(np.sum(coeffs.c[:n])) * (1 + 1e-12)


def test_reflection_symmetry(coeffs):
    """Conjugation symmetry of the Haar law.

    The law of the phasor sum is invariant under conjugation, so a
    rectangle and its mirror image in the real axis carry the same
    probability, to sampling noise.
    """
    n = 5
    samples = 200000
    s = float(np.sum(coeffs.c[:n]))
    rect = TestFunction.rectangle(-0.3 * s, 0.6 * s, 0.1 * s, 0.5 * s)
    mirror = TestFunction.rectangle(-0.3 * s, 0.6 * s, -0.5 * s, -0.1 * s)
    (p, q), _ = haar_oracle(coeffs, n, [rect, mirror], samples, seed=11)
    assert 0.0 < p < 1.0
    sigma = math.sqrt((p + q) / samples)   # Var(1_A - 1_B) <= p + q, A and B disjoint
    assert abs(p - q) <= 5.0 * sigma


def test_alpha_average_constant(coeffs):
    [[mean]] = alpha_average_many(coeffs, 5, [TestFunction.one()], [2000.0])
    assert mean == pytest.approx(1.0, rel=1e-12)


def test_alpha_average_matches_brute_trapezoid(coeffs):
    n = 5
    phi = TestFunction.gaussian(0.0, 0.004)
    x = 500.0
    [[got]] = alpha_average_many(coeffs, n, [phi], [x])
    limit = 2.0 * math.pi / (10.0 * coeffs.gamma[n - 1])
    pts = int(math.ceil(x / limit)) + 1
    grid = np.linspace(0.0, x, pts)
    v = phi(eval_f_N(coeffs, n, grid)).real
    # the trapezoid rule as numpy's trapezoid (numpy >= 2) writes it
    brute = float((np.diff(grid) * (v[1:] + v[:-1]) / 2.0).sum()) / x
    assert got == pytest.approx(brute, rel=1e-10)


def test_alpha_average_checkpoints_consistent(coeffs):
    n = 5
    phi = TestFunction.disc(0.0, 0.005)
    ladder = alpha_average_many(coeffs, n, [phi], [1000.0, 4000.0])[0]
    [[single]] = alpha_average_many(coeffs, n, [phi], [1000.0])
    assert ladder[0] == pytest.approx(single, rel=1e-9)


def test_haar_oracle_holds_block_draws(coeffs, monkeypatch):
    """The Haar route at N = 10 peaks within 6 chunk-sized complex arrays
    of traced memory over compare's eight test functions: its phases are
    drawn one phasor_sum step at a time, not as an N x chunk matrix per
    chunk (2^16 points at the default budget).  The stream runs in one
    process, so that tracemalloc sees all of it."""
    monkeypatch.setattr(em, "_usable_cpus", lambda: 1)
    import tracemalloc

    from mfun.cli import default_test_functions
    from mfun.density import support_radius
    n = 10
    phis = default_test_functions(support_radius(coeffs, n))
    chunk = em._chunk_points()
    samples = 4 * chunk + 1000
    tracemalloc.start()
    try:
        haar_oracle(coeffs, n, phis, samples, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * chunk * 16, peak


def test_streams_hold_about_one_chunk(coeffs, monkeypatch):
    """Peak traced memory of both routes stays within one chunk of
    complex points and 3 budgets.

    Each Phi runs on budget-sized slices of the chunk.  The runs cover at
    least four chunks, so a route that kept more than the current chunk
    alive, or ran a Phi on a whole chunk, fails: the Haar route took
    3.0 MiB and the alpha route 3.4 MiB that way, against the 2.5 MiB
    bound at the default budget.  The streams run in one process, so
    that tracemalloc sees all of them.
    """
    import tracemalloc

    monkeypatch.setattr(em, "_usable_cpus", lambda: 1)
    n = 10
    s = float(np.sum(coeffs.c[:n]))
    phis = [TestFunction.disc(0.0, 0.5 * s), TestFunction.character(4.0 / s)]
    samples = 1 << 21
    h = 2.0 * math.pi / (10.0 * coeffs.gamma[n - 1])
    chunk = em._chunk_points()
    x = 4.5 * chunk * h
    assert samples >= 4 * chunk
    budget = 16 * chunk + 3 * _kernels._BLOCK_BYTES
    tracemalloc.start()
    try:
        haar_oracle(coeffs, n, phis, samples, seed=4)
        haar_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        alpha_average_many(coeffs, n, phis, [x / 2.0, x])
        alpha_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert haar_peak <= budget, (haar_peak, budget)
    assert alpha_peak <= budget, (alpha_peak, budget)


def _split_stream(coeffs, n):
    """An alpha-route ladder at order n over more than three chunks, as
    (x_list, the stream's length and step, the marks of x_list): marks
    in both ranges, on the first and the last point of the block before
    the split and at the split."""
    chunk = em._chunk_points()
    step = em._alpha_grid_step(coeffs, n, 1e3)
    x_max = (3 * chunk + 5000) * step
    total = int(math.ceil(x_max / step)) + 1   # as alpha_average_many
    h = x_max / (total - 1)
    split = em._split_point(total)
    assert split % GRID_BLOCK == 0 and chunk < split < total - chunk
    marks = [4000, split - GRID_BLOCK, split - 1, split, split + 1,
             split + GRID_BLOCK - 1, total - 700, total - 1]
    x_list = [k * h for k in marks[:-1]] + [x_max]
    assert [min(round(x / h), total - 1) for x in x_list] == marks
    return x_list, total, h, marks


def test_streams_independent_of_the_split(coeffs, monkeypatch):
    """Both routes give bit for bit the same means, max |S_N|, sums and
    points at the marks whether a forked child sums the second half of
    each stream or this process sums it all: the child sends back its
    block sums, and this process folds them from its own sums at the
    split in the same order.  The stream is also summed at a mark every
    13 points, so that the child's reply outgrows a 64 KiB pipe buffer
    and the child waits in its write until this process reads it."""
    n = 5
    s = float(np.sum(coeffs.c[:n]))
    phis = [TestFunction.disc(0.0, 0.5 * s), TestFunction.character(4.0 / s)]
    samples = 3 * em._chunk_points() + 1000
    x_list, total, h, marks = _split_stream(coeffs, n)
    c, g, b = coeffs.c[:n], coeffs.gamma[:n], coeffs.beta[:n]
    dense = list(range(0, total, 13))
    # 16 bytes at least for each of the child's points
    assert 16 * sum(k >= em._split_point(total) for k in dense) > 1 << 16

    def chunks(lo, hi):
        return f_grid_chunks(lo, hi, em._chunk_points(), h, c, g, b)

    def runs(ranges):
        streams = []
        for at in ([0, *marks], dense):
            sums, points, values = em._stream_sums(chunks, total, phis, at)
            assert len(values) == ranges
            streams.append(([x.tolist() for x in sums], points.tolist()))
        return (haar_oracle(coeffs, n, phis, samples, seed=6),
                alpha_average_many(coeffs, n, phis, x_list),
                *streams[0], streams[1])
    assert em._split_point(samples) > 0
    split = runs(2)
    monkeypatch.setattr(em, "_usable_cpus", lambda: 1)
    whole = runs(1)
    assert split == whole
    (means, peak), _, sums, points, _ = whole
    assert isinstance(peak, float) and len(means) == 2
    assert len(points) == len(marks) + 1 and len(sums[1]) == len(marks) + 1


class ChildFault(Exception):
    """Raised by a test function in one process only."""


@pytest.mark.parametrize("where", ["child", "parent", "killed"])
def test_split_failure_reaps_the_child(coeffs, where):
    """A Phi that raises only in the forked child, or only in the parent,
    raises its exception in the caller; one that kills the child, which
    then never replies, raises RuntimeError.  No child is left behind."""
    parent = os.getpid()

    def phi(w):
        if where == "killed":
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
        elif (os.getpid() == parent) == (where == "parent"):
            raise ChildFault(f"raised in the {where}")
        return np.abs(w)
    samples = 3 * em._chunk_points() + 1000
    assert em._split_point(samples) > 0
    error, match = ((RuntimeError, "ended without a reply")
                    if where == "killed" else (ChildFault, where))
    with pytest.raises(error, match=match):
        haar_oracle(coeffs, 5, [phi], samples, seed=1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_falls_back_without_fork(coeffs, monkeypatch):
    """Where os.fork or os.pipe fails the stream runs in this process,
    with the same means, and no pipe is left open."""
    phis = [TestFunction.disc(0.0, 0.005), TestFunction.character(100.0)]
    samples = 3 * em._chunk_points() + 1000
    want = haar_oracle(coeffs, 5, phis, samples, seed=2)
    fds = len(os.listdir("/proc/self/fd"))

    def fails(*args):
        raise OSError("no more processes")
    for name in ("fork", "pipe"):
        with monkeypatch.context() as m:
            m.setattr(os, name, fails)
            assert haar_oracle(coeffs, 5, phis, samples, seed=2) == want
        assert len(os.listdir("/proc/self/fd")) == fds


def test_f_N_holds_one_block_of_phases(coeffs):
    """f_N at many points builds its phases one cache block at a time.

    The peak traced memory of eval_f_N on 2^16 points at N = 100 stays
    within 8 MiB: the 1 MiB result plus a block's working set, where an
    N x n phase matrix alone is 50 MiB.
    """
    import tracemalloc

    alphas = np.linspace(1.0, 15.0, 1 << 16)
    tracemalloc.start()
    try:
        eval_f_N(coeffs, 100, alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, peak


def test_routes_share_the_type_rule(coeffs):
    """Both routes give float means for a real Phi, complex for a complex one.

    character(0) is identically 1 + 0j, and its means stay complex.
    """
    phis = [TestFunction.disc(0.0, 0.005), TestFunction.character(0.0)]
    haar, _ = haar_oracle(coeffs, 5, phis, 20000, seed=1)
    (alpha,), (flat,) = alpha_average_many(coeffs, 5, phis, [1000.0])
    for disc, character in ((haar[0], haar[1]), (alpha, flat)):
        assert type(disc) is float
        assert type(character) is complex
        assert character == 1.0


def test_alpha_average_guards(coeffs):
    with pytest.raises(RangeError):
        alpha_average_many(coeffs, 5, [TestFunction.one()], [10.0])   # X too short


def test_weyl_bound_exact(coeffs):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(42)))
    x = 1e4
    for _ in range(20):
        vec = rng.integers(-3, 4, size=8)
        if not np.any(vec):
            continue
        val = weyl_test(coeffs, vec.astype(float), x)
        omega = float(np.dot(vec, coeffs.gamma[:8]))
        assert abs(val) <= 2.0 / (x * abs(omega)) * (1 + 1e-12)


def test_weyl_closed_form_value(coeffs):
    vec = np.array([1.0])
    x = 100.0
    omega = coeffs.gamma[0]
    beta = coeffs.beta[0]
    want = (np.exp(-1j * beta)
            * (np.exp(1j * x * omega) - 1.0) / (1j * x * omega))
    assert weyl_test(coeffs, vec, x) == pytest.approx(complex(want), rel=1e-14)


def test_weyl_rejects_zero_vector(coeffs):
    with pytest.raises(ValueError):
        weyl_test(coeffs, np.zeros(5), 1e4)


def test_weyl_resonance_guard(coeffs):
    """A synthetic table with a rational relation trips the resonance floor."""
    g = 14.134725141734694
    synthetic = build_coefficients(
        ZeroTable(np.array([g, 2.0 * g + 1e-14]), "synthetic"))
    with pytest.raises(ResonanceError):
        weyl_test(synthetic, np.array([2.0, -1.0]), 1e4)


def test_weyl_batch_rows_are_single_calls(coeffs):
    """A 2-D call gives each row bit for bit what a 1-D call on that row
    gives, in any batch: n.gamma and n.beta are summed in ascending m, with
    no BLAS reduction, and e^{it} is elementwise."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(9)))
    vecs = rng.integers(-3, 4, size=(300, 10))
    vecs = vecs[vecs.any(axis=1)].astype(float)
    whole = weyl_test(coeffs, vecs, 1e4)
    assert whole.shape == (len(vecs),)
    singles = [weyl_test(coeffs, v, 1e4) for v in vecs]
    assert whole.tolist() == singles
    for lo, hi in ((0, 1), (7, 8), (3, 40), (250, len(vecs))):
        assert weyl_test(coeffs, vecs[lo:hi], 1e4).tolist() == singles[lo:hi]
    omega = weyl_frequency(coeffs, vecs)
    assert omega.tolist() == [weyl_frequency(coeffs, v) for v in vecs]
    assert np.allclose(omega, vecs @ coeffs.gamma[:10], rtol=0, atol=1e-12)


def test_weyl_batch_rejects_any_zero_row(coeffs):
    vecs = np.ones((4, 5))
    vecs[2] = 0.0
    with pytest.raises(ValueError):
        weyl_test(coeffs, vecs, 1e4)
    with pytest.raises(RangeError):
        weyl_test(coeffs, np.ones((3, len(coeffs) + 1)), 1e4)


def test_compare_report_small(coeffs):
    n = 6
    d = invert_to_density(coeffs, n, 1024)
    phis = [TestFunction.disc(0.0, 0.006), TestFunction.character(100.0)]
    means, _ = haar_oracle(coeffs, n, phis, 100000, seed=5)
    report = compare_report(coeffs, n, means, d, phis,
                            x_ladder=(500.0, 5000.0))
    assert len(report.rows) == 2
    assert report.max_discrepancy <= 1e-2
    for row in report.rows:
        assert abs(row.haar_value - row.density_value) <= 1e-2


def test_compare_report_order_mismatch(coeffs):
    n = 6
    d = invert_to_density(coeffs, n, 512)
    phis = [TestFunction.one()]
    means, _ = haar_oracle(coeffs, 5, phis, 20000, seed=5)   # different order
    with pytest.raises(RangeError):
        compare_report(coeffs, 5, means, d, phis, x_ladder=(500.0, 1000.0))
