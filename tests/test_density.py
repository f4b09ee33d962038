"""Characteristic products, Hankel inversion and angular convolution.

Oracle for the per-circle characteristic function: direct trapezoid
quadrature of the defining angular integral (independent of the Bessel
implementation); J0's first root 2.404825557695773 pins the scale.
"""

import dataclasses
import math

import numpy as np
import pytest

import mfun.density
from mfun import TestFunction, _kernels
from mfun._kernels import j0_arr
from mfun.density import (
    ENVELOPE_CUTOFF,
    _envelope_cutoff_rho,
    _envelope_pieces,
    _j0_zeros,
    _limit_error_budget,
    _radial_integral,
    _spline,
    char_M_N,
    convolve_step,
    integrate_against,
    invert_limit_density,
    invert_to_density,
    support_radius,
)
from mfun.errors import PrecisionError, QuadratureError, RangeError
from mfun.spectral import build_coefficients, tail_bound
from mfun.zeros import ZeroTable

J0_FIRST_ROOT = 2.404825557695773


def quad_oracle(c, rho, nodes=2048, tau=0.0):
    """(1/2pi) integral of cos(c rho cos(theta - tau)) d theta."""
    theta = tau + 2.0 * math.pi * np.arange(nodes) / nodes
    return np.array([np.mean(np.cos(c * r * np.cos(theta))) for r in rho])


def test_char_m_n_matches_quadrature():
    rho = np.linspace(0.0, 2000.0, 200)
    for c in (0.005, 0.0022):
        assert np.max(np.abs(j0_arr(c * rho) - quad_oracle(c, rho))) <= 1e-10


def test_char_m_n_tau_independent():
    rho = np.linspace(0.0, 1500.0, 64)
    base = quad_oracle(0.004, rho, tau=0.0)
    for tau in (0.3, 1.7, math.pi):
        assert np.max(np.abs(quad_oracle(0.004, rho, tau=tau) - base)) <= 1e-10


def test_j0_first_root():
    assert j0_arr(J0_FIRST_ROOT) == pytest.approx(0.0, abs=1e-12)
    assert j0_arr(J0_FIRST_ROOT - 0.1) > 0 > j0_arr(J0_FIRST_ROOT + 0.1)


def test_char_bounded_by_one(coeffs):
    rho = np.linspace(0.0, 5e4, 20001)
    phi = char_M_N(coeffs, 10, rho)
    assert np.max(np.abs(phi)) <= 1.0
    assert phi[0] == pytest.approx(1.0)


def test_char_envelope(coeffs):
    c = coeffs.c[:5]
    rho = np.linspace(0.0, 5e4, 5001)
    phi = char_M_N(coeffs, 5, rho)
    env = direct_envelope(c, rho)
    assert np.all(np.abs(phi) <= env + 1e-12)


def direct_envelope(c, rho):
    """Reference: prod_m min(1, sqrt(2/(pi c_m rho))), factor by factor."""
    rho = np.asarray(rho, dtype=np.float64)[..., None]
    with np.errstate(divide="ignore"):     # rho = 0 gives min(1, inf) = 1
        return np.prod(np.minimum(1.0, np.sqrt(2.0 / (math.pi * c * rho))),
                       axis=-1)


def test_decay_envelope_matches_direct_product(coeffs):
    """Each power-law piece K_j rho^(-j/2) of ``_envelope_pieces`` is the
    direct product on its [b_j, b_{j+1})."""
    c = coeffs.c
    b = 2.0 / (math.pi * c)
    # a log grid from below the first breakpoint to past the last, plus
    # every breakpoint itself
    rho = np.sort(np.concatenate(
        (np.geomspace(0.1 * b.min(), 10.0 * b.max(), 2001), b)))
    for n in (1, 5, 49, 100):
        b, log_k = _envelope_pieces(c[:n])
        assert log_k[0] == 0.0     # piece 0 is the constant 1
        edges = np.concatenate(([0.0], b, [np.inf]))
        for j in range(n + 1):
            r = rho[(edges[j] <= rho) & (rho < edges[j + 1])]
            assert r.size
            # exp of a log near -300 carries a few hundred ulp
            assert np.allclose(np.exp(log_k[j] - 0.5 * j * np.log(r)),
                               direct_envelope(c[:n], r),
                               rtol=1e-12, atol=0.0)


def _bracket(c, below):
    """The breakpoints 2/(pi c_m) around the one root of a monotone gap:
    the last where ``below`` holds and the next (or 1e6 times the last)."""
    edges = sorted(2.0 / (math.pi * c))
    k = sum(1 for e in edges if below(e))
    return (edges + [1e6 * edges[-1]])[k - 1:k + 1], edges[k:]


def test_envelope_cutoff_matches_mpmath_root(coeffs):
    mp = pytest.importorskip("mpmath")
    for n in (5, 10, 25, 49, 100):
        c = coeffs.c[:n]
        def gap(rho):
            return math.log(direct_envelope(c, float(rho)) / 1e-10)
        root = mp.findroot(gap, _bracket(c, lambda r: gap(r) > 0)[0],
                           solver="anderson")
        assert _envelope_cutoff_rho(c, 1e-10) == pytest.approx(
            float(root), rel=1e-12)


def heavy_tail(coeffs):
    """The first five ordinates, then 40 packed into [34, 40]: the tail is
    heavy enough that a rho^2 meets 2 env_5 in piece 3, before the
    logarithmic piece j = 4, which the bundled table never reaches."""
    gammas = [*coeffs.gamma[:5], *np.linspace(34.0, 40.0, 40)]
    return build_coefficients(ZeroTable(np.array(gammas), "heavy tail"))


@pytest.mark.parametrize("n, table", [
    (5, None), (10, None), (49, None), (100, None), (5, heavy_tail)])
def test_limit_error_budget_matches_mpmath_quad(coeffs, n, table):
    """c_1^2 times the integral of rho * min(a rho^2, 2 env_n(rho)),
    split at the crossing and at every breakpoint beyond it."""
    mp = pytest.importorskip("mpmath")
    if table is not None:
        coeffs = table(coeffs)
    c = coeffs.c[:n]
    a = 0.25 * tail_bound(coeffs, n, 2)
    def gap(rho):
        return a * float(rho) ** 2 - 2.0 * direct_envelope(c, float(rho))
    bracket, beyond = _bracket(c, lambda r: gap(r) < 0)
    # 25 digits: at 20 the slow rho^-1.5 tail at n = 5 is off by 1.7e-11
    with mp.workdps(25):
        star = mp.findroot(gap, bracket, solver="anderson")
        inner = mp.quad(lambda r: a * r ** 3, [0, star])
        outer = mp.quad(lambda r: 2.0 * r * direct_envelope(c, float(r)),
                        [star, *beyond, mp.inf])
        want = float(coeffs.c[0] ** 2 * (inner + outer))
    assert _limit_error_budget(coeffs, n) == pytest.approx(want, rel=1e-10)


def test_char_tail_gap_brute(coeffs):
    """|M_tilde_N - M_tilde_M| for M > N is within a rho^2, the propagated
    bound of ``_limit_error_budget`` with a = sum_{m>N} c_m^2 / 4."""
    rho = np.linspace(0.0, 3000.0, 301)
    for n in (10, 25):
        big = char_M_N(coeffs, 100, rho)
        small = char_M_N(coeffs, n, rho)
        gap = np.abs(big - small)
        bound = 0.25 * tail_bound(coeffs, n, 2) * rho ** 2
        assert np.all(gap <= bound + 1e-14)


def test_support_radius_values(coeffs):
    s10 = support_radius(coeffs, 10)
    assert s10 == pytest.approx(float(np.sum(coeffs.c[:10])), rel=0.0)
    assert support_radius(coeffs, 10, limit=True) > s10


def test_inversion_mass_and_positivity(coeffs):
    n = 6
    d = invert_to_density(coeffs, n, 1024)
    assert abs(d.mass - 1.0) <= 1e-6
    assert d.values.min() >= -1e-6 * d.peak
    assert d.leakage <= 1e-4


def test_inversion_rejects_low_order(coeffs, monkeypatch):
    # at order 3 the envelope cutoff, and so the node count, is huge: the
    # order check must come before the nodes are built
    def fail(*args, **kwargs):
        raise AssertionError("nodes built before the order check")
    monkeypatch.setattr(mfun.density, "default_rho_grid", fail)
    with pytest.raises(RangeError):
        invert_to_density(coeffs, 3, 256)


@pytest.mark.parametrize("n, grid_order", [(6, 6), (10, 10), (25, 25),
                                           (5, 10)])
def test_inversion_builds_its_nodes(coeffs, n, grid_order):
    """The nodes are j_{0,k}/R, R = radius, out to the cutoff.

    Order 5 on the order-10 grid has R = 1.1 s_10 > s_5, as in the
    convolution chain of criterion 4."""
    radius = 1.1 * support_radius(coeffs, grid_order)
    d = invert_to_density(coeffs, n, 64, radius)
    assert d.radius == radius
    rho = d.rho_grid
    assert np.allclose(rho * radius, _j0_zeros(rho.size),
                       rtol=1e-12, atol=0.0)
    assert direct_envelope(coeffs.c[:n], rho[-1]) <= ENVELOPE_CUTOFF
    assert np.array_equal(d.characteristic, char_M_N(coeffs, n, rho))


@pytest.mark.parametrize("kind, order, error", [
    ("single_point", 10, QuadratureError), ("inside_support", 25, RangeError),
    ("infinite_radius", 10, RangeError), ("nan_radius", 10, RangeError)])
def test_inversion_refuses_off_grid_r(coeffs, monkeypatch, kind, order,
                                      error):
    """A single r point, or a radius that is not finite or ends inside
    the support (the order-10 radius at order 25), is refused before any
    node is built."""
    s10 = 1.1 * support_radius(coeffs, 10)
    points, radius = {"single_point": (1, s10), "inside_support": (512, s10),
                      "infinite_radius": (512, math.inf),
                      "nan_radius": (512, math.nan)}[kind]
    def fail(*args, **kwargs):
        raise AssertionError("nodes built before the grid check")
    monkeypatch.setattr(mfun.density, "default_rho_grid", fail)
    with pytest.raises(error):
        invert_to_density(coeffs, order, points, radius)


def test_profile_grid_is_linspace(coeffs):
    """Every profile's r grid is linspace(0, R, n) bit for bit, R its
    radius, and cannot be set: a hand-made grid is refused at once."""
    s10 = 1.1 * support_radius(coeffs, 10)
    direct = invert_to_density(coeffs, 10, 512)
    limit = invert_limit_density(coeffs, 2.0, 300)
    chained = convolve_step(invert_to_density(coeffs, 5, 512, s10),
                            float(coeffs.c[5]))
    assert direct.radius == chained.radius == s10
    assert limit.radius == 1.1 * support_radius(coeffs, limit.order)
    for d in (direct, limit, chained):
        grid = np.linspace(0.0, d.radius, d.values.size)
        assert d.r_grid.tobytes() == grid.tobytes()
    with pytest.raises(ValueError):
        dataclasses.replace(direct, r_grid=np.linspace(0.01, s10, 512))


def test_mcmahon_offsets_within_bound():
    """The nodes that ``invert_to_density`` builds meet the McMahon offset
    bound that ``hankel_sum``'s far field assumes: 0 < e_k <= e_max."""
    e = _kernels._mcmahon_offsets(_j0_zeros(10 ** 5))
    assert e.min() > 0.0
    assert e.max() <= _kernels._MCMAHON_E


def test_fourier_round_trip(coeffs):
    """Forward transform of the inverted density reproduces M_tilde."""
    n = 10
    d = invert_to_density(coeffs, n, 2048)
    h = d.r_grid[1] - d.r_grid[0]
    probe = np.linspace(0.0, 0.5 * d.rho_grid[-1], 40)
    w = np.full(d.r_grid.size, h)
    w[0] = w[-1] = 0.5 * h
    kernel = w * d.r_grid * d.values
    back = np.array([float(np.dot(kernel, j0_arr(p * d.r_grid)))
                     for p in probe])
    assert np.max(np.abs(back - char_M_N(coeffs, n, probe))) <= 1e-6


def test_hankel_sum_independent_of_batch(coeffs):
    """The direct sum sums each row on its own: the same alone and in a
    batch.  The grid path, which takes the FFT on this grid, gives the
    same bytes on a rerun.  (tests/test_budget.py varies the chunks of
    both and the groups of rows the spectra are taken in.)"""
    n = 10
    d = invert_to_density(coeffs, n, 300)
    r, rho = d.r_grid, d.rho_grid
    g = rho * d.characteristic
    whole = _kernels._hankel_direct(r, rho, g)
    grid = _kernels.hankel_sum(r, rho, g)
    assert np.array_equal(_kernels.hankel_sum(r, rho, g), grid)
    for i in (0, 6, 7, 8, 299):
        assert _kernels._hankel_direct(r[i:i + 1], rho, g)[0] == whole[i]


def test_hankel_sum_independent_of_far_block(coeffs, monkeypatch):
    """The far-field coefficients folded one node block at a time give the
    same bytes for any block size: one node, 7 nodes, L + 1 nodes (so
    every whole block wraps past a multiple of the FFT length L) and one
    block of all K nodes, each set by the budget at 512 bytes a node; and
    on the order-5 grid of 512 points (K = 13,570 nodes) the sum holds
    within 2 MiB of traced memory at the default budget, where all
    27 x K coefficients at once took 7.4 MiB."""
    import tracemalloc

    d = invert_to_density(coeffs, 5, 512)
    r, rho = d.r_grid, d.rho_grid
    g = rho * d.characteristic
    tracemalloc.start()
    try:
        blocked = _kernels.hankel_sum(r, rho, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak
    length = 2 * (r.size - 1)
    assert rho.size > 2 * length
    for block in (1, 7, length + 1, rho.size):
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 512 * block)
        assert _kernels.hankel_sum(r, rho, g).tobytes() == blocked.tobytes()


def _hankel_sum_wide_fold(r, rho, g):
    """Oracle: ``hankel_sum`` with its far-field coefficients folded into
    all L = 2(n - 1) columns, every node added at column k mod L in the
    same order, and each spectrum taken over the whole L-wide rows."""
    n, size = r.size, rho.size
    x = rho * r[-1]
    length = 2 * (n - 1)
    rows = _kernels._HANKEL_M + _kernels._HANKEL_P - 1
    fft_work = rows * length * math.log2(length)
    out = np.empty(n)
    out[0] = np.sum(g)
    folded, done, lo = np.zeros((rows, length)), size, 1
    while lo < n:
        hi = min(2 * lo, n)
        near = int(np.searchsorted(x * (lo / (n - 1)), _kernels._HANKEL_X0))
        if (hi - lo) * (size - near) * _kernels._J0_COST <= fft_work:
            out[lo:hi] = _kernels._hankel_direct(r[lo:hi], rho, g)
        else:
            coef = _kernels._far_coefficients(x[near:done], g[near:done],
                                              near)
            for j in range(coef.shape[1]):
                folded[:, (near + 1 + j) % length] += coef[:, j]
            done = near
            out[lo:hi] = _kernels._far_rows(folded, lo, hi, n)
            if near:
                out[lo:hi] += _kernels._hankel_direct(r[lo:hi], rho[:near],
                                                      g[:near])
        lo = hi
    return out


@pytest.mark.parametrize("order, points", [(5, 512), (10, 4096)])
def test_hankel_sum_matches_wide_fold(coeffs, monkeypatch, order, points):
    """Folding onto the min(K + 1, L) columns the nodes reach gives the
    bytes of the L-wide fold, where the fold wraps (order 5, 512 points:
    K = 13,570 nodes, L = 1,022) and where it does not (order 10, 4,096
    points: K = 313, L = 8,190)."""
    d = invert_to_density(coeffs, order, points)
    r, rho = d.r_grid, d.rho_grid
    g = rho * d.characteristic
    widths = []
    far_rows = _kernels._far_rows
    monkeypatch.setattr(_kernels, "_far_rows", lambda folded, *a: (
        widths.append(folded.shape[1]) or far_rows(folded, *a)))
    got = _kernels.hankel_sum(r, rho, g)
    length = 2 * (points - 1)
    assert set(widths) == {min(rho.size + 1, length)}
    assert got.tobytes() == _hankel_sum_wide_fold(r, rho, g).tobytes()


def test_hankel_sum_memory_follows_nodes(coeffs):
    """On 2^14 points at order 5 (K = 13,570 nodes, L = 32,766) the sum
    holds within 6 MiB of traced memory: it took 15.0 MiB with the
    27 x L fold, 11.0 MiB with 27 x (K + 1) columns and all 27 spectra in
    one group, and takes 4.1 MiB with one spectrum at a time."""
    import tracemalloc

    d = invert_to_density(coeffs, 5, 1 << 14)
    r, rho = d.r_grid, d.rho_grid
    g = rho * d.characteristic
    tracemalloc.start()
    try:
        _kernels.hankel_sum(r, rho, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 << 20, peak


def _hankel_stated_bound(r, rho, g):
    """The bound of the ``hankel_sum`` docstring against ``_hankel_direct``,
    with a_m recomputed from its product formula."""
    u = 2.0 ** -53
    x0 = _kernels._HANKEL_X0
    m, p = _kernels._HANKEL_M, _kernels._HANKEL_P
    a = [math.prod((2 * l - 1) ** 2 for l in range(1, j + 1))
         / (math.factorial(j) * 8.0 ** j) for j in range(m + 2)]
    s = math.sqrt(2.0 / (math.pi * x0))
    amp = s * sum(a[j] * x0 ** -j for j in range(m))
    e_m = s * (a[m] * x0 ** -m + a[m + 1] * x0 ** -(m + 1))
    e_p = amp * _kernels._MCMAHON_E ** p / math.factorial(p)
    length = 2 * (r.size - 1)
    e_f = 4.0 * u * (m + p + rho.size / length + math.log2(length)
                     + math.log2(rho.size))
    g = np.abs(g)
    return (np.sum(g) * (e_m + e_p + e_f)
            + 8.0 * u * np.sum(g * np.sqrt(rho * r[-1])))


@pytest.mark.parametrize("order, points, fft", [
    (5, 512, True), (5, 4096, True), (10, 4096, True), (25, 4096, True)])
def test_hankel_sum_within_stated_bound(coeffs, monkeypatch, order, points,
                                        fft):
    """The grid path against the direct sum, on the inversion's own
    coefficients, within the docstring's bound; fft says whether the grid
    takes the FFT in some block (each of these does)."""
    d = invert_to_density(coeffs, order, points)
    r, rho = d.r_grid, d.rho_grid
    g = 2.0 * d.characteristic / (r[-1] * _kernels.j1_arr(rho * r[-1])) ** 2
    calls = []
    far_rows = _kernels._far_rows
    monkeypatch.setattr(_kernels, "_far_rows",
                        lambda *a: calls.append(a) or far_rows(*a))
    got = _kernels.hankel_sum(r, rho, g)
    direct = _kernels._hankel_direct(r, rho, g)
    assert bool(calls) == fft
    if fft:
        gap = np.max(np.abs(got - direct))
        assert gap <= _hankel_stated_bound(r, rho, g)
    else:
        assert np.array_equal(got, direct)


def test_invert_limit_density_budget(coeffs):
    d = invert_limit_density(coeffs, 2.0)
    assert d.order >= 5
    assert d.support_radius == support_radius(coeffs, d.order, limit=True)
    assert d.error_budget <= 2.0
    assert abs(d.mass - 1.0) <= 1e-6


def test_invert_limit_density_floor(coeffs):
    # with 100 zeros the certified scaled budget bottoms out near 0.5
    with pytest.raises(PrecisionError):
        invert_limit_density(coeffs, 0.1)


def test_convolve_step_matches_direct(coeffs):
    """Adding one circle by angular convolution equals direct inversion."""
    n = 6
    radius = 1.1 * support_radius(coeffs, n + 1)
    d7c = convolve_step(invert_to_density(coeffs, n, 1024, radius),
                        float(coeffs.c[n]))
    d7 = invert_to_density(coeffs, n + 1, 1024)
    assert np.max(np.abs(d7c.values - d7.values)) <= 1e-4 * d7.peak
    assert abs(d7c.mass - 1.0) <= 1e-5


def test_spline_interpolates_within_cubic_bound():
    """The B-spline interpolant meets the values at the nodes and, for
    exp(-r^2) (even at 0 and flat at the end, as a density is), stays
    within the cubic spline bound 5/384 h^4 max|f^(4)|, max|f^(4)| = 12."""
    r = np.linspace(0.0, 6.0, 301)
    f = np.exp(-r * r)
    assert np.max(np.abs(_spline(f, 6.0, r) - f)) <= 1e-15
    x = np.random.Generator(np.random.Philox(key=np.uint64(3))).uniform(
        0.0, 6.0, 5000)
    h = r[1] - r[0]
    assert np.max(np.abs(_spline(f, 6.0, x) - np.exp(-x * x))) <= (
        5.0 / 384.0 * h ** 4 * 12.0)


def test_integrate_against_one_is_mass(coeffs):
    n = 6
    d = invert_to_density(coeffs, n, 1024)
    # the mass field is the exact Fourier-Bessel sum, while this is the
    # radial rule on the r grid, whose h^4 error needs a smooth M; M_6 is
    # not smooth (its transform decays only like rho^-3)
    assert integrate_against(d, TestFunction.one()) == pytest.approx(
        1.0, abs=5e-5)
    # M_10 is smooth enough for the rule to meet the exact mass
    n = 10
    d = invert_to_density(coeffs, n, 4096)
    assert integrate_against(d, TestFunction.one()) == pytest.approx(
        d.mass, abs=1e-12)


def test_radial_integral_error_term():
    """On exp(-r^2) the rule is off by its leading term h^4 g''(0)/240."""
    r = np.linspace(0.0, 8.0, 257)
    predicted = r[1] ** 4 * -2.0 / 240.0   # g''(0) = -2
    err = _radial_integral(np.exp(-r * r), 8.0) - 0.5 * (1.0 - math.exp(-64.0))
    assert err == pytest.approx(predicted, rel=1e-3)


def test_integrate_against_annulus_partition(coeffs):
    """Annuli partitioning the support account for the whole mass."""
    n = 6
    d = invert_to_density(coeffs, n, 1024)
    edges = np.linspace(0.0, float(d.r_grid[-1]), 9)
    total = sum(integrate_against(
        d, TestFunction.annulus(float(a), float(b)))
        for a, b in zip(edges[:-1], edges[1:]))
    whole = integrate_against(d, TestFunction.one())
    assert total == pytest.approx(whole, abs=1e-6)


def test_integrate_against_holds_row_blocks(coeffs):
    """Each default test function integrates against a 4096-point N = 10
    profile within 2 MiB of traced memory (one r x nodes point matrix is
    4 MiB), a rectangle within 1.25 MiB, and a smooth kind's or a
    rectangle's value is bit for bit the one-shot one over all radii."""
    import tracemalloc

    from mfun._kernels import expi
    from mfun.cli import default_test_functions
    from mfun.testfuncs import _QUAD_NODES_MIN, _rect_arc_fraction

    d = invert_to_density(coeffs, 10, 4096)
    r = d.r_grid
    for phi in default_test_functions(support_radius(coeffs, 10)):
        tracemalloc.start()
        try:
            got = integrate_against(d, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20, (phi.label, peak)
        if phi.kind == "rectangle":
            # arc fractions by row blocks: the cut stacks of all 4096
            # radii at once take 1.7 MiB
            assert peak <= 1.25 * (1 << 20), (phi.label, peak)
            p = phi.params
            oracle = _rect_arc_fraction(r, p["x0"], p["x1"], p["y0"], p["y1"])
            assert got == float(_radial_integral(d.values * oracle, d.radius))
        if phi.kind not in ("gaussian", "character"):
            continue
        # the node count of angular_average's periodic trapezoid
        scale = (abs(phi.params["z"]) * r[-1] if phi.kind == "character"
                 else r[-1] / phi.params["sigma"])
        nodes = max(_QUAD_NODES_MIN, 4 * int(scale) + 16)
        theta = np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False)
        oracle = phi(np.outer(r, expi(theta))).mean(axis=1)
        want = _radial_integral(d.values * oracle, d.radius)
        assert got == (complex(want) if phi.kind == "character"
                       else float(want)), phi.label


def test_profiles_compare_by_identity(coeffs):
    """Profiles compare by identity, so == never asks an array field for
    its truth value."""
    d = invert_to_density(coeffs, 6, 512)
    assert d == d
    assert (d == dataclasses.replace(d, values=d.values.copy())) is False
