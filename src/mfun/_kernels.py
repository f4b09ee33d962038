"""The hot kernels, in numpy.

Everything here is vectorized numpy: one table-driven phase exponential,
``expi``, for every e^{i theta} (f_series, phasor_sum, f_grid and the
test functions), and scipy's Cephes routines for the Bessel functions.
Loops run over chunks or cache-sized blocks to keep peak memory bounded.

No kernel reduces through BLAS, whose summation order can change with the
matrix shape and the thread count.  The phase sums ``f_series`` and
``phasor_sum`` add their terms in ascending m, one running sum per output
element, so each result depends only on its own alpha or angle row: it is
the same double whatever the number of points evaluated together, the
chunking and the thread count.  ``expi`` is elementwise too: a value
depends only on its own argument, not on the block it falls in.
``hankel_sum`` sums each output element along its own row with numpy's
pairwise summation, whose order is fixed by the length of the rho grid
alone.

Time averages evaluate f_N on the uniform grid alpha_j = j*h with
``f_grid``, which factors each phase as a per-block phasor times a table
row over blocks of ``GRID_BLOCK`` nodes aligned to the absolute index j.
Its terms are also added in ascending m, elementwise, so a value depends
only on j: not on the chunk it is computed in or the thread count.  It
differs from the exact sum by at most u * sum_m c_m (3 gamma_m alpha_j +
beta_m + 2N + 16), u = 2^-53 (see ``f_grid``); the direct ``f_series``
carries the same order of phase rounding, u * gamma_m * alpha_j per term.
"""

import numpy as np
from scipy.special import j0 as _sj0, j1 as _sj1

# Chunk sizes keep intermediate matrices around ~32 MB.
_F_CHUNK = 1 << 19
_HANKEL_CHUNK = 1 << 22
# Nodes per block of f_grid's factored phases.
GRID_BLOCK = 1 << 10

# expi reduces x to k * 2pi/L + d with |d| <= pi/L.  2pi = P1 + P2 + P3 to
# within 2^-85, where P1 and P2 carry 17 significant bits (Cody and Waite),
# so k * P/L is exact for both while |k| < 2^36, that is for |x| <= EXPI_LIMIT.
_EXPI_L = 1 << 12
_STEP_1 = float.fromhex("0x1.921fp+2") / _EXPI_L
_STEP_2 = float.fromhex("0x1.6a88p-15") / _EXPI_L
_STEP_3 = float.fromhex("0x1.0b4611a626331p-32") / _EXPI_L
_INV_STEP = float.fromhex("0x1.45f306dc9c883p+9")   # L / 2pi
_ROUND = 1.5 * 2.0 ** 52   # t + _ROUND - _ROUND rounds t to an integer
EXPI_LIMIT = 2.0 ** 26
# Elements per block: the block's temporaries (about 0.5 MB) stay in cache.
_EXPI_BLOCK = 1 << 13


def j0_arr(x):
    """Bessel J0 evaluated elementwise on an array."""
    return _sj0(np.asarray(x, dtype=np.float64))


def j1_arr(x):
    """Bessel J1 evaluated elementwise on an array."""
    return _sj1(np.asarray(x, dtype=np.float64))


def _expi_table():
    """e^{2 pi i k/L} for k = 0 .. L-1, each part within 1 ulp.

    Only the first octant is evaluated, at the angle k * 2pi/L written as a
    double plus its rounding error; the other entries follow from it by
    exact swaps and sign changes.
    """
    k = np.arange(_EXPI_L // 8 + 1, dtype=np.float64)
    lo = k * _STEP_2 + k * _STEP_3
    hi = k * _STEP_1 + lo
    lo -= hi - k * _STEP_1
    c = np.cos(hi) - np.sin(hi) * lo
    s = np.sin(hi) + np.cos(hi) * lo
    quarter = np.empty(_EXPI_L // 4, dtype=np.complex128)
    quarter.real = np.concatenate([c, s[-2:0:-1]])
    quarter.imag = np.concatenate([s, c[-2:0:-1]])
    return np.concatenate([quarter, 1j * quarter, -quarter, -1j * quarter])


_EXPI_TABLE = _expi_table()


def expi(x):
    """e^{ix} = cos x + i sin x elementwise: a complex array shaped like x.

    Table-driven (Tang 1989): x = k * 2pi/L + d with L = 4096 and
    |d| <= pi/L, where k rounds x L / 2pi and d comes from a three-part
    Cody-Waite reduction.  Then e^{ix} = E_k + E_k (e^{id} - 1), with
    E_k = e^{2 pi i k/L} read from an L-entry table and
    e^{id} - 1 = (d^4/24 - d^2/2) + i d (1 - d^2/6).

    Error bound: for every double x, the real and the imaginary part are
    each within 4u = 4 * 2^-53 of cos x and sin x (absolute).  The sum of
    the parts is about 1.6u: the table entries are within 1u, the last add
    rounds by at most u/2, and the reduction, the truncated series (d^5/120
    and d^6/720) and the small products stay below u/20.  Elements with
    |x| > EXPI_LIMIT, inf and NaN take ``np.cos`` and ``np.sin`` instead,
    so non-finite values propagate as they do there.

    The work runs in blocks of ``_EXPI_BLOCK`` elements, whose temporaries
    stay in cache.  Every operation is elementwise, so a value depends only
    on its own x: not on the array around it or the block it falls in.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.complex128)
    flat, res = x.reshape(-1), out.reshape(-1)
    n = min(_EXPI_BLOCK, flat.size)
    k, d, t = np.empty(n), np.empty(n), np.empty(n)
    idx = np.empty(n, dtype=np.int64)
    table = np.empty(n, dtype=np.complex128)
    poly = np.empty(n, dtype=np.complex128)
    for lo in range(0, flat.size, _EXPI_BLOCK):
        hi = min(lo + _EXPI_BLOCK, flat.size)
        m = hi - lo
        xb, kb, db, tb, ib = flat[lo:hi], k[:m], d[:m], t[:m], idx[:m]
        eb, pb, ob = table[:m], poly[:m], res[lo:hi]
        # NaN compares false, so a NaN also makes the block wild
        wild = not (xb.max() <= EXPI_LIMIT and xb.min() >= -EXPI_LIMIT)
        if wild:
            bad = ~(np.abs(xb) <= EXPI_LIMIT)
            xb = np.where(bad, 0.0, xb)
        # k = round(x L / 2pi); the low mantissa bits of k + _ROUND are k mod L
        np.multiply(xb, _INV_STEP, out=kb)
        kb += _ROUND
        np.bitwise_and(kb.view(np.int64), _EXPI_L - 1, out=ib)
        kb -= _ROUND
        np.multiply(kb, _STEP_1, out=tb)
        np.subtract(xb, tb, out=db)
        np.multiply(kb, _STEP_2, out=tb)
        db -= tb
        np.multiply(kb, _STEP_3, out=tb)
        db -= tb
        _EXPI_TABLE.take(ib, out=eb, mode="clip")   # unbuffered; ib < L
        np.multiply(db, db, out=tb)
        np.multiply(tb, 1.0 / 24.0, out=kb)
        kb -= 0.5
        np.multiply(kb, tb, out=pb.real)
        tb *= -1.0 / 6.0
        tb += 1.0
        np.multiply(tb, db, out=pb.imag)
        np.multiply(eb, pb, out=ob)
        ob += eb
        if wild:
            far = flat[lo:hi][bad]
            ob.real[bad] = np.cos(far)
            ob.imag[bad] = np.sin(far)
    return out


def _ascending_sum(theta, c):
    """sum_m c_m * exp(i*theta[m]) for an (N, n) angle matrix.

    The running sum adds the rows c_m * expi(theta[m]) in ascending m, an
    elementwise add over the points for the real and the imaginary part,
    so a point's value does not depend on the other points.  The points
    are taken a cache-sized block at a time.
    """
    out = np.empty(theta.shape[1], dtype=np.complex128)
    step = max(1, _EXPI_BLOCK // c.size)
    for lo in range(0, out.size, step):
        terms = expi(theta[:, lo:lo + step])
        parts = terms.view(np.float64).reshape(c.size, -1)   # (re, im) pairs
        parts *= c[:, None]
        for m in range(1, c.size):
            terms[0] += terms[m]
        out[lo:lo + step] = terms[0]
    return out


def f_series(alpha, c, gamma, beta):
    """sum_m c_m * exp(i*(alpha*gamma_m - beta_m)) for each alpha.

    alpha: (n,) real; c, gamma, beta: (N,) real.  Returns (n,) complex.
    Each term is c_m * ``expi`` of its phase.  The terms are added in
    ascending m with no BLAS reduction, so each value does not depend on n
    or on the ``_F_CHUNK`` split: a single alpha gives bit for bit the
    matching element of an array call.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    out = np.empty(alpha.shape, dtype=np.complex128)
    for lo in range(0, alpha.size, _F_CHUNK):
        hi = min(lo + _F_CHUNK, alpha.size)
        phase = np.multiply.outer(gamma, alpha[lo:hi]) - beta[:, None]
        out[lo:hi] = _ascending_sum(phase, c)
    return out


def f_grid(start, count, h, c, gamma, beta):
    """f_series at the uniform nodes alpha_j = j*h, j = start .. start+count-1.

    With j = b*K + k, K = GRID_BLOCK, each term factors as

        c_m e^{i(gamma_m alpha_j - beta_m)} = V[b, m] * T[m, k],
        V[b, m] = e^{i(gamma_m (b*K)*h - beta_m)},  T[m, k] = c_m e^{i gamma_m k*h},

    so a call takes one ``expi`` per block and per table entry instead of
    one per node.  The outer products V[:, m] x T[m] are added in ascending
    m, elementwise into one buffer: no BLAS reduction.  Blocks are aligned
    to the absolute index j, so a value depends only on j, not on start,
    count or the thread count.

    Error bound against the exact sum over the exact real j*h: with
    u = 2^-53 and each part of ``expi`` within 4u,

        |f_grid[j] - sum_m c_m e^{i(gamma_m j h - beta_m)}|
            <= u * sum_m c_m (3 gamma_m alpha_j + beta_m + 2N + 16).

    The first two terms are the rounding of the phases (the direct
    ``f_series`` carries the same u * gamma_m * alpha_j), the rest bounds
    the phase exponentials, products and the N-term running sum.
    """
    return next(f_grid_chunks(start, start + count, count, h, c, gamma, beta))


def f_grid_chunks(start, stop, chunk, h, c, gamma, beta):
    """``f_grid`` over the nodes start .. stop-1, in pieces of chunk nodes.

    The N x GRID_BLOCK table T is built once for the whole sweep; each
    piece equals the ``f_grid`` call over the same nodes bit for bit.
    """
    c = np.asarray(c, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    k = GRID_BLOCK
    table = expi(np.multiply.outer(gamma, np.arange(k) * h))
    table *= c[:, None]
    for lo in range(start, stop, chunk):
        count = min(chunk, stop - lo)
        first = lo // k
        blocks = -(-(lo + count) // k) - first
        block = np.multiply.outer(
            gamma, np.arange(first, first + blocks, dtype=np.float64) * k * h)
        block -= beta[:, None]
        block = expi(block)
        out = np.empty((blocks, k), dtype=np.complex128)
        term = np.empty_like(out)
        np.multiply(block[0][:, None], table[0], out=out)
        for m in range(1, c.size):
            np.multiply(block[m][:, None], table[m], out=term)
            out += term
        yield out.reshape(-1)[lo - first * k:lo - first * k + count]


def phasor_sum(theta, c):
    """sum_m c_m * exp(i*theta[:, m]) for a (n, N) angle matrix.

    Each term is c_m * ``expi(theta[:, m])``, the phase exponential of
    ``f_series`` too.  The terms are added in ascending m with no BLAS
    reduction, so a row gives bit for bit the same value alone as inside
    any batch, and the same value as ``f_series`` at the alpha whose
    phases are that row.
    """
    theta = np.asarray(theta, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    return _ascending_sum(theta.T, c)


def char_prod(rho, c):
    """prod_m J0(c_m * rho) elementwise over the rho array."""
    rho = np.asarray(rho, dtype=np.float64)
    out = np.ones(rho.shape, dtype=np.float64)
    for cm in np.asarray(c, dtype=np.float64):
        out *= _sj0(cm * rho)
    return out


def hankel_sum(r, rho, g):
    """sum_j g_j * J0(rho_j * r_i) for each r_i.

    This is the Fourier-Bessel series of the radial Fourier inversion;
    g carries its coefficients.  Each output is the
    pairwise (numpy ``sum``) reduction over j of its own row of the
    products g_j * J0(rho_j * r_i), not a BLAS product, so its value
    depends only on r_i, rho and g: not on the other r values, the
    ``_HANKEL_CHUNK`` split or the thread count.
    """
    r = np.asarray(r, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    out = np.empty(r.shape, dtype=np.float64)
    cols = max(1, _HANKEL_CHUNK // max(rho.size, 1))
    buf = np.empty((min(cols, r.size), rho.size))   # one chunk, reused
    for lo in range(0, r.size, cols):
        hi = min(lo + cols, r.size)
        terms = buf[:hi - lo]
        np.multiply.outer(r[lo:hi], rho, out=terms)
        _sj0(terms, out=terms)
        terms *= g
        out[lo:hi] = terms.sum(axis=1)
    return out

