"""The hot kernels, in numpy.

Everything here is vectorized numpy plus scipy's Cephes Bessel routines,
chunked to keep peak memory bounded.

No kernel reduces through BLAS, whose summation order can change with the
matrix shape and the thread count.  The phase sums ``f_series`` and
``phasor_sum`` add their terms in ascending m, one running sum per output
element, so each result depends only on its own alpha or angle row: it is
the same double whatever the number of points evaluated together, the
chunking and the thread count.  ``hankel_sum`` sums each output element
along its own row with numpy's pairwise summation, whose order is fixed by
the length of the rho grid alone.

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


def j0_arr(x):
    """Bessel J0 evaluated elementwise on an array."""
    return _sj0(np.asarray(x, dtype=np.float64))


def j1_arr(x):
    """Bessel J1 evaluated elementwise on an array."""
    return _sj1(np.asarray(x, dtype=np.float64))


def _ascending_sum(theta, c):
    """sum_m c_m * exp(i*theta[m]) for an (N, n) angle matrix.

    The real and imaginary parts are running sums of the rows
    c_m*cos(theta[m]) and c_m*sin(theta[m]) in ascending m, each an
    elementwise add over the n points, so a point's value does not depend
    on the other points.
    """
    out = np.empty(theta.shape[1], dtype=np.complex128)
    for part, trig in ((out.real, np.cos), (out.imag, np.sin)):
        terms = trig(theta, order="C")   # contiguous rows for the adds
        terms *= c[:, None]
        for m in range(1, c.size):
            terms[0] += terms[m]
        part[:] = terms[0]
    return out


def f_series(alpha, c, gamma, beta):
    """sum_m c_m * exp(i*(alpha*gamma_m - beta_m)) for each alpha.

    alpha: (n,) real; c, gamma, beta: (N,) real.  Returns (n,) complex.
    The terms are added in ascending m with no BLAS reduction, so each
    value does not depend on n or on the ``_F_CHUNK`` split: a single
    alpha gives bit for bit the matching element of an array call.
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

    so a call takes one sine and cosine per block and per table entry
    instead of one per node.  The outer products V[:, m] x T[m] are added
    in ascending m, elementwise into one buffer: no BLAS reduction.  Blocks
    are aligned to the absolute index j, so a value depends only on j, not
    on start, count or the thread count.

    Error bound against the exact sum over the exact real j*h: with
    u = 2^-53 and sine and cosine within 4 ulp,

        |f_grid[j] - sum_m c_m e^{i(gamma_m j h - beta_m)}|
            <= u * sum_m c_m (3 gamma_m alpha_j + beta_m + 2N + 16).

    The first two terms are the rounding of the phases (the direct
    ``f_series`` carries the same u * gamma_m * alpha_j), the rest bounds
    the trig, products and the N-term running sum.
    """
    c = np.asarray(c, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    k = GRID_BLOCK
    first = start // k
    blocks = -(-(start + count) // k) - first
    table = np.multiply.outer(gamma, np.arange(k) * h)
    table = c[:, None] * (np.cos(table) + 1j * np.sin(table))
    block = np.multiply.outer(
        gamma, np.arange(first, first + blocks, dtype=np.float64) * k * h)
    block -= beta[:, None]
    block = np.cos(block) + 1j * np.sin(block)
    out = np.empty((blocks, k), dtype=np.complex128)
    term = np.empty_like(out)
    np.multiply(block[0][:, None], table[0], out=out)
    for m in range(1, c.size):
        np.multiply(block[m][:, None], table[m], out=term)
        out += term
    lo = start - first * k
    return out.reshape(-1)[lo:lo + count]


def phasor_sum(theta, c):
    """sum_m c_m * exp(i*theta[:, m]) for a (n, N) angle matrix.

    The terms are added in ascending m with no BLAS reduction, so a row
    gives bit for bit the same value alone as inside any batch, and the
    same value as ``f_series`` at the alpha whose phases are that row.
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

