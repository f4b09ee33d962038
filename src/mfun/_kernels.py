"""The hot kernels, in numpy.

Everything here is vectorized numpy: one table-driven phase exponential,
``expi``, for every e^{i theta} (f_series, f_grid_chunks, the test
functions and the Bessel far field), whose table also serves
``phasor_sum``'s integer phases, the Bessel functions J0 and J1
(``j0_arr``, ``j1_arr``: stored polynomials below x0 = 20, Hankel's
expansion above), and numpy's FFT for the far field of the
Fourier-Bessel sum on its uniform grid (``hankel_sum``).

Every blocked loop in mfun sizes its blocks from one working-set budget,
``_BLOCK_BYTES`` (512 KiB), read at call time: ``_per_block(b)`` items,
b the bytes an item holds in the loop (stated beside it), so a block stays
in cache.  The stream chunks of ``empirical`` are two budgets (1 MiB).
tests/test_budget.py holds the traced peak of every blocked kernel,
beyond its inputs, its output and a stream's chunk, within 3 budgets.  No
output depends on it; ``GRID_BLOCK`` and ``zeros._Z_CHUNK`` fix a
summation order, so they stay fixed.

No kernel reduces through BLAS, whose summation order can change with the
matrix shape and the thread count.  The phase sums ``f_series`` and
``phasor_sum`` share ``_ascending_sum``, which takes the phasors a cache
block of points at a time and adds the terms in ascending m, one running
sum per point, so a result depends only on its own alpha or phase row,
not on the points evaluated with it, the blocking or the thread count.
``expi``, ``j0_arr`` and ``j1_arr`` are elementwise too: a value depends
only on its own argument, not on the block it falls in.
``hankel_sum`` takes only the Schloemilch grid of the inversion (r
uniform from 0 to R = r[-1], nodes j_{0,k}/R), which
``density.invert_to_density`` builds from its point count and radius.
It sums near pairs directly and the far field with FFTs in dyadic blocks
of rows: a value depends on r_i and the grid's point count, and it stays
byte-identical across reruns, chunk splits and thread counts.  Its oracle
``_hankel_direct`` sums each output along its own row with numpy's
pairwise summation, so a value there depends only on its own r_i.

Time averages evaluate f_N on the uniform grid alpha_j = j*h with
``f_grid_chunks``, which factors each phase as a per-block phasor times a
table row over blocks of ``GRID_BLOCK`` nodes aligned to the absolute
index j, so a value depends only on j; its docstring bounds the error.

Random draws come from ``splitmix64``, a counter-based stream: word j
depends only on the seed and j, so any block split gives the same words.
"""

import math

import numpy as np

from . import _bessel_table

# Bytes one block of a blocked loop may hold (see _per_block).
_BLOCK_BYTES = 1 << 19
# Nodes per block of f_grid_chunks' factored phases: fixes its sums.
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
# pi/4 in the same three parts: (4k - 1) * part is exact for the first two
_QUARTER_PI = tuple(s * (_EXPI_L // 8) for s in (_STEP_1, _STEP_2, _STEP_3))

# Pairs and Bessel arguments x >= _HANKEL_X0 take Hankel's expansion of J0
# (and J1) to _HANKEL_M terms (even: the first terms left out are a_M and
# a_{M+1}); hankel_sum expands e^{-i e_k t} to _HANKEL_P Taylor terms.
_HANKEL_X0 = 20.0
_HANKEL_M = 20
_HANKEL_P = 8
# a_m = (-1)^m prod_{l<=m} (2l - 1)^2 / (m! 8^m), m = 0 .. M-1, are J0's
# Hankel coefficients a_m(0); J1's are prod_{l<=m} (4 - (2l - 1)^2) / (m! 8^m)
_HANKEL_A = np.cumprod(
    [1.0] + [-(2 * l - 1) ** 2 / (8.0 * l) for l in range(1, _HANKEL_M)])
_HANKEL_A1 = np.cumprod(
    [1.0] + [(4 - (2 * l - 1) ** 2) / (8.0 * l) for l in range(1, _HANKEL_M)])
# bound on |rho_k R - (k - 1/4) pi| for the nodes rho_k = j_{0,k}/R
_MCMAHON_E = 0.0487
# One J0 pair of the direct sum costs about as much as this many butterflies
# of the FFT path.  On a 2-core Xeon a pair takes about 60 ns (j0_arr itself
# about 31 ns per element), a butterfly with its share of Horner's rule 0.8
# ns (n = 4096) to 2 ns (n = 512); timed whole, hankel_sum breaks even near
# 30 (orders 25 to 100 on 4096 points: 15 ms at 25, 12.7 ms at 30 to 50).
_J0_COST = 30

# j0_arr and j1_arr below _HANKEL_X0: row j of _NEAR[nu] holds the s^j
# coefficients of the polynomials on the unit intervals [i, i+1), in
# s = x - (i + 1/2).  Above it, Hankel's series: _FAR[nu] holds the even and
# the odd m of (-i)^m a_m(nu) as polynomials in 1/x^2.
_NEAR = tuple(np.ascontiguousarray(np.array(t).T)
              for t in (_bessel_table.J0, _bessel_table.J1))
_FAR = tuple(np.stack([a[0::2], a[1::2]]) * (-1.0) ** np.arange(_HANKEL_M // 2)
             for a in (_HANKEL_A, _HANKEL_A1))


def _per_block(item_bytes):
    """Items of item_bytes each that ``_BLOCK_BYTES`` holds, at least 1."""
    return max(1, _BLOCK_BYTES // item_bytes)


def _bessel_near(x, table, out):
    """J_nu at 0 <= x < x0 by Horner's rule on the unit interval of x;
    out may be x itself."""
    t = np.floor(x)
    idx = t.astype(np.intp)
    s = np.subtract(x, t, out=t)
    s -= 0.5   # exact from x >= 1; below, within u/4 of x - 1/2
    coef = np.empty_like(x)
    table[-1].take(idx, out=out)
    for row in table[-2::-1]:
        out *= s
        row.take(idx, out=coef)
        out += coef


def _bessel_far(x, nu, out):
    """J_nu at x >= x0 by Hankel's expansion to _HANKEL_M terms.

    J_nu(x) = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - (2 nu + 1) pi/4,
    with P and Q the even and odd terms of sum_m (-i)^m a_m(nu) x^-m.  As
    cos w and sin w are (cos x +- sin x)/sqrt(2) with the signs of nu, the
    phase is ``expi(x)`` alone: no multiple of pi/4 is rounded.  out may
    be x.  Taken first, the phase and expi's block are the most an element
    holds besides x and out (56 bytes).
    """
    coef = _FAR[nu]
    e = expi(x)
    inv = 1.0 / x
    inv2 = inv * inv
    p, q = acc = np.empty((2, x.size))
    for row, c in zip(acc, coef):   # row by row: no broadcast buffer
        row.fill(c[-1])
        for cj in c[-2::-1]:
            row *= inv2
            row += cj
    q *= inv
    plus = np.add(p, q, out=inv2)
    if nu:   # J1: (Q - P) cos x + (P + Q) sin x
        cos_part, sin_part = np.subtract(q, p, out=p), plus
    else:    # J0: (P + Q) cos x + (P - Q) sin x
        cos_part, sin_part = plus, np.subtract(p, q, out=p)
    cos_part *= e.real
    sin_part *= e.imag
    cos_part += sin_part
    inv *= 1.0 / math.pi
    np.sqrt(inv, out=inv)
    np.multiply(cos_part, inv, out=out)


def _bessel(x, nu, out):
    """J_nu, nu = 0 or 1, elementwise over x into out (see ``j0_arr``)."""
    flat, res = x.reshape(-1), out.reshape(-1)
    step = _per_block(76)   # |x|, 3 masks, a far copy and _bessel_far's 56
    for lo in range(0, flat.size, step):
        hi = min(lo + step, flat.size)
        signed = flat[lo:hi]
        xb = np.abs(signed)
        flip = signed < 0.0 if nu else None   # J1 is odd; read before out
        ob = res[lo:hi]
        near = xb < _HANKEL_X0   # NaN is far, and stays NaN there
        if near.all():
            _bessel_near(xb, _NEAR[nu], ob)
        elif not near.any():
            _bessel_far(xb, nu, ob)
        else:
            part = xb[~near]
            _bessel_far(part, nu, part)
            ob[~near] = part
            part = xb[near]
            _bessel_near(part, _NEAR[nu], part)
            ob[near] = part
        if nu and flip.any():
            np.negative(ob, out=ob, where=flip)
    return out


def j0_arr(x, out=None):
    """Bessel J0 evaluated elementwise on an array.

    |x| < x0 = ``_HANKEL_X0`` takes the degree-12 polynomial of its unit
    interval (``_bessel_table``, interpolated at Chebyshev points); |x| >=
    x0 takes Hankel's expansion to M = ``_HANKEL_M`` terms with the phase
    from ``expi``, whose Cody-Waite reduction is exact (see
    ``_bessel_far``).  Non-finite x gives NaN.

    Error bound, absolute, for every finite double x: |j0_arr(x) - J0(x)|
    <= 2.5u, u = 2^-53.  Below x0 the stored polynomials c_j s^j, taken
    exactly, are within 0.42u of J0 (their rounded coefficients; the
    interpolation error is below 1e-19), and Horner's rule adds at most
    u sum_j (2j + 1) |c_j| 2^-j <= 1.63u.  Above x0 Hankel's remainder is
    at most sqrt(2/(pi x)) (|a_M| x^-M + |a_{M+1}| x^-(M+1)) <= 0.84u (at
    x = x0), and ``expi``'s 4u per part times sqrt(1/(pi x)) <= 0.127,
    with the sums and products, stays below 1.6u.  The same holds for
    ``j1_arr``.

    out, if given, is a C-contiguous float64 array of x's shape (it may be
    x itself).  Every value depends only on its own x, not on the array
    around it or the block it falls in.
    """
    x = np.asarray(x, dtype=np.float64)
    return _bessel(x, 0, np.empty(x.shape) if out is None else out)


def j1_arr(x):
    """Bessel J1 evaluated elementwise on an array, as ``j0_arr`` does J0
    and within the same bound."""
    x = np.asarray(x, dtype=np.float64)
    return _bessel(x, 1, np.empty(x.shape))


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


def _fine_table():
    """e^{2 pi i b/L^2} for b = 0 .. L-1, the real parts within u and the
    imaginary parts within u/100 (u = 2^-53).

    With ``_EXPI_TABLE`` it factors the phasor of an integer phase
    k = L a + b in units of 2pi/L^2 = 2pi/2^24 (see ``phasor_sum``).  The
    angles are below 2pi/L < 1.6e-3, so the relative error of a rounded
    angle moves a cosine by less than u/10^5 and a sine by less than u/500.
    """
    x = (2.0 * math.pi / _EXPI_L ** 2) * np.arange(_EXPI_L)
    table = np.empty(_EXPI_L, dtype=np.complex128)
    table.real = np.cos(x)
    table.imag = np.sin(x)
    return table


_EXPI_FINE = _fine_table()

# SplitMix64 (Steele, Lea and Flood 2014; Vigna's splitmix64.c): the state
# steps by _SPLITMIX_GAMMA and each word is the state through this mix.
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MIX = ((30, np.uint64(0xBF58476D1CE4E5B9)),
                 (27, np.uint64(0x94D049BB133111EB)))


def splitmix64(seed, lo, hi):
    """Words lo .. hi-1 of the SplitMix64 stream keyed by seed (uint64).

    Word j is the reference output mix of the state
    seed + (j + 1) * 0x9E3779B97F4A7C15 mod 2^64: the value that Vigna's
    splitmix64.c returns at its (j + 1)-th call from the state seed.  A
    word depends only on (seed, j), so words [lo, hi) are that slice of
    words [0, hi) and a stream drawn block by block is the same stream.
    """
    z = np.arange(lo + 1, hi + 1, dtype=np.uint64)
    z *= _SPLITMIX_GAMMA   # uint64 arrays wrap mod 2^64 without a warning
    z += np.uint64(seed)
    t = np.empty_like(z)
    for shift, mult in _SPLITMIX_MIX:
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mult
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


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

    The work runs in blocks of elements whose temporaries fit the
    budget.  Every operation is elementwise, so a value depends only
    on its own x: not on the array around it or the block it falls in.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.complex128)
    flat, res = x.reshape(-1), out.reshape(-1)
    # k, d, t (and the table index in t): 8 bytes each; the table: 16; the
    # polynomial goes to the output
    step = _per_block(40)
    n = min(step, flat.size)
    k, d, t = np.empty(n), np.empty(n), np.empty(n)
    table = np.empty(n, dtype=np.complex128)
    for lo in range(0, flat.size, step):
        hi = min(lo + step, flat.size)
        m = hi - lo
        xb, kb, db, tb = flat[lo:hi], k[:m], d[:m], t[:m]
        eb, ob = table[:m], res[lo:hi]
        # NaN compares false, so a NaN also makes the block wild
        wild = not (xb.max() <= EXPI_LIMIT and xb.min() >= -EXPI_LIMIT)
        if wild:
            bad = ~(np.abs(xb) <= EXPI_LIMIT)
            xb = np.where(bad, 0.0, xb)
        # k = round(x L / 2pi); the low mantissa bits of k + _ROUND are k mod L
        np.multiply(xb, _INV_STEP, out=kb)
        kb += _ROUND
        ib = tb.view(np.int64)
        np.bitwise_and(kb.view(np.int64), _EXPI_L - 1, out=ib)
        _EXPI_TABLE.take(ib, out=eb, mode="clip")   # unbuffered; ib < L
        kb -= _ROUND
        np.multiply(kb, _STEP_1, out=tb)
        np.subtract(xb, tb, out=db)
        np.multiply(kb, _STEP_2, out=tb)
        db -= tb
        np.multiply(kb, _STEP_3, out=tb)
        db -= tb
        np.multiply(db, db, out=tb)
        np.multiply(tb, 1.0 / 24.0, out=kb)
        kb -= 0.5
        np.multiply(kb, tb, out=ob.real)
        tb *= -1.0 / 6.0
        tb += 1.0
        np.multiply(tb, db, out=ob.imag)
        np.multiply(eb, ob, out=ob)
        ob += eb
        if wild:
            far = flat[lo:hi][bad]
            ob.real[bad] = np.cos(far)
            ob.imag[bad] = np.sin(far)
    return out


def _ascending_sum(phasors, c, n):
    """sum_m c_m * phasors(lo, hi)[m] at n points, with phasors(lo, hi) a
    new (N, hi - lo) complex array: the unit phasors of the points lo .. hi-1.

    The blocks are cache-sized, so no N x n matrix is built.  The running
    sum adds the rows c_m * phasors[m] in ascending m, an elementwise add
    over the points for the real and the imaginary part, so a point's
    value does not depend on the other points or on the block it falls in.
    """
    c = np.asarray(c, dtype=np.float64)
    out = np.empty(n, dtype=np.complex128)
    step = _per_block(64 * c.size)   # a point's N terms, each through expi
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        terms = phasors(lo, hi)
        parts = terms.view(np.float64).reshape(c.size, -1)   # (re, im) pairs
        parts *= c[:, None]
        for m in range(1, c.size):
            terms[0] += terms[m]
        out[lo:hi] = terms[0]
    return out


def f_series(alpha, c, gamma, beta):
    """sum_m c_m * exp(i*(alpha*gamma_m - beta_m)) for each alpha.

    alpha: (n,) real; c, gamma, beta: (N,) real.  Returns (n,) complex.
    Each term is c_m * ``expi`` of its phase, built one block of alphas at
    a time.  The terms are added in ascending m with no BLAS reduction, so
    each value does not depend on n or on the block split: a single alpha
    gives bit for bit the matching element of an array call.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    return _ascending_sum(
        lambda lo, hi: expi(np.multiply.outer(gamma, alpha[lo:hi])
                            - beta[:, None]),
        c, alpha.size)


def f_grid_chunks(start, stop, chunk, h, c, gamma, beta):
    """f_series at the nodes j*h, j = start .. stop-1, in chunk-node pieces.

    With j = b*K + k, K = GRID_BLOCK, each term factors as

        c_m e^{i(gamma_m alpha_j - beta_m)} = V[b, m] * T[m, k],
        V[b, m] = e^{i(gamma_m (b*K)*h - beta_m)},  T[m, k] = c_m e^{i gamma_m k*h},

    so a sweep takes one ``expi`` per block and per table entry instead of
    one per node; the table T is built once for the whole sweep.  The outer
    products V[:, m] x T[m] are added in ascending m, elementwise into the
    output: no BLAS reduction.  Blocks are aligned to the absolute index j,
    so a value depends only on j, not on start, stop, chunk or the thread
    count.

    Memory: besides the N x K table, a chunk holds its output (chunk
    complex values, rounded up to whole blocks), its N block phasors and
    one term buffer of half the budget, reused for the whole sweep: the
    terms are added a group of blocks at a time.

    Error bound against the exact sum over the exact real j*h: with
    u = 2^-53 and each part of ``expi`` within 4u,

        |f_j - sum_m c_m e^{i(gamma_m j h - beta_m)}|
            <= u * sum_m c_m (3 gamma_m alpha_j + beta_m + 2N + 16).

    The first two terms are the rounding of the phases (the direct
    ``f_series`` carries the same u * gamma_m * alpha_j), the rest bounds
    the phase exponentials, products and the N-term running sum.
    """
    c = np.asarray(c, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    k = GRID_BLOCK
    table = expi(np.multiply.outer(gamma, np.arange(k) * h))
    table *= c[:, None]
    group = _per_block(32 * k)   # a block's output rows and terms
    work = np.empty((group, k), dtype=np.complex128)
    for lo in range(start, stop, chunk):
        count = min(chunk, stop - lo)
        first = lo // k
        blocks = -(-(lo + count) // k) - first
        block = np.multiply.outer(
            gamma, np.arange(first, first + blocks, dtype=np.float64) * k * h)
        block -= beta[:, None]
        block = expi(block)
        out = np.empty((blocks, k), dtype=np.complex128)
        for g in range(0, blocks, group):
            rows = out[g:g + group]
            v = block[:, g:g + rows.shape[0], None]
            term = work[:rows.shape[0]]
            np.multiply(v[0], table[0], out=rows)
            for m in range(1, c.size):
                np.multiply(v[m], table[m], out=term)
                rows += term
        yield out.reshape(-1)[lo - first * k:lo - first * k + count]
        out = rows = None   # hold no view of a chunk the caller let go


def phasor_sum(theta, c):
    """sum_m c_m * e^{2 pi i theta[:, m]/2^24} for an (n, N) matrix of
    integer phases theta, in units of 2pi/2^24.

    A phase k = 4096 a + b (mod 2^24, so any int64 k) takes its phasor as
    E[a] * F[b], one complex multiply of two table entries:
    E = ``_EXPI_TABLE``, e^{2 pi i a/4096}, and F = ``_EXPI_FINE``,
    e^{2 pi i b/2^24}; no ``expi`` call.  Each part of the product is
    within 4u (u = 2^-53) of cos and sin(2 pi k/2^24), the bound of
    ``expi``: E's parts are within u, F's real parts within u and its
    imaginary parts (below 1.6e-3) within u/100, and the two products and
    the add of a part round by at most u/2 + u/1000 + u/2, 3.1u in all.
    Over all 2^24 phases |E * F| <= 1 + 4u.  The terms are added in
    ascending m with no BLAS reduction, so a row gives bit for bit the
    same value alone as inside any batch.
    """
    theta = np.asarray(theta)
    if theta.dtype.kind not in "iu":
        raise TypeError("phasor_sum takes integer phases (units of 2pi/2^24), "
                        f"not {theta.dtype}")
    theta = theta.astype(np.int64, copy=False)
    mask = _EXPI_L - 1

    def phasors(lo, hi):
        a = theta[lo:hi].T.copy()   # (N, hi - lo), C order
        b = a & mask
        a >>= 12
        a &= mask
        terms = _EXPI_TABLE[a]
        terms *= _EXPI_FINE[b]
        return terms
    return _ascending_sum(phasors, c, theta.shape[0])


def char_prod(rho, c):
    """prod_m J0(c_m * rho) elementwise over the rho array."""
    rho = np.asarray(rho, dtype=np.float64)
    out = np.ones(rho.shape, dtype=np.float64)
    for cm in np.asarray(c, dtype=np.float64):
        out *= j0_arr(cm * rho)
    return out


def _hankel_direct(r, rho, g):
    """sum_k g_k * J0(rho_k * r_i) for each r_i, one J0 per pair.

    Each output is the pairwise (numpy ``sum``) reduction over k of its
    own row of the products g_k * J0(rho_k * r_i), not a BLAS product, so
    its value depends only on r_i, rho and g: not on the other r values,
    the chunk split or the thread count.  It is the oracle of
    ``hankel_sum``.  It holds a budget of products, reused, and
    ``j0_arr``'s block over them.
    """
    out = np.empty(r.shape, dtype=np.float64)
    cols = _per_block(8 * max(rho.size, 1))   # a row of products
    buf = np.empty((min(cols, r.size), rho.size))   # one chunk, reused
    for lo in range(0, r.size, cols):
        hi = min(lo + cols, r.size)
        terms = buf[:hi - lo]
        np.multiply.outer(r[lo:hi], rho, out=terms)
        j0_arr(terms, out=terms)
        terms *= g
        out[lo:hi] = terms.sum(axis=1)
    return out


def _mcmahon_offsets(x, first=0):
    """e_k = x_k - (k - 1/4) pi for the nodes k = first+1 .. first+x.size,
    x holding x_k for those k.

    (k - 1/4) pi = (4k - 1) pi/4 is subtracted in the three parts of
    ``expi``'s 2pi / 8; the first two products are exact, so e_k carries
    only the rounding of its own size.
    """
    q = 4.0 * np.arange(first + 1, first + x.size + 1) - 1.0
    return x - q * _QUARTER_PI[0] - q * _QUARTER_PI[1] - q * _QUARTER_PI[2]


def _far_coefficients(x, g, first):
    """The far-field coefficients of ``hankel_sum`` for the nodes
    k = first+1 .. first+x.size, given their x_k and g_k: a
    (M + P - 1, x.size) array whose row d + M - 1 holds, for
    d = -(M - 1) .. P - 1,

        g_k x_k^{-1/2} sum_{p - m = d} (-e_k)^p / p! * a_m x_k^{-m}.

    A column depends only on its own x_k, g_k and k.
    """
    m, p = _HANKEL_M, _HANKEL_P
    # row M - 1 - j holds g_k x_k^{-1/2} a_j x_k^{-j}
    powers = np.empty((m, x.size))
    powers[-1] = g / np.sqrt(x)
    inv = 1.0 / x
    for j in range(m - 2, -1, -1):
        np.multiply(powers[j + 1], inv, out=powers[j])
    powers *= _HANKEL_A[::-1, None]
    coef = np.zeros((m + p - 1, x.size))
    minus_e = -_mcmahon_offsets(x, first)
    taylor = np.ones(x.size)
    for j in range(p):
        if j:
            taylor *= minus_e / j
        coef[j:j + m] += taylor * powers
    return coef


def _fold(folded, coef, first, length):
    """Add the coefficient columns of the nodes k = first+1 ..
    first+coef.shape[1] into the columns k mod length of folded, in
    ascending k.  folded holds the columns that k mod length reaches."""
    j = 0
    while j < coef.shape[1]:
        pos = (first + 1 + j) % length
        step = min(length - pos, coef.shape[1] - j)
        folded[:, pos:pos + step] += coef[:, j:j + step]
        j += step


def _far_rows(folded, lo, hi, n):
    """The far field of ``hankel_sum`` at rows lo .. hi-1 of an n-point
    grid, from the coefficients of its far nodes folded by k mod L,
    L = 2(n - 1); folded holds the columns up to min(K, L - 1), and the
    FFTs pad them with zeros to L.

    One real FFT per power d gives sum_k coef[d, k] e^{-2 pi i k i/L};
    the powers (i t)^d are added by Horner's rule, d >= 0 in i t and
    d < 0 in 1/(i t).  The spectra are taken one row at a time, as
    Horner's rule reads them: one spectrum of L/2 + 1 complex values is
    held at a time, and pocketfft gives a row the same bits alone as in
    any batch.
    """
    rows, length = folded.shape[0], 2 * (n - 1)

    def spec(j):
        return np.fft.rfft(folded[j], length)[lo:hi]
    t = np.arange(lo, hi) / (n - 1)
    z, w = 1j * t, -1j / t
    top = _HANKEL_M - 1   # the row of d = 0
    out = spec(rows - 1).copy()
    for j in range(rows - 2, top - 1, -1):
        out *= z
        out += spec(j)
    tail = spec(0).copy()
    for j in range(1, top):
        tail *= w
        tail += spec(j)
    tail *= w
    out += tail
    out *= expi(0.25 * np.pi * (1.0 + t))
    return math.sqrt(2.0 / math.pi) * out.real / np.sqrt(t)


def hankel_sum(r, rho, g):
    """sum_k g_k * J0(rho_k * r_i) for each r_i.

    This is the Fourier-Bessel series of the radial Fourier inversion; g
    carries its coefficients.  The input must have the Schloemilch
    structure of the inversion grid, which ``density.invert_to_density``
    builds: n >= 2 points r_i = i R/(n - 1) (``np.linspace(0, R, n)``),
    R = r[-1] > 0, and the nodes rho_k = j_{0,k}/R, so that every
    x_k = rho_k R lies within e_max = ``_MCMAHON_E`` of (k - 1/4) pi
    (McMahon: 0 < j_{0,k} - (k - 1/4) pi <= 0.04863).  Then rho_k r_i is
    x_k t_i with t_i = i/(n - 1), and the rows are summed in dyadic
    blocks i in [2^b, 2^{b+1}); row 0 is sum_k g_k.

    - Pairs with x_k t < x0 = ``_HANKEL_X0`` at the block's first row are
      summed directly, with the same products r_i rho_k and pairwise row
      sums as ``_hankel_direct``.
    - The far field takes Hankel's expansion to M = ``_HANKEL_M`` terms,
      J0(y) = sqrt(2/(pi y)) Re[e^{-i(y - pi/4)} sum_{m<M} a_m (-i/y)^m],
      a_m = (-1)^m prod_{l<=m} (2l - 1)^2 / (m! 8^m), and with
      x_k = (k - 1/4) pi + e_k the Taylor series of e^{-i e_k t} to
      P = ``_HANKEL_P`` terms.  As e^{-i (k - 1/4) pi t_i} =
      e^{i pi t_i / 4} e^{-2 pi i k i/L}, L = 2(n - 1), each power t^d,
      d = p - m, is one real FFT of length L over the coefficients
      g_k x_k^{-1/2} (-e_k)^p/p! a_m x_k^{-m}, folded by k mod L: M + P - 1
      FFTs per block.  Each node's coefficients are built and folded once
      per call, when its pairs first turn far, a block of nodes at a time
      in ascending k.

    A block takes the FFTs only when its far pairs, each worth
    ``_J0_COST`` butterflies, outnumber the (M + P - 1) L log2 L
    butterflies of its FFTs; otherwise it is summed directly.

    Error bound against ``_hankel_direct``, with u = 2^-53, K nodes,
    s = sqrt(2/(pi x0)) and A = sum_{m<M} |a_m| x0^-m:

        |hankel_sum - _hankel_direct|
            <= sum_k |g_k| (E_M + E_P + E_F) + 8u sum_k |g_k| sqrt(x_k),
        E_M = s (|a_M| x0^-M + |a_{M+1}| x0^-(M+1)),
        E_P = s A e_max^P / P!,
        E_F = 4u (M + P + K/L + log2 L + log2 K).

    E_M is the asymptotic remainder at x0: for real y each of the even
    and odd parts of Hankel's series errs by at most its first omitted
    term (DLMF 10.17(iii)).  E_P is the Taylor remainder (e_max t)^P/P!
    at t <= 1, times the series' size.  E_F is the rounding of the
    coefficients, the fold, the FFT, Horner's rule and the row sums.  The
    last term is the error the direct sum carries at the far pairs
    y = x_k t_i >= x0: r_i rho_k is within 8u y of y and |J1(y)| <=
    0.8/sqrt(y), which is 6.4u sqrt(y), and ``j0_arr`` is within 2.5u <=
    0.6u sqrt(y) of J0(y), its phase reduced exactly by ``expi``.  At
    x0 = 20, M = 20, P = 8: E_M = 9.3e-17, E_P = 1.4e-16.

    A value depends on r_i and the grid's point count (its block and FFT
    length), besides rho and g.  numpy's FFT and every sum here run in a
    fixed order, so the result is byte-identical across reruns, block
    budgets and thread counts.

    Memory: the folded coefficients, (M + P - 1) x min(K + 1, L) doubles
    (only the columns k mod L <= K are ever non-zero), one spectrum of
    L/2 + 1 complex values at a time and a few vectors of a block's rows.
    The coefficients and the direct products are built a budget at a
    time, so no matrix as wide as the K nodes is built.
    """
    r = np.asarray(r, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    n, size = r.size, rho.size
    x = rho * r[-1]
    length = 2 * (n - 1)
    fft_work = (_HANKEL_M + _HANKEL_P - 1) * length * math.log2(length)
    out = np.empty(n)
    out[0] = np.sum(g)
    folded = None
    done = size
    step = _per_block(512)   # a node's coefficients and temporaries
    lo = 1
    while lo < n:
        hi = min(2 * lo, n)
        # the pairs k < near have x_k t < x0 on the block's first row; near
        # falls from block to block, so each node is folded in once
        near = int(np.searchsorted(x * (lo / (n - 1)), _HANKEL_X0))
        if (hi - lo) * (size - near) * _J0_COST <= fft_work:
            out[lo:hi] = _hankel_direct(r[lo:hi], rho, g)
        else:
            if folded is None:
                folded = np.zeros((_HANKEL_M + _HANKEL_P - 1,
                                   min(size + 1, length)))
            for a in range(near, done, step):
                b = min(a + step, done)
                _fold(folded, _far_coefficients(x[a:b], g[a:b], a), a,
                      length)
            done = near
            out[lo:hi] = _far_rows(folded, lo, hi, n)
            if near:
                out[lo:hi] += _hankel_direct(r[lo:hi], rho[:near], g[:near])
        lo = hi
    return out
