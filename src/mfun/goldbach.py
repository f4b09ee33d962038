"""Desk-scale Goldbach arithmetic: von Mangoldt sieve, the weighted
representation counts r_2(n), the singular series S_2(n), the summatory
residue A_2(x), and its comparison against the zero-sum main term, with
an O(x^2) brute-force reference for r_2 and A_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .spectral import CoefficientTable, eval_f_N

__all__ = [
    "ArithmeticTable", "GoldbachSums", "sieve_lambda", "r2_convolve",
    "r2_all", "TWIN_PRIME_CONSTANT", "singular_series", "singular_series_all",
    "a2_curve", "brute_force_sums", "compare_main_term", "primes_up_to",
]

X_MAX_GUARD = 10 ** 7
# The twin-prime constant C_2 = prod_{p>2} (1 - 1/(p-1)^2), truncated at
# the odd primes p <= 10^7: exp of the numpy sum of their log1p terms.  It
# sits 5.9e-9 (relative) above the infinite product 0.6601618158468696.
# It stays truncated because the infinite product would move A_2 by about
# 1e-5 to 1e-4 of max |A_2| (x_max = 2e4 to 5e5), far outside the 1e-9
# agreement the benchmark's reference outputs are held to.
TWIN_PRIME_CONSTANT = float.fromhex("0x1.5200bae37dd05p-1")
# Large primes per fancy-indexed multiply of singular_series_all: its
# index and factor transients stay near 1.5 MiB.
_LARGE_SLICE = 1 << 16
# Entries per block of the compensated A_2 sums: four block buffers of
# 512 KiB, whatever x_max is.
_SUM_BLOCK = 1 << 16


@dataclass(frozen=True)
class ArithmeticTable:
    """Von Mangoldt values Lambda(n) for 0 <= n <= limit (Lambda(0)=Lambda(1)=0)."""
    limit: int
    lam: np.ndarray


@dataclass(frozen=True)
class GoldbachSums:
    """r_2, S_2 and the cumulative A_2 on a common index range."""
    r2: np.ndarray
    s2: np.ndarray
    a2: np.ndarray


def primes_up_to(n: int) -> np.ndarray:
    """Ascending primes <= n (Eratosthenes on the odd numbers only)."""
    if n < 2:
        return np.array([], dtype=np.int64)
    sieve = np.ones((n + 1) // 2, dtype=bool)   # sieve[i] stands for 2i + 1
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2::p] = False
    # slot 0 (the number 1) is kept and becomes the prime 2
    primes = np.nonzero(sieve)[0].astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def sieve_lambda(x_max: int) -> ArithmeticTable:
    """Exact Lambda table: log p at prime powers p^k, zero elsewhere."""
    if not 2 <= x_max <= X_MAX_GUARD:
        raise RangeError(f"x_max={x_max} outside the desk-scale guard "
                         f"[2, {X_MAX_GUARD}]")
    lam = np.zeros(x_max + 1)
    primes = primes_up_to(x_max)
    # math.log, not np.log: the two differ by an ulp at some primes.  The
    # array is iterated directly: a list of all primes would be a transient
    # of about 40 bytes per prime.
    logs = np.fromiter(map(math.log, primes), dtype=np.float64,
                       count=primes.size)
    lam[primes] = logs
    k = np.searchsorted(primes, math.isqrt(x_max), side="right")
    for p, logp in zip(primes[:k].tolist(), logs[:k].tolist()):
        q = p * p
        while q <= x_max:
            lam[q] = logp
            q *= p
    return ArithmeticTable(limit=x_max, lam=lam)


def _r2_block(k):
    """Half-grid points per block of ``r2_convolve``: the power of two at or
    above 64 sqrt(k), so that the blocks (k / B of them) and the block
    transforms (length 2B) both grow like sqrt(k)."""
    return 1 << (math.ceil(64.0 * math.sqrt(k)) - 1).bit_length()


def r2_convolve(pp, lam_pp, n_max):
    """Self-convolution r2[n] = sum_{l+m=n} w(l) w(m) of weights on a support.

    pp: ascending support indices (the prime powers, for Lambda), lam_pp:
    the matching weights w.  Returns r2[0..n_max].

    The sum is split by parity.  Odd + odd gives the even n: a real FFT
    convolution of the odd weights on the half grid (2i + 1 -> i, offset by
    the least odd index).  Odd n, and even n from two even indices, are
    short exact sums added directly, one shifted copy per even index (for
    Lambda the ~log2(x) powers of two).  So every odd entry is a sum of at
    most one product per even index, a structural zero there (3, 149, 331,
    373, ...) stays exactly 0.0, and entries below twice the least index
    are never written.

    The half grid (k points) is cut into blocks W_i of B = ``_r2_block(k)``
    points, each transformed once at length L = 2B.  Output block s is the
    inverse transform of sum_{i+j=s} W_i W_j (each pair i < j taken once
    and doubled), added over two blocks of r2's even entries (overlap-add,
    Stockham 1966).  So memory holds the k / B spectra, about k complex
    values, and no whole-grid transform.  When one block holds the grid,
    L is the power of two 1 << (2k - 2).bit_length() >= 2k - 1.

    Error bound (eps = 2**-52, L the transform length, S the sum of
    w(n)**2 over n <= n_max), against the exact sums:

        max_n |r2[n] - sum_{l+m=n} w(l) w(m)| <= 2 eps log2(L) S.

    The transforms round each output to O(eps log2 L) of the largest one
    (the usual root-mean-square estimate, not a worst case), and by
    Cauchy-Schwarz no r2[n] exceeds S.  For Lambda, checked against
    extended-precision sums at sampled n for x = 2e5, 2e6 and 1e7, the
    error stays below 2 eps * max r2 and 0.05 eps log2(L) S.  The direct
    double loop in floating point is itself off by up to
    0.6 eps log2(2 n_max) S at x = 2e5; the tests hold this function to
    the bound against that loop.
    """
    pp = np.asarray(pp, dtype=np.int64)
    lam_pp = np.asarray(lam_pp, dtype=np.float64)
    r2 = np.zeros(n_max + 1)
    odd = pp % 2 == 1
    po, wo = pp[odd], lam_pp[odd]
    pe, we = pp[~odd], lam_pp[~odd]
    if po.size and 2 * po[0] <= n_max:
        lo = int(po[0])
        k = (n_max - 2 * lo) // 2 + 1           # r2[2 lo + 2j] for j < k
        even = r2[2 * lo::2][:k]
        block = _r2_block(k)
        if block >= k:
            block, size = k, 1 << (2 * k - 2).bit_length()
        else:
            size = 2 * block                    # >= 2 block - 1: no wrap-around
        count = -(-k // block)
        # po[edges[i]:edges[i + 1]] fall on half-grid block i
        edges = np.searchsorted(
            po, lo + 2 * np.minimum(block * np.arange(count + 1), k))
        spectra = np.empty((count, size // 2 + 1), dtype=np.complex128)
        half = np.empty(block)
        for i in range(count):
            a, b = edges[i], edges[i + 1]
            half.fill(0.0)
            half[(po[a:b] - lo) // 2 - block * i] = wo[a:b]
            spectra[i] = np.fft.rfft(half, size)
        spec = np.empty(size // 2 + 1, dtype=np.complex128)
        term = np.empty_like(spec)
        for s in range(count):
            spec.fill(0.0)
            for i in range((s + 1) // 2):       # the pairs i < s - i
                np.multiply(spectra[i], spectra[s - i], out=term)
                spec += term
            spec *= 2.0
            if s % 2 == 0:
                np.multiply(spectra[s // 2], spectra[s // 2], out=term)
                spec += term
            out = even[block * s:block * s + size]
            out += np.fft.irfft(spec, size)[:out.size]
    for e, w in zip(pe.tolist(), we.tolist()):
        j = np.searchsorted(po, n_max - e, side="right")
        r2[e + po[:j]] += (2.0 * w) * wo[:j]    # e + o and o + e
        j = np.searchsorted(pe, n_max - e, side="right")
        r2[e + pe[:j]] += w * we[:j]
    return r2


def r2_all(table: ArithmeticTable) -> np.ndarray:
    """r_2(n) = sum_{l+m=n} Lambda(l) Lambda(m) for all n <= limit.

    Parity-split FFT self-convolution over the prime powers
    (``r2_convolve``, which states its error bound against the direct
    double loop); odd entries and structural zeros are exact sums.
    """
    pp = np.nonzero(table.lam)[0].astype(np.int64)
    return r2_convolve(pp, table.lam[pp], table.limit)


def singular_series(n: int) -> float:
    """S_2(n): zero for odd n, else 2*C_2 * prod_{p|n, p>2} (p-1)/(p-2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2 == 1:
        return 0.0
    value = 2.0 * TWIN_PRIME_CONSTANT
    m = n
    while m % 2 == 0:
        m //= 2
    p = 3
    while p * p <= m:
        if m % p == 0:
            value *= (p - 1.0) / (p - 2.0)
            while m % p == 0:
                m //= p
        p += 2
    if m > 1:
        value *= (m - 1.0) / (m - 2.0)
    return value


def singular_series_all(x_max: int) -> np.ndarray:
    """S_2(n) for all n <= x_max via a multiplicative sieve.

    Each even n starts at 2 C_2 and is multiplied by (p - 1)/(p - 2) for
    every odd prime p | n, in ascending p.  The primes are split at
    sqrt(x_max/2): n = 2k with k <= x_max/2 has at most one odd prime
    factor above it, as two would make k larger than x_max/2.  The small
    primes (95 at x_max = 5e5) each take one strided multiply, in
    ascending order.  The large ones go after them, one pass per cofactor
    j: a fancy-indexed multiply at the indices 2jp of every large p <=
    (x_max/2)/j, in slices of ``_LARGE_SLICE`` primes.  An index 2jp
    belongs to one large p only, so no index repeats within a multiply,
    and its one large factor comes last.  Each S_2(n) is therefore the
    same product in the same order as in a loop over all primes:
    bit-identical to it.
    """
    s2 = np.zeros(x_max + 1)
    s2[2::2] = 2.0 * TWIN_PRIME_CONSTANT
    half = x_max // 2
    odd = primes_up_to(half)[1:]   # larger p: 2p > x_max
    k = np.searchsorted(odd, math.isqrt(half), side="right")
    for p in odd[:k].tolist():
        s2[2 * p::2 * p] *= (p - 1.0) / (p - 2.0)
    large = odd[k:]
    factors = (large - 1.0) / (large - 2.0)
    j_max = half // int(large[0]) if large.size else 0
    for j in range(1, j_max + 1):
        count = np.searchsorted(large, half // j, side="right")
        for lo in range(0, count, _LARGE_SLICE):
            hi = min(lo + _LARGE_SLICE, count)
            s2[large[lo:hi] * (2 * j)] *= factors[lo:hi]
    return s2


def _compensated_cumsum(r2: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Compensated running sum of v_n = r2[n] - n s2[n]; A_2 is a small
    difference of large sums.

    Sum2 of Ogita, Rump and Oishi (SIAM J. Sci. Comput. 26, 2005) applied
    to every prefix: s = cumsum(v), the exact rounding error of each step
    by TwoSum, e_i = (s_{i-1} - (s_i - t)) + (v_i - t) with
    t = s_i - s_{i-1} and e_0 = 0, and the result s + cumsum(e).  With
    u = 2**-53 and gamma_k = k u / (1 - k u), each prefix S_k obeys

        |out[k] - S_k| <= u |S_k| + gamma_k**2 * sum_{i<=k} |v_i|.

    The steps and both running sums are formed ``_SUM_BLOCK`` entries at a
    time, each block's cumsums started from the last s_i and cumsum(e) of
    the block before.  A cumsum is one sequential chain of adds, so the
    result is bit for bit the same for any block size.
    """
    out = np.empty(r2.size)
    m = min(_SUM_BLOCK, r2.size)
    v = np.empty(m)
    t = np.empty(m)
    s = np.empty(m + 1)    # s_{lo-1}, then s_lo .. s_{hi-1}
    e = np.empty(m + 1)    # sum of e_i over i < lo, then the running sum
    s_prev = e_prev = 0.0
    for lo in range(0, r2.size, _SUM_BLOCK):
        hi = min(lo + _SUM_BLOCK, r2.size)
        n = hi - lo
        vb, tb, sb, eb = v[:n], t[:n], s[:n + 1], e[:n + 1]
        np.multiply(np.arange(lo, hi, dtype=np.float64), s2[lo:hi], out=vb)
        np.subtract(r2[lo:hi], vb, out=vb)
        sb[0] = s_prev
        sb[1:] = vb
        np.cumsum(sb, out=sb)
        np.subtract(sb[1:], sb[:-1], out=tb)
        vb -= tb
        np.subtract(sb[1:], tb, out=tb)
        np.subtract(sb[:-1], tb, out=tb)
        eb[0] = e_prev
        np.add(tb, vb, out=eb[1:])
        np.cumsum(eb, out=eb)
        np.add(sb[1:], eb[1:], out=out[lo:hi])
        s_prev, e_prev = sb[-1], eb[-1]
    return out


def a2_curve(table: ArithmeticTable) -> GoldbachSums:
    """Cumulative A_2(x) = sum_{n<=x} (r_2(n) - n S_2(n)) at integer x."""
    r2 = r2_all(table)
    s2 = singular_series_all(table.limit)
    return GoldbachSums(r2=r2, s2=s2, a2=_compensated_cumsum(r2, s2))


def brute_force_sums(table: ArithmeticTable, s2: np.ndarray) -> GoldbachSums:
    """The O(x^2) reference for ``a2_curve``, for desk scale (x <= 2000).

    r_2(m) is the dot product of Lambda(1..m-1) with its reverse, and A_2
    the plain cumulative sum of r_2(n) - n S_2(n), with s2 = S_2(0..limit)
    as given.
    """
    lam = table.lam
    r2 = np.zeros(table.limit + 1)
    for m in range(2, table.limit + 1):
        r2[m] = float(np.dot(lam[1:m], lam[m - 1:0:-1]))
    n = np.arange(table.limit + 1, dtype=float)
    return GoldbachSums(r2=r2, s2=s2, a2=np.cumsum(r2 - n * s2))


def compare_main_term(sums: GoldbachSums, coeffs: CoefficientTable, n: int,
                      x_grid) -> list[dict]:
    """Rows (x, A_2, main term, residual, residual/(x log^3 x)) per grid x."""
    x_grid = sorted(int(x) for x in x_grid)
    if not x_grid or x_grid[0] < 2 or x_grid[-1] >= len(sums.a2):
        raise RangeError("x_grid must lie within [2, x_max]")
    f = eval_f_N(coeffs, n, [math.log(x) for x in x_grid]).real.tolist()
    rows = []
    for x, f_real in zip(x_grid, f):
        main = -4.0 * x ** 1.5 * f_real
        residual = float(sums.a2[x]) - main
        rows.append({
            "x": x,
            "a2": float(sums.a2[x]),
            "main_term": main,
            "residual": residual,
            "normalized_residual": residual / (x * math.log(x) ** 3),
        })
    return rows
