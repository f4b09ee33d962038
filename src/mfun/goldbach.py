"""Desk-scale Goldbach arithmetic: von Mangoldt sieve, the weighted
representation counts r_2(n), the singular series S_2(n), the summatory
residue A_2(x), and its comparison against the zero-sum main term, with
an O(x^2) brute-force reference for r_2 and A_2.

r_2, S_2 and A_2 come from one block engine (``_a2_slices``): for each
block of n in ascending order it forms r_2, then S_2, then the compensated
A_2 sums, and carries only the convolution's overlap-add tail and the two
running sums to the next block.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _per_block
from .errors import RangeError
from .spectral import CoefficientTable, eval_f_N

__all__ = [
    "ArithmeticTable", "sieve_lambda", "r2_convolve",
    "TWIN_PRIME_CONSTANT", "singular_series", "singular_series_all",
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


@dataclass(frozen=True)
class ArithmeticTable:
    """Von Mangoldt's Lambda(n) for 0 <= n <= limit, held on its support.

    pp: the prime powers p^k <= limit, ascending (int64); lam_pp: Lambda
    there, math.log(p) (float64).  The two take 16 bytes per prime power
    (10 MiB at limit = 1e7), where a dense table takes 8 (limit + 1).
    """
    limit: int
    pp: np.ndarray
    lam_pp: np.ndarray

    @property
    def lam(self) -> np.ndarray:
        """The dense table Lambda(0..limit) (Lambda(0) = Lambda(1) = 0),
        built anew at each access: an array of limit + 1 doubles, for the
        brute force and the tests."""
        lam = np.zeros(self.limit + 1)
        lam[self.pp] = self.lam_pp
        return lam


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
    """Exact Lambda table: log p at the prime powers p^k <= x_max."""
    if not 2 <= x_max <= X_MAX_GUARD:
        raise RangeError(f"x_max={x_max} outside the desk-scale guard "
                         f"[2, {X_MAX_GUARD}]")
    primes = primes_up_to(x_max)
    # math.log, not np.log: the two differ by an ulp at some primes.  The
    # array is iterated directly: a list of all primes would be a transient
    # of about 40 bytes per prime.
    logs = np.fromiter(map(math.log, primes), dtype=np.float64,
                       count=primes.size)
    k = np.searchsorted(primes, math.isqrt(x_max), side="right")
    powers = []   # (p^j, log p) for j >= 2: 337 pairs at x_max = 1e7
    for p, logp in zip(primes[:k].tolist(), logs[:k].tolist()):
        q = p * p
        while q <= x_max:
            powers.append((q, logp))
            q *= p
    powers.sort()
    at = np.searchsorted(primes, [q for q, _ in powers])
    return ArithmeticTable(
        limit=x_max, pp=np.insert(primes, at, [q for q, _ in powers]),
        lam_pp=np.insert(logs, at, [w for _, w in powers]))


def _r2_block(k):
    """Half-grid points per block of ``r2_convolve``: the power of two at or
    above 64 sqrt(k), so that the blocks (k / B of them) and the block
    transforms (length 2B) both grow like sqrt(k)."""
    return 1 << (math.ceil(64.0 * math.sqrt(k)) - 1).bit_length()


def r2_convolve(pp, lam_pp, n_max):
    """Self-convolution r2[n] = sum_{l+m=n} w(l) w(m) of weights on a support,
    handed out block by block.

    pp: ascending support indices (the prime powers, for Lambda), lam_pp:
    the matching weights w.  Returns an iterator of pairs (a, r2[a:b]) whose
    ranges [a, b) follow each other from 0 to n_max + 1; each block is
    final when it is handed out, and a fresh array.

    The sum is split by parity.  Odd + odd gives the even n: a real FFT
    convolution of the odd weights on the half grid (2i + 1 -> i, offset by
    the least odd index).  Odd n, and even n from two even indices, are
    short exact sums added directly, one shifted copy per even index (for
    Lambda the ~log2(x) powers of two).  So every odd entry is a sum of at
    most one product per even index, a structural zero there (3, 149, 331,
    373, ...) stays exactly 0.0, and entries below twice the least index
    get no FFT term.

    The half grid (k points) is cut into blocks W_i of B = ``_r2_block(k)``
    points, each transformed once at length L = 2B before this function
    returns.  Those spectra, about k complex values (as much memory as
    n_max doubles), are what the iterator keeps, until the last block's
    products are formed, beside four buffers of at most 2B doubles (the
    spectrum sum, the inverse transform, the carried tail and the block
    handed out).  The odd indices are sliced out of pp block by block, so
    no odd-only copy of the support is made.  Output block s is the
    inverse transform of sum_{i+j=s} W_i W_j (each pair i < j taken once
    and doubled), and its first B values are added to the last B of block
    s - 1 (overlap-add, Stockham 1966).  After step s the half grid below
    B(s + 1) is final, and so is r2 below n = 2 lo + 2B(s + 1): that range
    is handed out with the even-index sums for it added, in ascending even
    index as over the whole range.  So each entry is the same sum in the
    same order as in one whole-range array.  When one block holds the grid,
    L is the power of two 1 << (2k - 2).bit_length() >= 2k - 1, and the one
    block is all of r2.

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
    even = pp % 2 == 0
    pe, we = pp[even], lam_pp[even]
    # the least odd index; without one, n_max + 1 (no odd + odd sums)
    lo = int(pp[even.argmin()]) if not even.all() else n_max + 1
    del even
    even_sums = list(zip(pe.tolist(), we.tolist()))

    def odd_in(a, b):
        """The odd support indices in [a, b) and their weights."""
        i, j = np.searchsorted(pp, (a, b))
        keep = pp[i:j] % 2 == 1
        return pp[i:j][keep], lam_pp[i:j][keep]

    def finish(a, b, start=0, odd_sums=None):
        """r2[a:b], given the odd + odd sums at its even n from start on."""
        out = np.zeros(b - a)
        if odd_sums is not None:
            out[start - a::2] = odd_sums
        for e, w in even_sums:
            po, wo = odd_in(a - e, b - e)
            out[po + (e - a)] += (2.0 * w) * wo   # e + o and o + e
            i, j = np.searchsorted(pe, (a - e, b - e))
            out[pe[i:j] + (e - a)] += w * we[i:j]
        return out

    if 2 * lo > n_max:
        return iter([(0, finish(0, n_max + 1))])
    k = (n_max - 2 * lo) // 2 + 1               # r2[2 lo + 2j] for j < k
    block = _r2_block(k)
    if block >= k:
        block, size = k, 1 << (2 * k - 2).bit_length()
    else:
        size = 2 * block                        # >= 2 block - 1: no wrap-around
    count = -(-k // block)
    spectra = np.empty((count, size // 2 + 1), dtype=np.complex128)
    half = np.empty(block)
    for i in range(count):
        po, wo = odd_in(lo + 2 * block * i, lo + 2 * min(block * (i + 1), k))
        half.fill(0.0)
        half[(po - lo) // 2 - block * i] = wo
        np.fft.rfft(half, size, out=spectra[i])
    del half, po, wo

    def blocks():
        nonlocal spectra
        spec = np.empty(size // 2 + 1, dtype=np.complex128)
        # a frequency's sum, term and pair of spectrum values (64 bytes) in
        # half the budget: the products take a chunk, not a spectrum
        chunk = _per_block(128)
        term = np.empty(min(chunk, spec.size), dtype=np.complex128)
        cur = np.empty(size)      # inverse transform of output block s
        tail = np.zeros(block)    # what block s - 1 adds to its head
        a = 0
        for s in range(count):
            # sum_{i+j=s} W_i W_j, a chunk of frequencies at a time
            for c in range(0, spec.size, chunk):
                part = spec[c:c + chunk]
                t = term[:part.size]
                part.fill(0.0)
                for i in range((s + 1) // 2):   # the pairs i < s - i
                    np.multiply(spectra[i, c:c + part.size],
                                spectra[s - i, c:c + part.size], out=t)
                    part += t
                part *= 2.0
                if s % 2 == 0:
                    mid = spectra[s // 2, c:c + part.size]
                    np.multiply(mid, mid, out=t)
                    part += t
            if s + 1 == count:
                spectra = None    # the last step has read them all
            np.fft.irfft(spec, size, out=cur)
            cur[:block] += tail
            if s + 1 < count:
                np.add(cur[block:], 0.0, out=tail)   # 0.0 + x, as into zeros
            b = min(2 * lo + 2 * block * (s + 1), n_max + 1)
            yield a, finish(a, b, 2 * lo + 2 * block * s,
                            cur[:min(block, k - block * s)])
            a = b

    return blocks()


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


def singular_series_all(x_max: int, lo: int = 0, primes=None) -> np.ndarray:
    """S_2(n) for lo <= n <= x_max via a multiplicative sieve.

    primes: the ascending odd primes up to at least x_max // 2 (more are
    ignored), sieved here when not given.

    Each even n >= 2 starts at 2 C_2 and is multiplied by (p - 1)/(p - 2)
    for every odd prime p | n, in ascending p.  The primes are split at
    sqrt(x_max/2): n = 2m with m <= x_max/2 has at most one odd prime
    factor above it, as two would make m larger than x_max/2.  The small
    primes (95 at x_max = 5e5) each take one strided multiply, in
    ascending order.  The large ones go after them.  Those no wider than
    the range (p <= m_hi - m_lo + 1, in the range's m = n/2) are stepped
    through their multiples m = jp in the range, a budget of primes at a
    time, one fancy-indexed multiply per step, dropping each prime
    past its last multiple.  A wider prime has at most one multiple there,
    so they are taken by cofactor: for each j, the wide primes in the
    window [m_lo/j, m_hi/j], one multiply per window.  Only primes with a
    multiple in the range are read.  An index belongs to one large p only,
    so no index repeats within a multiply, and its one large factor comes
    last.  Each S_2(n) is therefore the same product in the same order as
    in a loop over all primes on the whole range: bit-identical to it, for
    any [lo, x_max].
    """
    s2 = np.zeros(x_max - lo + 1)
    s2[max(2, lo + lo % 2) - lo::2] = 2.0 * TWIN_PRIME_CONSTANT
    half = x_max // 2
    if primes is None:
        odd = primes_up_to(half)[1:]     # larger p: 2p > x_max
    else:
        odd = primes[:np.searchsorted(primes, half, side="right")]
    k = np.searchsorted(odd, math.isqrt(half), side="right")
    for p in odd[:k].tolist():
        first = max(2 * p, -(-lo // (2 * p)) * 2 * p)
        s2[first - lo::2 * p] *= (p - 1.0) / (p - 2.0)
    m_lo = max(1, -(-lo // 2))          # the range's m = n / 2
    large = odd[k:]
    # large[wide:] are wider than the range's half - m_lo + 1 values of m
    wide = np.searchsorted(large, half - m_lo + 1, side="right")
    step = _per_block(32)   # a prime, its factor, multiple and index
    for i in range(0, wide, step):
        p = large[i:min(i + step, wide)]
        f = (p - 1.0) / (p - 2.0)
        m = -(-m_lo // p) * p           # the least multiple >= m_lo
        while True:
            keep = m <= half
            if not keep.all():
                p, f, m = p[keep], f[keep], m[keep]
            if not p.size:
                break
            s2[2 * m - lo] *= f
            m += p
    if wide < large.size:
        cof = np.arange(1, half // int(large[wide]) + 1)
        starts = np.maximum(np.searchsorted(large, -(-m_lo // cof)), wide)
        stops = np.searchsorted(large, half // cof, side="right")
        for j, a, b in zip(cof.tolist(), starts.tolist(), stops.tolist()):
            if a < b:
                p = large[a:b]
                s2[2 * j * p - lo] *= (p - 1.0) / (p - 2.0)
    return s2


def _a2_slices(table: ArithmeticTable):
    """The block engine: (lo, r2, a2) for consecutive slices lo .. hi - 1 of
    0 .. limit, ascending, each of at most a budget of entries.

    r_2 comes from ``r2_convolve`` one finished block at a time, S_2 from
    ``singular_series_all`` on the same n-range, and A_2(n) is the
    compensated running sum of v_n = r_2(n) - n S_2(n): Sum2 of Ogita, Rump
    and Oishi (SIAM J. Sci. Comput. 26, 2005) applied to every prefix.
    That is s = cumsum(v), the exact rounding error of each step by TwoSum,
    e_i = (s_{i-1} - (s_i - t)) + (v_i - t) with t = s_i - s_{i-1} and
    e_0 = 0, and A_2 = s + cumsum(e).  With u = 2**-53 and
    gamma_k = k u / (1 - k u), each prefix S_k obeys

        |A_2(k) - S_k| <= u |S_k| + gamma_k**2 * sum_{i<=k} |v_i|.

    Each slice's cumsums start from the last s_i and cumsum(e) of the
    slice before; those two numbers and the convolution's overlap-add tail
    are all that passes from one block to the next.  A cumsum is one
    sequential chain of adds, so A_2 is bit for bit the same for any block
    or slice size.  The r2 and a2 slices are reused buffers, valid until
    the next slice is drawn, so a caller holds no block of the engine.
    """
    odd = primes_up_to(table.limit // 2)[1:]
    step = _per_block(64)   # six buffers, n and S_2(n): 8 bytes each
    m = min(step, table.limit + 1)
    r, v, t, a2 = np.empty(m), np.empty(m), np.empty(m), np.empty(m)
    s = np.zeros(m + 1)    # s_{lo-1}, then s_lo .. s_{hi-1}
    e = np.zeros(m + 1)    # sum of e_i over i < lo, then the running sum
    for a, r2 in r2_convolve(table.pp, table.lam_pp, table.limit):
        s2 = singular_series_all(a + r2.size - 1, a, odd)
        for lo in range(0, r2.size, step):
            hi = min(lo + step, r2.size)
            n = hi - lo
            rb, vb, tb, ab = r[:n], v[:n], t[:n], a2[:n]
            sb, eb = s[:n + 1], e[:n + 1]
            rb[:] = r2[lo:hi]
            np.multiply(np.arange(a + lo, a + hi, dtype=np.float64),
                        s2[lo:hi], out=vb)
            np.subtract(rb, vb, out=vb)
            sb[1:] = vb
            np.cumsum(sb, out=sb)
            np.subtract(sb[1:], sb[:-1], out=tb)
            vb -= tb
            np.subtract(sb[1:], tb, out=tb)
            np.subtract(sb[:-1], tb, out=tb)
            np.add(tb, vb, out=eb[1:])
            np.cumsum(eb, out=eb)
            np.add(sb[1:], eb[1:], out=ab)
            s[0], e[0] = sb[-1], eb[-1]
            yield a + lo, rb, ab
        del r2, s2    # no block is held while the next one is made


def a2_curve(table: ArithmeticTable, grid) -> dict[int, float]:
    """Cumulative A_2(x) = sum_{n<=x} (r_2(n) - n S_2(n)) at integer x.

    Returns {x: A_2(x)} for each x of grid (integers in [0, limit]), in
    ascending x, read off the block engine's slices (``_a2_slices``, which
    states the compensated sum's bound) as they pass.  Nothing of length
    limit is made: the memory is the spectra and buffers of one block and
    the mapping.  A caller that needs every x passes ``range(limit + 1)``.
    """
    xs = sorted({int(x) for x in grid})
    if xs and not 0 <= xs[0] <= xs[-1] <= table.limit:
        raise RangeError(f"grid must lie within [0, {table.limit}]")
    picked, i = {}, 0
    for lo, _, a2 in _a2_slices(table):
        j = bisect.bisect_left(xs, lo + a2.size, i)
        picked.update((x, float(a2[x - lo])) for x in xs[i:j])
        i = j
    return picked


def brute_force_sums(table: ArithmeticTable,
                     s2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The O(x^2) reference for ``a2_curve``, for desk scale (x <= 2000):
    the arrays (r2, a2) over 0 .. limit.

    r_2(m) is the dot product of Lambda(1..m-1) with its reverse, and A_2
    the plain cumulative sum of r_2(n) - n S_2(n), with s2 = S_2(0..limit)
    as given.
    """
    lam = table.lam
    r2 = np.zeros(table.limit + 1)
    for m in range(2, table.limit + 1):
        r2[m] = float(np.dot(lam[1:m], lam[m - 1:0:-1]))
    n = np.arange(table.limit + 1, dtype=float)
    return r2, np.cumsum(r2 - n * s2)


def compare_main_term(a2, coeffs: CoefficientTable, n: int,
                      x_grid) -> list[dict]:
    """Rows (x, A_2, main term, residual, residual/(x log^3 x)) per grid x.

    a2[x] is A_2(x), as in the mapping that ``a2_curve(table, x_grid)``
    returns.
    """
    x_grid = sorted(int(x) for x in x_grid)
    try:
        values = [float(a2[x]) for x in x_grid]
    except (IndexError, KeyError):
        values = None
    if not x_grid or x_grid[0] < 2 or values is None:
        raise RangeError("x_grid must lie within [2, x_max]")
    f = eval_f_N(coeffs, n, [math.log(x) for x in x_grid]).real.tolist()
    rows = []
    for x, a2_x, f_real in zip(x_grid, values, f):
        main = -4.0 * x ** 1.5 * f_real
        residual = a2_x - main
        rows.append({
            "x": x,
            "a2": a2_x,
            "main_term": main,
            "residual": residual,
            "normalized_residual": residual / (x * math.log(x) ** 3),
        })
    return rows
