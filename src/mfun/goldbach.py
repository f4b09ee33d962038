"""Desk-scale Goldbach arithmetic: von Mangoldt sieve, the singular
series S_2(n), the summatory residue A_2(x) = sum_{n<=x} (r_2(n) - n S_2(n))
of the weighted representation counts r_2(n), and its comparison against
the zero-sum main term, with an O(x^2) brute-force reference for r_2 and
A_2.

A_2 is only ever read at a grid, so no r_2(n) is formed: ``a2_curve``
takes sum_{n<=x} r_2(n) from sums of Lambda(l) psi(x - l) over the prime
powers l <= x/2 (``_pair_sums``), and sum_{n<=x} n S_2(n) from one
compensated running sum over blocks of the S_2 sieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _per_block
from .errors import RangeError
from .spectral import CoefficientTable, eval_f_N

__all__ = [
    "ArithmeticTable", "sieve_lambda",
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
    pp = primes_up_to(x_max)   # the primes, then the powers go in
    powers = []   # (p^j, p) for j >= 2: 337 pairs at x_max = 1e7
    for p in pp[pp <= math.isqrt(x_max)].tolist():
        q = p * p
        while q <= x_max:
            powers.append((q, p))
            q *= p
    powers.sort()
    at = np.searchsorted(pp, [q for q, _ in powers])
    pp = np.insert(pp, at, [q for q, _ in powers])   # frees the primes
    # The powers sit at at + arange in pp: their log p^j becomes log p.
    # math.log, not np.log: the two differ by an ulp at some primes.  pp is
    # iterated directly: a list of it would take 40 bytes an entry.
    lam_pp = np.fromiter(map(math.log, pp), dtype=np.float64, count=pp.size)
    lam_pp[at + np.arange(at.size)] = [math.log(p) for _, p in powers]
    return ArithmeticTable(limit=x_max, pp=pp, lam_pp=lam_pp)


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


def _sum2(v, s, e):
    """Running compensated sums of the 1-D v, carried on from the running
    sums s and e: the arrays (s, e), of v's size, whose s + e is each
    prefix.

    This is Sum2 of Ogita, Rump and Oishi (SIAM J. Sci. Comput. 26, 2005)
    on every prefix: s = cumsum(v), the exact rounding error of each add
    by TwoSum, e_i = (s_{i-1} - (s_i - t)) + (v_i - t) with
    t = s_i - s_{i-1}, and e = cumsum(e_i).  With u = 2**-53 and
    gamma_k = k u / (1 - k u), each rounded prefix s + e of k terms is
    within u |S_k| + gamma_k**2 sum_{i<=k} |v_i| of the exact S_k.  A
    cumsum is one sequential chain of adds, so no prefix depends on how v
    is cut into calls.  Five arrays of v's size are live: 40 bytes a cell.
    """
    s_run = np.concatenate(([s], v))
    np.cumsum(s_run, out=s_run)
    t = np.subtract(s_run[1:], s_run[:-1])
    err = np.subtract(v, t)
    np.subtract(s_run[1:], t, out=t)
    np.subtract(s_run[:-1], t, out=t)
    t += err
    e_run = np.concatenate(([e], t))
    np.cumsum(e_run, out=e_run)
    return s_run[1:], e_run[1:]


def _ranker(pp: np.ndarray, top: int):
    """rank(y), the number of prime powers <= y, for an int64 array of y
    in [0, top], from pp, the ascending prime powers.

    Bit y % 64 of word y // 64 of a bitmap marks each prime power y <= top,
    and before[w] counts the bits set in the words before w.  So rank(y)
    is before[y // 64] plus the set bits of y's word shifted left by
    63 - y % 64, which keeps the bits <= y: the rank/select structure of
    Jacobson (FOCS 1989).  The two arrays take top / 4 bytes.  The bitmap
    is built a budget of prime powers at a time.
    """
    words = np.zeros(top // 64 + 1, dtype=np.uint64)
    step = _per_block(32)   # a prime power, its mask, word and bit
    for a in range(0, pp.size, step):
        p = pp[a:a + step]
        p = p[p <= top]
        np.bitwise_or.at(words, p >> 6, 1 << (p & 63).view(np.uint64))
    before = np.zeros(words.size, dtype=np.int64)   # set bits before word w
    np.cumsum(np.bitwise_count(words[:-1]), dtype=np.int64, out=before[1:])

    def rank(y):   # ~y & 63 is 63 - y % 64
        w = y >> 6
        return before[w] + np.bitwise_count(words[w] << (~y & 63).view("u8"))
    return rank


def _pair_sums(table: ArithmeticTable, xs: np.ndarray):
    """R(x) = sum_{n<=x} r_2(n), the sum of Lambda(l) Lambda(m) over the
    pairs l + m <= x, at each x of xs (ascending int64 within [0, limit]),
    as the running sums (s, e) of a Sum2 chain: R(x) ~ s + e.

    A pair with l + m <= x has min(l, m) <= x/2, so

        R(x) = -psi(floor(x/2))**2 + sum_{l <= x/2} 2 Lambda(l) psi(x - l)

    with Chebyshev's psi(y) = sum_{m<=y} Lambda(m).  psi is held at the
    prime powers as their compensated running sum, rounded once and
    doubled (exactly), and 2 psi(x - l) is read there at the rank of
    x - l, from ``_ranker``'s bitmap of the prime powers up to max(xs)
    (max(xs) / 4 bytes).  Each R(x) is its own chain of ``_sum2``: it
    starts at -psi(floor(x/2))**2, squared exactly from psi's unrounded
    running sums, and adds its rank(x/2) terms in ascending l, a budget
    of terms at a time, carried from block to block.  So each R(x) is the
    same chain of adds for any budget and any grid around it.  A block
    cell holds its key, word, rank and term and ``_sum2``'s arrays: 64
    bytes.

    Error bound (u = 2**-53, R the exact sum of the table's doubles): each
    term is within 2u of its own, from the rounding of psi and of the
    product, so that, with Sum2's gamma_k**2 parts (k <= x) below u / 80,

        |s + e - R(x)| <= 3 u (R(x) + psi(floor(x/2))**2).
    """
    rank = _ranker(table.pp, int(xs[-1]))
    k = int(rank(xs[-1:])[0])   # every y read
    terms = rank(xs // 2)   # l <= x/2 per x
    psi = np.empty(k + 1)    # psi[i] = 2 psi(pp[i - 1]), psi[0] = 0
    psi[0] = s = e = 0.0
    half_s, half_e = np.zeros(xs.size), np.zeros(xs.size)   # psi(x/2) = s + e
    step = _per_block(40)
    for a in range(0, k, step):
        run_s, run_e = _sum2(table.lam_pp[a:min(a + step, k)], s, e)
        np.add(run_s, run_e, out=psi[a + 1:a + 1 + run_s.size])
        s, e = run_s[-1], run_e[-1]
        i, j = np.searchsorted(terms, (a + 1, a + 1 + run_s.size))
        half_s[i:j] = run_s[terms[i:j] - a - 1]
        half_e[i:j] = run_e[terms[i:j] - a - 1]
    psi *= 2.0   # exact: 2 psi(y) Lambda(l) is one rounding
    # psi(x/2)**2 = sq + sq_err up to half_e**2: half_s split into halves
    # of 26 bits (Dekker 1971) gives the rounding error of its square exactly
    sq = half_s * half_s
    hi = half_s * 134217729.0   # 2**27 + 1
    hi -= hi - half_s
    lo = half_s - hi
    sq_err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo + 2.0 * half_s * half_e
    sums, errs = 0.0 - sq, 0.0 - sq_err   # R(x)'s running sums, per x
    cells = _per_block(64)
    for r, (x, m) in enumerate(zip(xs.tolist(), terms.tolist())):
        for c in range(0, m, cells):
            t = psi[rank(x - table.pp[c:min(c + cells, m)])]
            t *= table.lam_pp[c:c + t.size]
            run_s, run_e = _sum2(t, sums[r], errs[r])
            sums[r], errs[r] = run_s[-1], run_e[-1]
    return sums, errs


def a2_curve(table: ArithmeticTable, grid) -> dict[int, float]:
    """Cumulative A_2(x) = sum_{n<=x} (r_2(n) - n S_2(n)) at integer x.

    Returns {x: A_2(x)} for each x of grid (integers in [0, limit]), in
    ascending x, as A_2(x) = R(x) - T(x).  R comes from the pair sums of
    ``_pair_sums``, one chain per x, and T(x) = sum_{n<=x} n S_2(n) from
    one Sum2 chain over the even n (``_sum2``), carried across
    ``singular_series_all`` blocks of a budget of doubles, in slices of a
    budget of ``_sum2`` cells, and read at the grid as it passes.  S_2 is
    0.0 at every odd n, and adding +0.0 leaves both running sums as they
    were, so an odd x reads T(x - 1) and T is the same bits as the chain
    over every n.  The two chains' running sums are subtracted before
    they are added: beyond the first few x, R and T lie within a factor 2
    of each other, so s_R - s_T is exact (Sterbenz) and A_2 is rounded
    once.  The odd primes the sieve of S_2 needs are taken from the
    table's support.  Nothing of length limit is made, and no r_2(n) is
    formed: the memory is psi at the prime powers, the rank's max(grid) / 4
    bytes, the odd primes up to max(grid) / 2 and one block.

    Error bound (u = 2**-53; R, T and A_2 the exact sums of the table's
    Lambda and of S_2 as ``singular_series_all`` gives it; x <= 1e7):

        |a2_curve(x) - A_2(x)| <= 5 u (R(x) + psi(floor(x/2))**2 + T(x)).

    That is R's bound, u T for the products n S_2(n) and two roundings of
    A_2.  Against the exact sums at 60 points up to x = 2e4 (2e5) the
    error was at most 1.6e-9 (7.0e-8).  A_2 is the same bits for any
    budget and grid.
    """
    xs = sorted({int(x) for x in grid})
    if not xs:
        return {}
    if not 0 <= xs[0] <= xs[-1] <= table.limit:
        raise RangeError(f"grid must lie within [0, {table.limit}]")
    x = np.array(xs, dtype=np.int64)
    r_s, r_e = _pair_sums(table, x)
    # The odd primes <= max(grid) / 2: a prime's log p is above every
    # Lambda before it, and a power p^k (k >= 2) comes after a prime above p.
    lam = table.lam_pp[:np.searchsorted(table.pp, xs[-1] // 2, side="right")]
    odd = table.pp[:lam.size][lam == np.maximum.accumulate(lam)][1:]
    t_s, t_e = np.empty(x.size), np.empty(x.size)
    s = e = 0.0
    # sub: half a budget of _sum2 cells (40 bytes), so that a slice spans
    # a budget's n.  A whole budget of cells read 0.47 MiB more peak RSS in
    # perfbench's arithmetic workload (heap layout, not live arrays).
    step, sub = _per_block(8), _per_block(80)
    for lo in range(0, xs[-1] + 1, step):
        hi = min(lo + step, xs[-1] + 1)
        v = singular_series_all(hi - 1, lo, odd)
        for a in range(lo + lo % 2, hi, 2 * sub):   # the even n only
            vs = v[a - lo:a - lo + 2 * sub:2]
            vs *= np.arange(a, a + 2 * vs.size, 2, dtype=np.float64)
            run_s, run_e = _sum2(vs, s, e)
            s, e = run_s[-1], run_e[-1]
            i, j = np.searchsorted(x, (a, a + 2 * vs.size))
            k = (x[i:j] - a) // 2   # an odd x reads the even n = x - 1
            t_s[i:j], t_e[i:j] = run_s[k], run_e[k]
    return dict(zip(xs, ((r_s - t_s) + (r_e - t_e)).tolist()))


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
