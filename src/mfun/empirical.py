"""Empirical routes to the limit law: Haar Monte-Carlo on the torus,
time averages over the shift parameter, and closed-form Weyl sums.

The Haar and time-average means are both means of Phi over a stream of
points (``phasor_sum`` of drawn phases, ``f_grid_chunks`` on the alpha
grid), summed by one engine (``_stream_sums``) per block of points.

Monte-Carlo draws from ``splitmix64``, a counter-based SplitMix64 stream
keyed by a 64-bit seed: each angle is a 24-bit integer phase, the top 24
bits of one word, in units of 2pi/2^24, so a fixed seed reproduces
results bit for bit.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import threading
from dataclasses import dataclass

import numpy as np

from ._kernels import (GRID_BLOCK, _per_block, expi, f_grid_chunks,
                       phasor_sum, splitmix64)
from .density import DensityProfile, integrate_against
from .errors import MfunError, RangeError
from .spectral import CoefficientTable

__all__ = [
    "haar_oracle", "alpha_average_many", "weyl_test", "weyl_frequency",
    "compare_report", "CompareReport",
]

MIN_HAAR_SAMPLES = 10 ** 4
RESONANCE_FLOOR = 1e-9
TREND_FLOOR = 2e-3


class ResonanceError(MfunError):
    """The integer combination of ordinates is numerically near zero."""


def _chunk_points():
    """Points per stream chunk: whole grid blocks of 16-byte points in two
    budgets (2^16 points, 1 MiB), each Phi taken on slices of it.  Smaller
    chunks pay the per-chunk Python overhead more often."""
    return 2 * _per_block(16 * GRID_BLOCK) * GRID_BLOCK


def _usable_cpus():
    """The CPUs this process may run on; 1 where the platform cannot say."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def _split_point(total):
    """Where a stream of total points is split between this process and a
    forked child: the GRID_BLOCK multiple at or below the middle, or 0 to
    run the stream in this process alone.  A stream of more than one
    chunk is split, except where there is no ``os.fork`` or no second
    usable CPU and where another thread runs (a forked child would hold a
    copy of its locks)."""
    if (not hasattr(os, "fork") or _usable_cpus() < 2
            or threading.active_count() > 1 or total <= _chunk_points()):
        return 0
    return total // (2 * GRID_BLOCK) * GRID_BLOCK


def _range_sums(chunks, phis, keep):
    """Runs each Phi over one range of a stream: chunks iterates over its
    points as complex arrays of whole GRID_BLOCK blocks (only the last may
    end early), and keep(blocks, sums) takes each chunk's block count and,
    per Phi, its sums over each block.  A Phi runs on slices of whole
    blocks, 80 bytes a point: what a character, the costliest kind, holds
    with its share of ``expi``'s block and the last slice.  Returns the
    iterator's value."""
    width = _per_block(80 * GRID_BLOCK) * GRID_BLOCK
    while True:
        try:
            w = next(chunks)
        except StopIteration as stop:
            return stop.value
        sums = []
        for phi in phis:
            parts = []
            for lo in range(0, w.size, width):
                vals = phi(w[lo:lo + width])
                parts.append(np.add.reduceat(
                    vals, np.arange(0, vals.size, GRID_BLOCK)))
            sums.append(np.concatenate(parts))
        keep(-(-w.size // GRID_BLOCK), sums)
        w = vals = None   # free them before the next chunk is built


def _forked(work):
    """Runs work() in a forked child, which pickles its result, or the
    exception it raised, down a pipe to this process.

    Returns (the child's pid, the pipe's read end), or None where no pipe
    or process can be made.  The child leaves only through ``os._exit``,
    so it runs no atexit handler and flushes none of the parent's buffers.
    """
    fds = []
    try:
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        try:
            os.close(fds[0])
            try:
                out = work()
            except BaseException as exc:   # sent to the parent, which raises it
                out = exc
            with os.fdopen(fds[1], "wb") as reply:
                pickle.dump(out, reply)
        finally:
            os._exit(0)
    os.close(fds[1])
    return pid, os.fdopen(fds[0], "rb")


def _stream_sums(chunks, total, phis, marks):
    """Sums sum_{j<=k} Phi(w_j) of each Phi at each ascending mark k.

    chunks(lo, hi) returns an iterator over the points w_lo .. w_{hi-1}
    (w_j a function of j alone) of a stream of total points, as complex
    arrays of whole GRID_BLOCK blocks (only the last may end early), for
    lo a GRID_BLOCK multiple.  Phi is summed per block in the dtype of its
    values (float64 for a real Phi, complex128 for a complex one) and the
    block sums added in ascending order, keeping the sum before each block
    that holds a mark.  That block is then drawn again up to its last
    mark, and a mark's sum is that sum plus the block's values up to it:
    a sum depends on the points alone, not on the chunks or the split.

    Where ``_split_point`` allows, a forked child sums the points from the
    split on and sends back its block sums per Phi (8 bytes per block of a
    real Phi, 16 of a complex one) and its iterator's value; this process
    folds them after its own in the same order.  The child stops at its
    next chunk once this process has died (killed by a signal it does not
    handle), and is reaped on every path, killed first unless it replied.

    Returns (one array over marks per Phi, the points w_k at the marks,
    the values the iterators return, one per range).
    """
    split = _split_point(total)
    parent = os.getpid()

    def child_half():
        kept = []   # per chunk, its block sums per Phi

        def keep(blocks, sums):
            if os.getppid() != parent:
                raise RuntimeError("the parent of a forked stream half died")
            kept.append(sums)
        value = _range_sums(chunks(split, total), phis, keep)
        return [np.concatenate(parts) for parts in zip(*kept)], value
    child = _forked(child_half) if split else None
    end = split if child else total
    groups = [(q, [k % GRID_BLOCK for k in ks]) for q, ks in
              itertools.groupby(marks, lambda k: k // GRID_BLOCK)]
    marked = np.array([q for q, _ in groups], dtype=np.int64)
    running = [0.0] * len(phis)   # sum of each Phi over the blocks folded
    before = [[] for _ in phis]   # per Phi, its sums before the marked blocks
    done = [0]   # the blocks folded

    def fold(blocks, sums):
        lo, hi = np.searchsorted(marked, [done[0], done[0] + blocks])
        for i, more in enumerate(sums):
            at = np.concatenate([[running[i]], more])
            np.cumsum(at, out=at)   # at[q]: the sum before block done + q
            before[i] += list(at[marked[lo:hi] - done[0]])
            running[i], at = at[-1], None   # free it before the next Phi's
        done[0] += blocks
    reply = None
    try:
        values = [_range_sums(chunks(0, end), phis, fold)]
        if child:
            try:
                reply = pickle.load(child[1])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError("the forked half of a stream ended "
                                   "without a reply") from None
            if isinstance(reply, BaseException):
                raise reply
            fold(-(-(total - split) // GRID_BLOCK), reply[0])
            values.append(reply[1])
    finally:
        if child:
            pid, pipe = child
            pipe.close()
            if reply is None:   # no reply: the child may still run
                import signal   # on this path alone: not at start-up
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    reply = None   # free the child's block sums before the redraw
    sums, points = [[] for _ in phis], []
    for j, (q, ks) in enumerate(groups):   # ks: the marks' offsets in q
        (w,) = chunks(q * GRID_BLOCK, q * GRID_BLOCK + ks[-1] + 1)
        points += w[ks].tolist()
        for i, phi in enumerate(phis):
            vals = phi(w)
            sums[i] += [before[i][j] + vals[:k + 1].sum() for k in ks]
    return ([np.array(s) for s in sums], np.array(points, dtype=np.complex128),
            values)


def haar_oracle(coeffs: CoefficientTable, n: int, phis, samples: int,
                seed: int):
    """Means of each Phi over i.i.d. Haar samples S_N of the torus.

    Every Phi is evaluated at every sample, so the means carry sampling
    noise only.  Returns (means list, max |S_N| seen).

    Angle m of sample i is 2pi k/2^24 with the integer phase k the top 24
    bits of word i*N + m of ``splitmix64(seed, ...)``: uniform on the
    2^24-th roots of unity.  Each angle lies within 2pi/2^24 of the
    continuous draw 2pi w/2^64 of its word w, so a sample lies within
    s_N * 2pi/2^24 of the continuous sample (s_N = sum of the c_m; 5.1e-9
    at N = 10), and ``phasor_sum`` evaluates it to within 4u per term.

    Memory: the words of one ``phasor_sum`` step (64 KiB) are drawn at a
    time.  The stream is counter-based, so the phases, and the means, do
    not depend on that block.  Beyond it the call holds one chunk of S_N
    (``_chunk_points``), one Phi's work on a slice of it and, split, the
    forked half's block sums once they arrive.
    """
    coeffs.check_order(n)
    if samples < MIN_HAAR_SAMPLES:
        raise RangeError(f"need at least {MIN_HAAR_SAMPLES} samples")
    c = coeffs.c[:n]
    rows = _per_block(64 * n)   # one phasor_sum step
    chunk = _chunk_points()

    def draw(lo, hi):
        """S_N at samples lo .. hi-1, a chunk at a time; returns the max
        |S_N| among them."""
        peak = 0.0
        for start in range(lo, hi, chunk):
            w = np.empty(min(chunk, hi - start), dtype=np.complex128)
            for a in range(0, w.size, rows):
                b = min(a + rows, w.size)
                phases = splitmix64(seed, (start + a) * n, (start + b) * n)
                phases >>= 40   # the top 24 bits: phases in units of 2pi/2^24
                w[a:b] = phasor_sum(phases.view(np.int64).reshape(b - a, n),
                                    c)
                peak = max(peak, float(np.max(np.abs(w[a:b]))))
            yield w
            w = None   # hold no chunk the caller let go
        return peak
    sums, _, peaks = _stream_sums(draw, samples, phis, [samples - 1])
    return [(s / samples).item() for s in sums], max(peaks)


def min_average_length(coeffs: CoefficientTable) -> float:
    """The shortest usable average length X: 100 periods 2 pi / gamma_1."""
    return 100.0 * 2.0 * math.pi / coeffs.gamma[0]


def _alpha_grid_step(coeffs: CoefficientTable, n: int, x: float) -> float:
    """The trapezoid step 2 pi / (10 gamma_n), once X is long enough."""
    x_min = min_average_length(coeffs)
    if x < x_min:
        raise RangeError(f"X={x} too short; need at least {x_min:.1f}")
    return 2.0 * math.pi / (10.0 * coeffs.gamma[n - 1])


def alpha_average_many(coeffs: CoefficientTable, n: int, phis, x_list):
    """Trapezoid means (1/X) integral_0^X Phi(f_N(alpha)) d alpha.

    One sweep over the largest X, recording every requested checkpoint;
    returns a list over phis of lists over x_list.  f_N comes from
    ``f_grid_chunks`` in chunks of whole grid blocks, its trapezoid ends
    included, and the Phi sums from the same block-wise engine as
    ``haar_oracle``, so the means depend neither on the chunks nor on the
    thread count or the split of the sweep between two processes.
    """
    coeffs.check_order(n)
    x_list = sorted(float(x) for x in x_list)
    step = _alpha_grid_step(coeffs, n, x_list[0])
    x_max = x_list[-1]
    total_pts = int(math.ceil(x_max / step)) + 1
    h = x_max / (total_pts - 1)
    marks = [min(int(round(x / h)), total_pts - 1) for x in x_list]
    c, g, b = coeffs.c[:n], coeffs.gamma[:n], coeffs.beta[:n]
    chunk = _chunk_points()
    sums, ends, _ = _stream_sums(
        lambda lo, hi: f_grid_chunks(lo, hi, chunk, h, c, g, b), total_pts,
        phis, [0, *marks])
    k = np.array(marks, dtype=np.float64)
    out = []
    for phi, s in zip(phis, sums):
        end = phi(ends)
        out.append(((s[1:] - 0.5 * (end[0] + end[1:])) / k).tolist())
    return out


def weyl_frequency(coeffs: CoefficientTable, n_vectors) -> np.ndarray:
    """n.gamma for an integer vector, or for each row of a 2-D array of them.

    The products n_m gamma_m are added in ascending m, as ``_ascending_sum``
    adds its rows, with no BLAS reduction: a row's value depends on that
    row alone, not on the batch it comes in.
    """
    return _ascending_dot(np.asarray(n_vectors, dtype=np.float64),
                          coeffs.gamma)


def _ascending_dot(vectors, values):
    """vectors . values[:N] over the last axis (N of it), summed in
    ascending m."""
    out = vectors[..., 0] * values[0]
    for m in range(1, vectors.shape[-1]):
        out = out + vectors[..., m] * values[m]
    return out


def weyl_test(coeffs: CoefficientTable, n_vector, x: float):
    """Closed-form (1/X) integral_0^X e^{i alpha n.gamma} d alpha * e^{-i n.beta}.

    n_vector is one integer vector (a complex is returned) or a 2-D array
    of them, one per row (a complex array).  n.gamma and n.beta are summed
    in ascending m and e^{it} is ``expi``, so a row's value does not depend
    on the batch.  The modulus is bounded by 2/(X |n.gamma|); a combination
    below the resonance floor would contradict rational independence of
    the ordinates and is reported instead of divided through.
    """
    n_vector = np.asarray(n_vector, dtype=np.float64)
    if n_vector.ndim not in (1, 2) or n_vector.shape[-1] > len(coeffs):
        raise RangeError("integer vector length exceeds the table")
    vectors = n_vector.reshape(-1, n_vector.shape[-1])
    if not vectors.any(axis=1).all():
        raise ValueError("integer vector must be nonzero")
    omega = weyl_frequency(coeffs, vectors)
    low = np.flatnonzero(np.abs(omega) < RESONANCE_FLOOR)
    if low.size:
        raise ResonanceError(
            f"|n.gamma| = {abs(omega[low[0]]):.3e} below {RESONANCE_FLOOR}; "
            "near-rational relation between ordinates")
    # e^{-i n.beta} (e^{i X omega} - 1) / (i X omega), the product's parts
    # written out and divided by X omega as Python's complex arithmetic does
    turn = expi(-_ascending_dot(vectors, coeffs.beta))
    step = expi(x * omega)
    step.real -= 1.0
    re = turn.real * step.real - turn.imag * step.imag
    im = turn.real * step.imag + turn.imag * step.real
    d = x * omega
    out = np.empty(d.size, dtype=np.complex128)
    out.real = im / d
    out.imag = -(re / d)
    return out if n_vector.ndim == 2 else complex(out[0])


@dataclass(frozen=True)
class CompareRow:
    phi: str
    density_value: complex
    haar_value: complex
    alpha_values: tuple
    discrepancies: tuple
    trend_ok: bool


@dataclass(frozen=True)
class CompareReport:
    rows: tuple[CompareRow, ...]
    max_discrepancy: float


def compare_report(coeffs: CoefficientTable, n: int, haar_means,
                   density: DensityProfile, phis,
                   x_ladder=(1e4, 1e5, 1e6)) -> CompareReport:
    """Three-route comparison: alpha-averages vs Haar samples vs density.

    haar_means are the order-n Haar means of phis, as ``haar_oracle``
    returns them.  The trend check asks each discrepancy ladder to be
    non-increasing up to a factor-2 noise allowance above the quadrature
    floor ``TREND_FLOOR``.
    """
    if density.order != n:
        raise RangeError("truncation orders of the two routes do not match")
    ladders = alpha_average_many(coeffs, n, phis, x_ladder)
    rows = []
    worst = 0.0
    for phi, ladder, haar in zip(phis, ladders, haar_means, strict=True):
        dens = integrate_against(density, phi)
        disc = tuple(abs(a - dens) for a in ladder)
        trend_ok = all(
            disc[k + 1] <= max(2.0 * disc[k], TREND_FLOOR)
            for k in range(len(disc) - 1))
        worst = max(worst, disc[-1])
        rows.append(CompareRow(
            phi=phi.label, density_value=dens, haar_value=haar,
            alpha_values=tuple(ladder), discrepancies=disc, trend_ok=trend_ok))
    return CompareReport(rows=tuple(rows), max_discrepancy=worst)
