"""Hölder-norm statistics of polygonal partial-sum paths.

For a path with partial sums ``S_0 .. S_n`` (``S_0 = 0``) and an exponent
``alpha`` in (0, 1), the central statistic is the vertex maximum

    M = max_{0 <= i < j <= n} |S_j - S_i| / (j - i)**alpha .

The alpha-Hölder seminorm of a polygonal line is attained at a pair of its
vertices, so M is exactly the seminorm of the linear interpolant of the
partial sums, measured with time in units of steps.  Restricting the pairs
to ``j - i <= max_lag`` gives the windowed maximum, the modulus that decides
tightness.  Every windowed or full maximum comes from one exact
branch-and-bound lag sweep, ``windowed_maxima``, for a batch of paths and
several windows at once: per segment of lags it bounds each block of
starts from a pyramid of block minima and maxima and scans only the blocks
whose bound reaches the running maximum.  A window that covers the whole
path starts that maximum from the quotient of each row's range pair
(argmin S, argmax S), often most of the final value, so its bounds prune
from there.  The surviving blocks of a segment are scanned from one
(lags, starts, blocks) view of their ends, in groups of lags, the blocks
on the fast axis.  The pyramid and the dense lag-by-lag pass walk a long
row one column span at a time, so a sweep's temporaries are bounded by a
span, not by the row.  ``holder_max_windowed`` / ``holder_max_exact`` read
the sweep for one path, ``windowed_max_batch`` for a batch of paths and one
window.
``dyadic_upper`` / ``dyadic_lower`` are cheap two-sided bounds that
sandwich the exact value.  The one-path functions return a Python float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "PolygonalPath",
    "holder_max_exact",
    "holder_max_windowed",
    "holder_norm_of_path",
    "dyadic_upper",
    "dyadic_lower",
    "windowed_max_batch",
    "pairwise_coarsen",
]


@dataclass(frozen=True)
class PolygonalPath:
    """Partial sums ``S_0 .. S_n`` of a polygonal path, its vertices."""

    partial_sums: np.ndarray

    def __post_init__(self):
        sums = np.asarray(self.partial_sums, dtype=float)
        if sums.ndim != 1 or sums.size < 2:
            raise ValueError("partial_sums must be a 1-d array S_0..S_n with n >= 1")
        if not np.all(np.isfinite(sums)):
            raise ValueError("partial_sums must be finite")
        if sums[0] != 0.0:
            raise ValueError("partial_sums must start at S_0 = 0")
        object.__setattr__(self, "partial_sums", sums)

    @classmethod
    def from_increments(cls, increments: Iterable[float]) -> "PolygonalPath":
        h = np.asarray(list(increments) if not isinstance(increments, np.ndarray) else increments, dtype=float)
        sums = np.concatenate(([0.0], np.cumsum(h)))
        return cls(sums)

    @property
    def n(self) -> int:
        return self.partial_sums.size - 1

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.partial_sums)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


#: Smallest block of the extrema pyramid, and so of the start blocks.
_BASE = 16
#: Elements per temporary array of the lag sweep (2 MiB of floats); only a
#: single start block's sums can need more.
_CHUNK = 1 << 18
#: Sums per column span (512 KiB of floats): a row longer than a span is
#: reduced to its pyramid, and swept densely, one span at a time.
_SPAN = 1 << 16


def _scales(lo: int, hi: int, alpha: float) -> np.ndarray:
    """``d ** alpha`` for the lags lo..hi, by Python's float power."""
    return np.array([d ** alpha for d in range(lo, hi + 1)])


def _block_size(lag: int) -> int:
    """Start-block size for the lags of the dyadic class [D, 2D) holding
    ``lag``: an eighth of D, and at least ``_BASE``.  Lag segments are as
    wide as the blocks, so at long lags a bound spans an eighth of a lag
    class in starts and in lags."""
    return max(_BASE, (1 << (lag.bit_length() - 1)) >> 3)


def _lag_segments(first: int, last: int):
    """Split the lags first..last into segments ``(lo, hi, level)``.

    A segment lies inside one dyadic class [D, 2D) and inside one aligned
    run of B = ``_block_size(D)`` lags, where B = ``_BASE << level``.  So a
    block of B starts, shifted by the segment's lags, ends in at most two
    blocks of the same size (``_block_bounds`` relies on it).
    """
    lo = first
    while lo <= last:
        top = 1 << lo.bit_length()
        size = _block_size(lo)
        hi = min(last, top - 1, (lo // size + 1) * size - 1)
        yield lo, hi, (size // _BASE).bit_length() - 1
        lo = hi + 1


def _halve(x: np.ndarray, reduce) -> np.ndarray:
    """Pairwise ``reduce`` of neighbouring columns; an odd last column is
    carried over."""
    h = x.shape[1] // 2
    y = np.empty((x.shape[0], x.shape[1] - h))
    reduce(x[:, 0 : 2 * h : 2], x[:, 1 : 2 * h : 2], out=y[:, :h])
    if x.shape[1] % 2:
        y[:, h] = x[:, -1]
    return y


def _extrema_pyramid(s: np.ndarray, top: int) -> list[tuple[np.ndarray, ...]]:
    """Block extrema of the partial sums for block sizes _BASE, 2 _BASE, .., top.

    Entry ``level`` is ``(mn, mx, mn2, mx2)``: per row, the minimum and the
    maximum of each aligned block of ``_BASE << level`` sums (the last block
    may be short), and of each block together with its right neighbour.
    Built by pairwise reduction of a few rows at a time, without copying s,
    and of a row longer than a span one column span at a time.  A span
    starts at a multiple c0 of ``top``, so its k-th halving pairs the
    columns the whole row's does and fills the row's from ``c0 >> k``; only
    the row's last span carries an odd column.
    """
    rows, m = s.shape
    first = _BASE.bit_length() - 1
    levels = (top // _BASE).bit_length()
    pyramid = []
    width = m
    for k in range(first + levels):
        if k >= first:
            pyramid.append((np.empty((rows, width)), np.empty((rows, width))))
        width -= width // 2
    per = max(1, _CHUNK // m)
    span = -(-_SPAN // top) * top
    for r0 in range(0, rows, per):
        for c0 in range(0, m, span):
            mn = mx = s[r0 : r0 + per, c0 : c0 + span]
            for k in range(first + levels):
                if k:
                    mn, mx = _halve(mn, np.minimum), _halve(mx, np.maximum)
                if k >= first:
                    cols = slice(c0 >> k, (c0 >> k) + mn.shape[1])
                    pyramid[k - first][0][r0 : r0 + per, cols] = mn
                    pyramid[k - first][1][r0 : r0 + per, cols] = mx
    for level, (mn, mx) in enumerate(pyramid):
        mn2, mx2 = mn.copy(), mx.copy()
        np.minimum(mn[:, :-1], mn[:, 1:], out=mn2[:, :-1])
        np.maximum(mx[:, :-1], mx[:, 1:], out=mx2[:, :-1])
        pyramid[level] = (mn, mx, mn2, mx2)
    return pyramid


def _block_bounds(pyramid, level: int, lo: int, n: int, alpha: float) -> np.ndarray:
    """Per row and start block, an upper bound on the quotients of the
    block's pairs at the lags of the segment starting at ``lo``.

    Block k holds the starts [kB, (k+1)B), B = ``_BASE << level``; the
    blocks run while some start has lag ``lo`` in range.  Its ends lie in
    blocks k + lo//B and the one after (see ``_lag_segments``), so
    ``S_j - S_i <= max_J - min_I`` and ``S_i - S_j <= max_I - min_J``.
    Rounding is monotone, so ``fl(S_j - S_i) <= fl(max_J - min_I)``; and
    dividing by ``lo ** alpha <= d ** alpha`` only raises the quotient.
    """
    mn, mx, mn2, mx2 = pyramid[level]
    size = _BASE << level
    c = lo // size
    k = (n - lo) // size + 1
    up = mx2[:, c : c + k] - mn[:, :k]
    np.maximum(up, mx[:, :k] - mn2[:, c : c + k], out=up)
    up /= lo ** alpha
    return up


def _block_maxima(
    s: np.ndarray, rows: np.ndarray, starts: np.ndarray, size: int, lo: int, hi: int, alpha: float
) -> np.ndarray:
    """Per start block c, ``max |S_{i+d} - S_i| / d**alpha`` over the starts
    ``starts[c] <= i < starts[c] + size`` of row ``rows[c]`` and the lags
    lo..hi.

    Indices past n are clipped to n.  A start past n then gives 0; a start
    i <= n with i + d > n gives the real pair (i, n) divided by the larger
    scale ``d ** alpha``, never above that pair's own quotient, which lies
    in the window too.

    The sums of a chunk of blocks are gathered once as (offsets, blocks),
    about ``_CHUNK`` of them.  The ends at every lag are one (lags, starts,
    blocks) view of them, taken in groups of lags of about ``_CHUNK // 4``
    differences through one buffer, the blocks on the fast axis.  Each
    quotient is ``fl(|S_j - S_i|) / fl(d ** alpha)``, however the lags are
    grouped.
    """
    n = s.shape[1] - 1
    lags = hi - lo + 1
    scales = _scales(lo, hi, alpha)[:, None]
    # offsets from a block's first start: its starts are the first ``size``,
    # its ends the last ``size + lags - 1``
    offsets = np.concatenate((np.arange(min(lo, size)), np.arange(lo, lo + size + lags - 1)))[:, None]
    flat = s.ravel()
    out = np.empty(starts.size)
    step = max(1, _CHUNK // offsets.size)
    for c0 in range(0, starts.size, step):
        at = starts[c0 : c0 + step] + offsets
        np.minimum(at, n, out=at)
        at += rows[c0 : c0 + step] * (n + 1)
        sums = flat.take(at)
        s_i = sums[:size]
        ends = sliding_window_view(sums[-(size + lags - 1) :], size, axis=0).transpose(0, 2, 1)
        group = max(1, _CHUNK // 4 // s_i.size)
        diff = np.empty((min(group, lags),) + s_i.shape)
        per_lag = np.empty((lags, s_i.shape[1]))
        for t in range(0, lags, group):
            d = diff[: min(group, lags - t)]
            np.subtract(ends[t : t + group], s_i, out=d)
            np.abs(d, out=d)
            d.max(axis=1, out=per_lag[t : t + group])
        per_lag /= scales
        per_lag.max(axis=0, out=out[c0 : c0 + step])
    return out


def _dense_maxima(s: np.ndarray, lo: int, hi: int, alpha: float) -> np.ndarray:
    """Per row, ``max_i |S_{i+d} - S_i| / d**alpha`` over the lags lo..hi,
    lag by lag over a few rows at a time.  A row longer than a span has
    each lag's starts walked one span at a time, the spans' maxima folded
    by ``np.maximum``, so the scratch holds a span, not the row."""
    rows, m = s.shape
    per = max(1, _CHUNK // (m - lo))
    width = min(m - lo, _SPAN)
    scratch = np.empty((min(per, rows), width))
    scales = _scales(lo, hi, alpha)[:, None]
    out = np.empty(rows)
    for r0 in range(0, rows, per):
        sub = s[r0 : r0 + per]
        maxima = np.empty((hi - lo + 1, sub.shape[0]))
        for d in range(lo, hi + 1):
            for i0 in range(0, m - d, width):
                i1 = min(m - d, i0 + width)
                buf = scratch[: sub.shape[0], : i1 - i0]
                np.subtract(sub[:, i0 + d : i1 + d], sub[:, i0:i1], out=buf)
                np.abs(buf, out=buf)
                if i0:
                    np.maximum(maxima[d - lo], buf.max(axis=1), out=maxima[d - lo])
                else:
                    buf.max(axis=1, out=maxima[d - lo])
        maxima /= scales
        maxima.max(axis=0, out=out[r0 : r0 + per])
    return out


def _range_floor(s: np.ndarray, osc: np.ndarray, alpha: float) -> np.ndarray:
    """Per row, the quotient of its range pair (argmin S, argmax S): a pair
    of the full window, whose difference is the oscillation ``osc`` and
    whose lag d gives the scale ``d ** alpha`` by Python's float power, as
    in ``_scales``.  So it is the quotient the sweep computes for that pair,
    and never above the row's maximum.  A constant row (d = 0) gives 0."""
    lags = np.abs(s.argmax(axis=1) - s.argmin(axis=1)).tolist()
    return osc / np.array([max(d, 1) ** alpha for d in lags])


def windowed_maxima(
    partial_sums: np.ndarray, alpha: float, windows: Iterable[int], floor=0.0
) -> np.ndarray:
    """Windowed vertex maxima of a batch of paths, for several windows: the
    one lag sweep.

    ``partial_sums`` has shape (rows, n + 1) and finite entries.  Entry
    ``[k, r]`` of the (len(windows), rows) result is the larger of
    ``floor`` (a number, or one per row) and ``max |S_j - S_i| / (j -
    i)**alpha`` over the pairs of row r with ``1 <= j - i <= windows[k]``,
    bit for bit the maximum of the dense per-lag sweep.  A row swept in
    pieces passes the maximum of its earlier pieces as its floor.

    Branch and bound.  Windows are taken in increasing order, each
    extending the running maximum ``best`` of the smaller ones, which
    starts at the floor, so the bounds prune from there.  A window
    first folds in the exact maxima at its top lag, and a window that
    covers the path (w = n) the quotient of each row's range pair
    (``_range_floor``), computed as the sweep computes it; then, segment by
    segment of its remaining lags (``_lag_segments``), each start block of
    each row is bounded from the block extrema (``_block_bounds``).  A
    block whose bound lies strictly below its row's ``best`` holds no pair
    that reaches it, and is skipped.  The other blocks are scanned exactly
    (``_block_maxima``), in groups of lags with the blocks on the fast
    axis; when they are more than half of the segment, the segment is swept
    densely lag by lag instead.  Once in every row the oscillation envelope
    ``(max S - min S) / lo**alpha`` falls strictly below ``best``, no later
    lag can reach it, and the sweep stops.
    """
    alpha = _check_alpha(alpha)
    s = np.ascontiguousarray(partial_sums, dtype=float)
    if s.ndim != 2 or s.shape[1] < 2:
        raise ValueError("partial_sums must be (replicates, n + 1) with n >= 1")
    n = s.shape[1] - 1
    tops = [min(int(w), n) for w in windows]
    if not tops or min(tops) < 1:
        raise ValueError("windows must be a nonempty list of lags >= 1")
    pyramid = _extrema_pyramid(s, _block_size(max(tops)))
    low, high = pyramid[-1][0].min(axis=1), pyramid[-1][1].max(axis=1)
    if not (np.isfinite(low).all() and np.isfinite(high).all()):
        raise ValueError("partial_sums must be finite")
    osc = high - low
    best = np.full(s.shape[0], floor, dtype=float)
    out = np.empty((len(tops), s.shape[0]))
    done = 0  # every lag <= done is folded into best
    for k in sorted(range(len(tops)), key=tops.__getitem__):
        w = tops[k]
        if done < w:
            np.maximum(best, _dense_maxima(s, w, w, alpha), out=best)
            if w == n:
                np.maximum(best, _range_floor(s, osc, alpha), out=best)
            for lo, hi, level in _lag_segments(done + 1, w - 1):
                if (osc / lo ** alpha < best).all():
                    w = n
                    break
                keep = _block_bounds(pyramid, level, lo, n, alpha) >= best[:, None]
                survivors = np.count_nonzero(keep)
                if 2 * survivors > keep.size:
                    np.maximum(best, _dense_maxima(s, lo, hi, alpha), out=best)
                elif survivors:
                    size = _BASE << level
                    rows, blocks = np.nonzero(keep)
                    maxima = _block_maxima(s, rows, blocks * size, size, lo, hi, alpha)
                    np.maximum.at(best, rows, maxima)
            done = w
        out[k] = best
    return out


def holder_max_windowed(path: PolygonalPath, alpha: float, max_lag: int) -> float:
    """Maximum of |S_j - S_i| / (j-i)^alpha over pairs with 1 <= j-i <= max_lag:
    the path's ``windowed_maxima``."""
    return float(windowed_maxima(path.partial_sums[None, :], alpha, [max_lag])[0, 0])


def holder_max_exact(path: PolygonalPath, alpha: float) -> float:
    """Exact vertex maximum over all pairs 0 <= i < j <= n."""
    return holder_max_windowed(path, alpha, path.n)


def holder_norm_of_path(path: PolygonalPath, alpha: float) -> float:
    """Normalized Hölder statistic n^(-alpha) * holder_max_exact.

    With this normalization the vertex maximum M factors as
    ``M = n**alpha * holder_norm_of_path``; the ``|x(0)|`` term of the full
    norm vanishes because S_0 = 0.
    """
    alpha = _check_alpha(alpha)
    return path.n ** (-alpha) * holder_max_exact(path, alpha)


def pairwise_coarsen(increments: np.ndarray) -> np.ndarray:
    """Sum increments pairwise: h'_t = h_{2t} + h_{2t+1}; a trailing
    unpaired increment is dropped (it only feeds the max term of the
    dyadic recursion)."""
    h = np.asarray(increments, dtype=float)
    m = h.shape[-1] // 2
    return h[..., : 2 * m : 2] + h[..., 1 : 2 * m : 2]


def dyadic_upper(increments: Iterable[float], alpha: float) -> float:
    """O(n) upper bound for the exact vertex maximum.

    Applies the recursion
    ``M(n, h) <= 6 * max|h| + 2**(-alpha) * M(n//2, pairwise sums)``
    level by level, accumulating ``6 * max|level|`` with the level's dyadic
    discount, and stopping at a single increment.
    """
    alpha = _check_alpha(alpha)
    level = np.asarray(increments, dtype=float)
    if level.ndim != 1 or level.size < 1:
        raise ValueError("increments must be a nonempty 1-d array")
    discount = 1.0
    step = 2.0 ** (-alpha)
    bound = 0.0
    while True:
        bound += discount * 6.0 * float(np.max(np.abs(level)))
        if level.size == 1:
            break
        level = pairwise_coarsen(level)
        discount *= step
    return bound


def dyadic_lower(path: PolygonalPath, alpha: float) -> float:
    """O(n log n) lower bound: maximum over pairs (i, i + d) with d a power
    of two and i a multiple of d.  Always <= the exact vertex maximum."""
    alpha = _check_alpha(alpha)
    s = path.partial_sums
    best = 0.0
    d = 1
    while d <= path.n:
        best = max(best, float(np.abs(s[d::d] - s[:-d:d]).max()) / d ** alpha)
        d *= 2
    return best


def windowed_max_batch(partial_sums: np.ndarray, alpha: float, max_lag: int) -> np.ndarray:
    """Row-wise windowed vertex maxima for a batch of paths.

    ``partial_sums`` has shape (replicates, n + 1); returns the vector of
    max over 1 <= j-i <= max_lag of |S_j - S_i| / (j-i)^alpha per row: the
    one-window case of ``windowed_maxima``.
    """
    return windowed_maxima(partial_sums, alpha, [max_lag])[0]
