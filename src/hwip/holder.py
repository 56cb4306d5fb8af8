"""Hölder-norm statistics of polygonal partial-sum paths.

For a path with partial sums ``S_0 .. S_n`` (``S_0 = 0``) and an exponent
``alpha`` in (0, 1), the central statistic is the vertex maximum

    M = max_{0 <= i < j <= n} |S_j - S_i| / (j - i)**alpha .

The alpha-Hölder seminorm of a polygonal line is attained at a pair of its
vertices, so M is exactly the seminorm of the linear interpolant of the
partial sums, measured with time in units of steps.  Restricting the pairs
to ``j - i <= max_lag`` gives the windowed maximum, the modulus that decides
tightness.  Every windowed or full maximum is read from one pruned lag
sweep, ``lag_profile``: ``holder_max_windowed`` / ``holder_max_exact`` for
one path with its attaining pair, ``windowed_max_batch`` for a batch of
paths.  ``dyadic_upper`` / ``dyadic_lower`` are cheap two-sided bounds that
sandwich the exact value.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

__all__ = [
    "PolygonalPath",
    "HolderStatistic",
    "holder_max_exact",
    "holder_max_windowed",
    "holder_norm_of_path",
    "modulus_restricted",
    "dyadic_upper",
    "dyadic_lower",
    "windowed_max_batch",
    "pairwise_coarsen",
    "path_to_csv",
    "path_from_csv",
]


@dataclass(frozen=True)
class PolygonalPath:
    """Partial sums ``S_0 .. S_n`` with the linear-interpolation rule.

    ``evaluate(t)`` for t in [0, 1] returns
    ``S_[nt] + (nt - [nt]) * (S_[nt]+1 - S_[nt])`` with ``evaluate(1) = S_n``.
    """

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

    def evaluate(self, t) -> np.ndarray:
        """Piecewise-linear interpolation of the partial sums on [0, 1]."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValueError("t must lie in [0, 1]")
        nt = self.n * t
        k = np.minimum(np.floor(nt).astype(int), self.n - 1)
        frac = nt - k
        s = self.partial_sums
        return s[k] + frac * (s[k + 1] - s[k])


@dataclass(frozen=True)
class HolderStatistic:
    """Value of a Hölder-type maximum together with the method that produced it."""

    value: float
    method: str  # exact_pairs | windowed | dyadic_upper | dyadic_lower
    alpha: float
    argmax: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        i, j = self.argmax if self.argmax is not None else (None, None)
        return {
            "value": self.value,
            "method": self.method,
            "alpha": self.alpha,
            "argmax_i": i,
            "argmax_j": j,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def lag_profile(partial_sums: np.ndarray, alpha: float, max_lag: int) -> np.ndarray:
    """Per-lag vertex maxima of a batch of paths: the one lag sweep.

    ``partial_sums`` has shape (rows, n + 1).  The result has shape
    (lags, rows), lag-major: entry ``[d - 1, r]`` is
    ``max_i |S_{i+d} - S_i| / d**alpha`` for row r.  Lags run upward from 1
    and stop at ``min(max_lag, n)``, or earlier, once in every row the
    oscillation envelope (max S - min S) / d**alpha falls strictly below the
    running maximum.  The envelope decreases in d, so no later lag can reach
    that maximum, and the profile may have fewer than max_lag lags.

    Contract: an entry is exact whenever it could raise, or tie, the running
    maximum of the entries before it in its row; any other entry lies
    strictly below that maximum.  Callers read only running maxima and the
    lags that attain them, so a kernel may store bounds in the other
    entries.  Today every entry is exact.
    """
    alpha = _check_alpha(alpha)
    s = np.ascontiguousarray(partial_sums, dtype=float)
    if s.ndim != 2 or s.shape[1] < 2:
        raise ValueError("partial_sums must be (replicates, n + 1) with n >= 1")
    n = s.shape[1] - 1
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    max_lag = min(int(max_lag), n)
    osc = s.max(axis=1) - s.min(axis=1)
    best = np.zeros(s.shape[0])
    profile = np.empty((max_lag, s.shape[0]))
    scratch = np.empty_like(s[:, 1:])
    for d in range(1, max_lag + 1):
        scale = d ** alpha
        if (osc / scale < best).all():
            return profile[: d - 1]
        buf = scratch[:, : n + 1 - d]
        np.subtract(s[:, d:], s[:, :-d], out=buf)
        np.abs(buf, out=buf)
        row = profile[d - 1]
        buf.max(axis=1, out=row)
        row /= scale
        np.maximum(best, row, out=best)
    return profile


def holder_max_windowed(path: PolygonalPath, alpha: float, max_lag: int) -> HolderStatistic:
    """Maximum of |S_j - S_i| / (j-i)^alpha over pairs with 1 <= j-i <= max_lag.

    The value is the maximum of the path's ``lag_profile``.  Ties are broken
    toward the smallest (i, j) in lexicographic order: only the lags whose
    profile entry attains the maximum are scanned again for the first start
    i whose quotient equals it.
    """
    alpha = _check_alpha(alpha)
    s = path.partial_sums
    profile = lag_profile(s[None, :], alpha, max_lag)[:, 0]
    value = float(profile.max())
    # Rescan the quotients, not the raw differences: two differences can
    # round to the same quotient, and the first pair attaining it wins.
    i, d = min(
        (int(np.argmax(np.abs(s[d:] - s[:-d]) / d ** alpha == value)), d)
        for d in (np.flatnonzero(profile == value) + 1).tolist()
    )
    method = "exact_pairs" if max_lag >= path.n else "windowed"
    return HolderStatistic(value=value, method=method, alpha=float(alpha), argmax=(i, i + d))


def holder_max_exact(path: PolygonalPath, alpha: float) -> HolderStatistic:
    """Exact vertex maximum over all pairs 0 <= i < j <= n."""
    return holder_max_windowed(path, alpha, path.n)


def holder_norm_of_path(path: PolygonalPath, alpha: float) -> float:
    """Normalized Hölder statistic n^(-alpha) * holder_max_exact.

    With this normalization the vertex maximum M factors as
    ``M = n**alpha * holder_norm_of_path``; the ``|x(0)|`` term of the full
    norm vanishes because S_0 = 0.
    """
    alpha = _check_alpha(alpha)
    return float(path.n ** (-alpha) * holder_max_exact(path, alpha).value)


def modulus_restricted(path: PolygonalPath, alpha: float, delta: float) -> float:
    """Vertex-restricted modulus n^(-alpha) * max over pairs with j-i <= n*delta.

    This is a lower bound for the continuous alpha-modulus of the
    interpolant over time windows shorter than delta, which is the direction
    needed both for disproving tightness and for a conservative tightness
    diagnostic.  For delta below one mesh step the maximum collapses to a
    single segment, where the slope formula ``max|h| * (n*delta)**(1-alpha)``
    is exact.
    """
    alpha = _check_alpha(alpha)
    delta = float(delta)
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    n = path.n
    window = int(np.floor(n * delta))
    if window < 1:
        h_max = float(np.max(np.abs(path.increments)))
        return n ** (-alpha) * h_max * (n * delta) ** (1.0 - alpha)
    return float(n ** (-alpha) * holder_max_windowed(path, alpha, window).value)


def pairwise_coarsen(increments: np.ndarray) -> np.ndarray:
    """Sum increments pairwise: h'_t = h_{2t} + h_{2t+1}; a trailing
    unpaired increment is dropped (it only feeds the max term of the
    dyadic recursion)."""
    h = np.asarray(increments, dtype=float)
    m = h.shape[-1] // 2
    return h[..., : 2 * m : 2] + h[..., 1 : 2 * m : 2]


def dyadic_upper(increments: Iterable[float], alpha: float) -> HolderStatistic:
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
    return HolderStatistic(value=bound, method="dyadic_upper", alpha=alpha, argmax=None)


def dyadic_lower(path: PolygonalPath, alpha: float) -> HolderStatistic:
    """O(n log n) lower bound: maximum over pairs (i, i + d) with d a power
    of two and i a multiple of d.  Always <= the exact vertex maximum."""
    alpha = _check_alpha(alpha)
    s = path.partial_sums
    n = path.n
    best = -1.0
    best_pair = (0, 1)
    d = 1
    while d <= n:
        idx = np.arange(0, n - d + 1, d)
        diff = np.abs(s[idx + d] - s[idx])
        k = int(np.argmax(diff))
        v = float(diff[k]) / d ** alpha
        pair = (int(idx[k]), int(idx[k]) + d)
        if v > best or (v == best and pair < best_pair):
            best = v
            best_pair = pair
        d *= 2
    return HolderStatistic(value=best, method="dyadic_lower", alpha=alpha, argmax=best_pair)


def windowed_max_batch(partial_sums: np.ndarray, alpha: float, max_lag: int) -> np.ndarray:
    """Row-wise windowed vertex maxima for a batch of paths.

    ``partial_sums`` has shape (replicates, n + 1); returns the vector of
    max over 1 <= j-i <= max_lag of |S_j - S_i| / (j-i)^alpha per row, the
    maximum over lags of ``lag_profile``.
    """
    return lag_profile(partial_sums, alpha, max_lag).max(axis=0)


def path_to_csv(path: PolygonalPath, fp: IO[str]) -> None:
    """Write the partial sums as a single-column CSV."""
    writer = csv.writer(fp)
    writer.writerow(["partial_sum"])
    for v in path.partial_sums:
        writer.writerow([repr(float(v))])


def path_from_csv(fp: IO[str]) -> PolygonalPath:
    """Read a single-column CSV of partial sums (header row optional)."""
    values = []
    for row in csv.reader(fp):
        if not row:
            continue
        try:
            values.append(float(row[0]))
        except ValueError:
            if values:
                raise
            continue  # header
    return PolygonalPath(np.asarray(values))
