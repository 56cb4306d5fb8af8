"""Desk-scale statistical certification of the maximal inequalities, the
invariance-principle diagnostics and the heavy-excursion non-tightness
demonstration.

Every experiment takes an explicit master seed, draws replicate r from
``substream(seed, r)`` and folds results in replicate order, so a report is
a pure function of (config, seed): rerunning reproduces every byte.

The proportionality constant in front of the maximal inequalities is not
pinned numerically anywhere, so all certifications test *boundedness* of
the ratio

    empirical weak-Lp norm of M(n) / (n^(1/p) * norm bracket)

across a grid of n (fitted log-log slope within a small band), never an
absolute constant.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from ._special import ndtr
from .config import ConfigError
from .holder import pairwise_coarsen, windowed_max_batch, windowed_maxima
from .models import (
    DP_BUDGET,
    ProcessModel,
    RenewalChainSpec,
    _RenewalSampler,
    _RenewalWalk,
    _sampler,
    apply_PT,
    chain_transition,
    renewal_variance_constant,
)
from .norms import empirical_weak_lp, mw_norm, require_variant
from .rng import substream, substreams

__all__ = [
    "CertificationReport",
    "wilson_interval",
    "certify_dyadic_lemma",
    "certify_martingale_inequality",
    "certify_mw_inequality",
    "fdd_convergence_test",
    "holder_norm_distribution_ks",
    "holder_tightness_diagnostic",
    "nontightness_experiment",
    "renewal_identity_check",
]

#: Total simulated steps allowed for one sampled run (n * replicates).
STEP_BUDGET = 1 << 31

#: Partial sums held per chunk of ``_partial_sum_chunks``: the sampled
#: suites and the dyadic lemma draw and sweep their paths in chunks of
#: about this many, so a chunk's buffer and the temporaries of its sweep
#: stay near 8 MB whatever the number of paths.
_CHUNK_SUMS = 1 << 20

#: n at or below which the first-passage tail is computed by exact convolution.
EXACT_CONVOLUTION_LIMIT = 1 << 12

#: Largest error ``renewal_identity_check`` allows in S_{T_k} = k - pi_0 T_k.
_IDENTITY_TOL = 1e-10


#: The power-bound constant K(P_T) of the semigroup; 2 covers every
#: shipped oracle.
_K_OF_PT = 2.0


def _K_p(p: float) -> float:
    """``K_p = 2^(1/p - 1/2) + 2^(1/2) * (2 + K(P_T))``, the constant in
    front of the dyadic sum of the maximal-inequality bracket.  The outer
    constant C_p is not available numerically, hence certifications report
    ratio boundedness only."""
    if not p > 2.0:
        raise ValueError("p must exceed 2")
    return 2.0 ** (1.0 / p - 0.5) + math.sqrt(2.0) * (2.0 + _K_OF_PT)


@dataclass
class CertificationReport:
    """The report of one run: what every subcommand writes.

    ``config`` embeds the full run configuration (seed included); rerunning
    with an identical config reproduces the report bit for bit.  ``body``
    holds the remaining top-level fields (``stats`` and ``per_point`` for
    the certifications), and the replicate rows go to the CSV file.
    """

    experiment: str
    config: dict
    verdict: str
    passed: bool
    body: dict = field(default_factory=dict)
    replicate_rows: Iterable = field(default_factory=list)
    replicate_columns: tuple = ()

    @property
    def stats(self) -> dict:
        return self.body["stats"]

    @property
    def per_point(self) -> list:
        return self.body["per_point"]

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "verdict": self.verdict,
            "passed": self.passed,
            **self.body,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    def write_replicates_csv(self, fp: IO[str]) -> None:
        w = csv.writer(fp)
        w.writerow(self.replicate_columns)
        for row in self.replicate_rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval (z = 1.96) for a binomial proportion."""
    z = 1.96
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _alpha(p: float) -> float:
    if not p > 2.0:
        raise ValueError("p must exceed 2")
    return 0.5 - 1.0 / p


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_steps(key: str, n: int, replicates: int, count_key: str = "replicates") -> None:
    """Reject a run past ``STEP_BUDGET`` before it samples: a path of n
    steps names ``key``, and ``replicates`` such paths name ``count_key``."""
    if n > STEP_BUDGET:
        raise ConfigError(f"{key}: a path of {n} steps is above the budget of {STEP_BUDGET}")
    if n * replicates > STEP_BUDGET:
        raise ConfigError(
            f"{count_key}: {replicates} paths of {n} steps take {n * replicates} "
            f"simulated steps, above the budget of {STEP_BUDGET}"
        )


def _partial_sum_chunks(models: Sequence[ProcessModel], n: int, per_model: int, seed: int):
    """Yield ``(start, s, parts)`` over the stacked rows of the models:
    ``per_model`` rows each, row r of model m drawn from ``substream(seed +
    m, r)`` by that model's ``_sampler``, as ``sample_model(model, n,
    substream(seed + m, r))`` draws it.  ``s`` holds stacked rows start,
    start + 1, ..., its column 0 zero and the increments after it, and
    ``parts`` pairs each model m the chunk holds with the slice of its rows.

    Every ``s`` is a view of one buffer of about ``_CHUNK_SUMS`` sums,
    refilled for the next chunk: a caller takes what it needs from a chunk
    (summing it in place, when it sweeps it) before it asks for the next.
    A row depends only on its own stream, so where the chunks end, and
    whether they span two models, cannot show.
    """
    samplers = [_sampler(model, n) for model in models]
    streams = [substreams(seed + m, per_model) for m in range(len(models))]
    total = len(models) * per_model
    rows = max(1, min(total, _CHUNK_SUMS // (n + 1)))
    buf = np.zeros((rows, n + 1))
    for start in range(0, total, rows):
        s = buf[: min(rows, total - start)]
        stop = start + len(s)
        parts = []
        for m in range(start // per_model, (stop - 1) // per_model + 1):
            part = slice(max(start, m * per_model) - start, min(stop, (m + 1) * per_model) - start)
            samplers[m].fill(streams[m], s[part, 1:])
            parts.append((m, part))
        yield start, s, parts


def _summed_chunks(model: ProcessModel, n: int, replicates: int, seed: int):
    """Yield ``(start, s)``: ``_partial_sum_chunks`` of the one model, each
    row summed in place, in order, so ``s`` holds replicates start, start +
    1, ... as ``S_0 .. S_n``, the sums of ``np.cumsum`` on their
    increments."""
    for start, s, _ in _partial_sum_chunks([model], n, replicates, seed):
        np.cumsum(s[:, 1:], axis=1, out=s[:, 1:])
        yield start, s


def _is_mds(model: ProcessModel) -> bool:
    """True when the adapted semigroup annihilates the increment function."""
    if model.chain is not None:
        g = model.chain.g_vector()
        return bool(np.all(chain_transition(model.chain, g) == 0.0))
    if not model.has_PT_adapted:
        return False
    return apply_PT(model, "adapted", model.increment_fn).is_zero


def _dyadic_grid(n_max: int) -> list[int]:
    return [1 << k for k in range(1, int(n_max).bit_length())]


# ---------------------------------------------------------------------------
# Dyadic recursion certificate
# ---------------------------------------------------------------------------


#: Relative tolerance of the dyadic lemma: a path violates the recursion
#: when its left side exceeds the right side times ``1 + _LEMMA_REL_TOL``.
_LEMMA_REL_TOL = 1e-9


def certify_dyadic_lemma(
    models: Sequence[ProcessModel],
    paths_per_model: int,
    n_max: int,
    p: float,
    seed: int,
) -> CertificationReport:
    """Check the pathwise recursion

        M(n, h) <= 6 max_k |h_k| + 2^(-alpha) M(n//2, pairwise-summed h)

    with both sides evaluated exactly, on every sampled path at every n of
    the dyadic grid up to n_max.  Passing means zero violations at the
    relative tolerance ``_LEMMA_REL_TOL``; the worst (smallest) slack is
    reported.

    Model m's paths are rows of ``_partial_sum_chunks(models, n_max,
    paths_per_model, seed)``.  Per chunk, before its rows are summed in
    place, ``max_k |h_k|`` is read at each n of the grid and the pairwise
    sums are summed into their own buffer; then both sides at each n are
    the sweeps of the prefixes ``s[:, :n+1]`` and ``half[:, :n//2+1]``,
    reduced to per-model minima and counts before the next chunk is drawn.
    A cumsum's prefix is the cumsum of the prefix, and for the even n of
    the grid the pairwise sums of ``h[:, :n]`` are the first n//2 of those
    of h, so each prefix holds the sums of the path cut at n, bit for bit.
    ``certify --suite all``'s 600 paths of 256 steps are one chunk.
    """
    if n_max > 4096:
        raise ConfigError(f"n_max: {n_max} is above 4096, the budget of exact evaluation")
    if not models:
        raise ValueError("models must be a nonempty list")
    if paths_per_model < 1:
        raise ValueError(f"paths_per_model must be >= 1, got {paths_per_model}")
    alpha = _alpha(p)
    grid = _dyadic_grid(n_max)
    if not grid:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    _check_steps("n_max", n_max, len(models) * paths_per_model, "paths_per_model")
    shape = (len(models), len(grid))
    min_slack, min_rel = np.full(shape, np.inf), np.full(shape, np.inf)
    violations = np.zeros(shape, dtype=np.int64)
    for _, s, parts in _partial_sum_chunks(models, n_max, paths_per_model, seed):
        h = s[:, 1:]
        top = [np.abs(h[:, :n]).max(axis=1) for n in grid]
        half = np.zeros((len(h), n_max // 2 + 1))
        np.cumsum(pairwise_coarsen(h), axis=1, out=half[:, 1:])
        np.cumsum(h, axis=1, out=h)
        for j, n in enumerate(grid):
            lhs = windowed_max_batch(s[:, : n + 1], alpha, n)
            coarse = windowed_max_batch(half[:, : n // 2 + 1], alpha, n // 2)
            rhs = 6.0 * top[j] + 2.0 ** (-alpha) * coarse
            slack = rhs - lhs
            rel = slack / np.where(rhs > 0, rhs, 1.0)
            bad = lhs > rhs * (1.0 + _LEMMA_REL_TOL)
            for m, part in parts:
                min_slack[m, j] = np.minimum(min_slack[m, j], slack[part].min())
                min_rel[m, j] = np.minimum(min_rel[m, j], rel[part].min())
                violations[m, j] += bad[part].sum()
    per_point = [
        {
            "model": model.label,
            "n": n,
            "min_slack": float(min_slack[m, j]),
            "min_relative_slack": float(min_rel[m, j]),
            "violations": int(violations[m, j]),
        }
        for m, model in enumerate(models)
        for j, n in enumerate(grid)
    ]
    worst = min(point["min_slack"] for point in per_point)
    worst_rel = min(point["min_relative_slack"] for point in per_point)
    violations = sum(point["violations"] for point in per_point)
    passed = violations == 0
    stats = {"worst_slack": worst, "worst_relative_slack": worst_rel, "violations": violations}
    return CertificationReport(
        experiment="dyadic_lemma",
        config={
            "models": [m.label for m in models],
            "paths_per_model": paths_per_model,
            "n_max": n_max,
            "p": p,
            "seed": seed,
            "rel_tol": _LEMMA_REL_TOL,
        },
        verdict="pass" if passed else f"{violations} violations",
        passed=passed,
        body={"stats": stats, "per_point": per_point},
    )


# ---------------------------------------------------------------------------
# Maximal-inequality ratio certifications
# ---------------------------------------------------------------------------

#: Bands for the fitted log-log slope of each ratio across the n grid.
_MARTINGALE_SLOPES = (-0.05, 0.02)
_MW_SLOPES = (-0.5, 0.02)


def _m_statistics(
    model: ProcessModel, p: float, n_grid: Sequence[int], replicates: int, seed: int
) -> dict[int, np.ndarray]:
    """M(n) per replicate for each n in the grid, computed on common paths
    (prefixes of one simulation per replicate), so experiments sharing a
    seed see identical left-hand statistics."""
    alpha = _alpha(p)
    n_grid = sorted(int(n) for n in n_grid)
    n_max = n_grid[-1]
    _check_steps("n_grid", n_max, replicates)
    stats = {n: np.empty(replicates) for n in n_grid}
    for start, s in _summed_chunks(model, n_max, replicates, seed):
        for n, values in stats.items():
            values[start : start + len(s)] = windowed_max_batch(s[:, : n + 1], alpha, n)
    return stats


def _slope_grid(n_grid: Sequence[int]) -> list[int]:
    """The n grid of a slope fit, sorted: a fit needs two points at least,
    and a repeated n would weigh one point twice."""
    grid = sorted(int(n) for n in n_grid)
    if len(set(grid)) < max(len(grid), 2):
        raise ValueError(f"n_grid must hold two or more distinct values, got {list(n_grid)}")
    return grid


def _fit_slope(ns: Sequence[int], ratios: Sequence[float]) -> float:
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(ratios, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def certify_martingale_inequality(
    model: ProcessModel,
    p: float,
    n_grid: Sequence[int],
    replicates: int,
    seed: int,
) -> CertificationReport:
    """Boundedness of ||M(n, m)||_{p,inf} / (n^(1/p) ||m||_p) for a
    martingale-difference model: the fitted log-log slope of the ratio must
    stay within ``_MARTINGALE_SLOPES``."""
    if not _is_mds(model):
        raise ConfigError(f"model: model {model.label!r} is not a martingale difference")
    m_norm = model.increment_lp_norm(p)
    m_by_n = _m_statistics(model, p, _slope_grid(n_grid), replicates, seed)
    per_point = []
    ratios = []
    rows = []
    for n, values in m_by_n.items():
        root = empirical_weak_lp(values, p)["tail_form_root"]
        # degenerate m = 0: every statistic vanishes and the ratio is read as 0
        ratio = root / (n ** (1.0 / p) * m_norm) if m_norm > 0 else 0.0
        ratios.append(ratio)
        per_point.append({"n": n, "weak_lp_root": root, "ratio": ratio})
        rows.extend((n, r, float(v)) for r, v in enumerate(values))
    slope = _fit_slope(list(m_by_n), ratios) if m_norm > 0 else 0.0
    passed = _MARTINGALE_SLOPES[0] <= slope <= _MARTINGALE_SLOPES[1]
    stats = {
        "slope": slope,
        "max_ratio": max(ratios),
        "min_ratio": min(ratios),
        "increment_lp_norm": m_norm,
    }
    return CertificationReport(
        experiment="martingale_maximal_inequality",
        config={
            "model": model.label,
            "p": p,
            "n_grid": sorted(m_by_n),
            "replicates": replicates,
            "seed": seed,
            "slope_bounds": list(_MARTINGALE_SLOPES),
        },
        verdict="bounded ratios" if passed else "ratio drift detected",
        passed=passed,
        body={"stats": stats, "per_point": per_point},
        replicate_rows=rows,
        replicate_columns=("n", "replicate", "holder_max"),
    )


def _bracket_first_term(model: ProcessModel, variant: str, p: float) -> float:
    """||f - U^{+-} P f||_p: U^{-1} for the adapted semigroup, U for the
    nonadapted one (the direction that inverts P on its domain)."""
    if model.chain is not None:
        spec = model.chain
        g = spec.g_vector()
        pg = chain_transition(spec, g)
        # (U^-1 P g)(omega) = (P g)(Y_-1); expectation over the stationary
        # pair (Y_-1, Y_0).  From a state m' >= 1 the chain moves to m' - 1
        # and (P g)(m') = g(m' - 1), so only its jump from 0 to u_j - 1 counts.
        total = 0.0
        for u_j, q in zip(spec.u, spec.tau_probs):
            total += spec.pi[0] * q * abs(g[u_j - 1] - pg[0]) ** p
        return float(total ** (1.0 / p))
    f = model.increment_fn
    pf = apply_PT(model, variant, f)
    if pf.is_zero:
        return f.lp_norm(p, model.innovation)
    shift = -1 if variant == "adapted" else 1
    return (f - pf.shift(shift)).lp_norm(p, model.innovation)


def certify_mw_inequality(
    model: ProcessModel,
    variant: str,
    p: float,
    n_grid: Sequence[int],
    replicates: int,
    seed: int,
) -> CertificationReport:
    """Boundedness of the semigroup maximal inequality

        ||M(n,f)||_{p,inf} <= C_p n^(1/p) (||f - U^{+-}Pf||_p
                                           + K_p sum_{j<r} 2^(-j/2) ||V_{2^j} f||_p)

    with r = ceil(log2(n+1)), plus the corollary ratio of the Hölder norm
    of the sqrt(n)-scaled path to the dyadic norm of f.  Passing means a
    fitted log-log slope of the ratio within ``_MW_SLOPES`` and every ratio
    at most 1.
    """
    require_variant(model, variant)
    k_p = _K_p(p)
    first = _bracket_first_term(model, variant, p)
    grid = _slope_grid(n_grid)
    # The bracket's norm terms come before the paths: at n they reach level
    # r - 1, and on the chain their DP table must fit ``DP_BUDGET``.
    J = max(int(math.ceil(math.log2(grid[-1] + 1))) - 1, 12)
    if model.chain is not None and (1 << J) - 1 > DP_BUDGET:
        raise ConfigError(f"n_grid: n = {grid[-1]} takes a DP table of 2^{J} - 1 entries, above {DP_BUDGET}")
    norm_report = mw_norm(model, variant, p, J)
    m_by_n = _m_statistics(model, p, grid, replicates, seed)
    mw_terms = [t for _, t in norm_report["terms"]]
    # converged value = last partial sum plus the geometric tail estimate
    mw_total = norm_report["value"]
    per_point = []
    ratios = []
    rows = []
    for n, values in m_by_n.items():
        r = int(math.ceil(math.log2(n + 1)))
        bracket = first + k_p * sum(mw_terms[:r])
        root = empirical_weak_lp(values, p)["tail_form_root"]
        ratio = root / (n ** (1.0 / p) * bracket)
        corollary = (n ** (-1.0 / p) * root) / mw_total if mw_total > 0 else 0.0
        ratios.append(ratio)
        per_point.append(
            {
                "n": n,
                "weak_lp_root": root,
                "bracket": bracket,
                "ratio": ratio,
                "corollary_ratio": corollary,
            }
        )
        rows.extend((n, rr, float(v)) for rr, v in enumerate(values))
    slope = _fit_slope(list(m_by_n), ratios)
    passed = _MW_SLOPES[0] <= slope <= _MW_SLOPES[1] and all(r <= 1.0 for r in ratios)
    stats = {
        "slope": slope,
        "max_ratio": max(ratios),
        "K_p": k_p,
        "bracket_first_term": first,
        "mw_norm_value": mw_total,
        "max_corollary_ratio": max(pp["corollary_ratio"] for pp in per_point),
    }
    return CertificationReport(
        experiment="mw_maximal_inequality",
        config={
            "model": model.label,
            "variant": variant,
            "p": p,
            "n_grid": sorted(m_by_n),
            "replicates": replicates,
            "seed": seed,
            "slope_bounds": list(_MW_SLOPES),
            "K_of_PT": _K_OF_PT,
        },
        verdict="bounded ratios" if passed else "ratio drift detected",
        passed=passed,
        body={"stats": stats, "per_point": per_point},
        replicate_rows=rows,
        replicate_columns=("n", "replicate", "holder_max"),
    )


# ---------------------------------------------------------------------------
# Invariance-principle diagnostics
# ---------------------------------------------------------------------------


def _ks_distance_to_normal(values: np.ndarray, scale: float) -> float:
    """One-sample KS distance between the sample and N(0, scale^2), by the
    same arithmetic as scipy's ``kstest(values, "norm", args=(0, scale))``
    and so bit-identical to its statistic (``ndtr`` is scipy's, ported)."""
    x = np.sort(values)
    n = x.size
    cdf = ndtr(x / scale)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


def fdd_convergence_test(
    model: ProcessModel,
    n: int,
    replicates: int,
    time_grid: Sequence[float],
    seed: int,
) -> dict:
    """KS distance between the law of W(n, t)/sqrt(n) and N(0, eta * t) at
    each grid time, with eta the run's own Var(S_n)/n estimate.  ``fdd``
    lists the [t, KS distance] pairs."""
    time_grid = [float(t) for t in time_grid]
    if any(t <= 0.0 or t > 1.0 for t in time_grid):
        raise ValueError("time_grid must lie in (0, 1]")
    _check_steps("n", n, replicates)
    # Only the sums the statistics read are kept: S_k and S_(k+1) around
    # each n t, and S_n; row c of ``kept`` is column cols[c] of the paths.
    floors = [min(int(math.floor(n * t)), n - 1) for t in time_grid]
    cols = sorted({n, *floors, *(k + 1 for k in floors)})
    at = {col: c for c, col in enumerate(cols)}
    kept = np.empty((len(cols), replicates))
    for start, s in _summed_chunks(model, n, replicates, seed):
        kept[:, start : start + len(s)] = s[:, cols].T
    eta_hat = float(np.var(kept[at[n]], ddof=1) / n)
    eta_se = eta_hat * math.sqrt(2.0 / max(replicates - 1, 1))
    fdd = []
    sqrt_n = math.sqrt(n)
    for t, k in zip(time_grid, floors):
        frac = n * t - k
        lo, hi = kept[at[k]], kept[at[k + 1]]
        values = (lo + frac * (hi - lo)) / sqrt_n
        scale = math.sqrt(eta_hat * t)
        ks = _ks_distance_to_normal(values, scale)
        fdd.append([t, ks])
    return {
        "model": model.label,
        "n": n,
        "replicates": replicates,
        "eta_hat": eta_hat,
        "eta_stderr": eta_se,
        "fdd": fdd,
        "holder_ks": None,
        "seed": seed,
    }


def _ks_distance_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS distance as the exact rational h / lcm(n1, n2), with h
    the largest gap between the empirical CDFs counted in units of
    1 / lcm.  This is scipy's ``ks_2samp(a, b)`` statistic bit for bit
    whenever max(n1, n2) <= 10000, where scipy rounds to the same grid."""
    a = np.sort(a)
    b = np.sort(b)
    n1, n2 = a.size, b.size
    both = np.concatenate([a, b])
    g = math.gcd(n1, n2)
    gaps = (
        np.searchsorted(a, both, side="right") * (n2 // g)
        - np.searchsorted(b, both, side="right") * (n1 // g)
    )
    h = int(np.abs(gaps).max())
    return h * 1.0 / math.lcm(n1, n2)


def holder_norm_distribution_ks(
    model: ProcessModel,
    p: float,
    n1: int,
    n2: int,
    replicates: int,
    seed: int,
) -> float:
    """Two-sample KS distance between the Hölder norms of the
    sqrt(n)-scaled paths at sizes n1 and n2 (norm = n^(-1/p) M(n))."""
    m_by_n = _m_statistics(model, p, [n1, n2], replicates, seed)
    a = m_by_n[n1] * n1 ** (-1.0 / p)
    b = m_by_n[n2] * n2 ** (-1.0 / p)
    return _ks_distance_two_sample(a, b)


# ---------------------------------------------------------------------------
# Tightness and non-tightness
# ---------------------------------------------------------------------------

#: Exceedance probability that every delta's sup over n must reach for the
#: tightness verdict "non-tight evidence".
_FLOOR_PROBABILITY = 0.2


def holder_tightness_diagnostic(
    model: ProcessModel,
    p: float,
    n_grid: Sequence[int],
    replicates: int,
    delta_grid: Sequence[float],
    epsilon: float,
    seed: int,
) -> CertificationReport:
    """Estimate P(modulus of the sqrt(n)-scaled path over windows < delta
    exceeds epsilon) on the (n, delta) grid.

    The statistic per path is ``n^(-1/p) * max over j-i <= n*delta`` of the
    vertex ratios, i.e. the vertex Hölder modulus of W(n)/sqrt(n).  Verdict:
    "non-tight evidence" when the sup over n reaches ``_FLOOR_PROBABILITY``
    for every delta; "tightness-consistent" when the sup decays monotonically
    (within CI width) as delta shrinks.
    """
    deltas = [float(d) for d in delta_grid]
    if any(d <= 0 or d > 1 for d in deltas):
        raise ValueError("delta_grid must lie in (0, 1]")
    if sorted(deltas, reverse=True) != deltas:
        raise ValueError("delta_grid must be decreasing")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    alpha = _alpha(p)
    per_point = []
    sup_by_delta = {d: 0.0 for d in deltas}
    ci_by_delta = {d: (0.0, 0.0) for d in deltas}
    # One draw at the largest n: each n's paths are its prefixes.
    n_grid = [int(n) for n in n_grid]
    _check_steps("n_grid", max(n_grid), replicates)
    windows = {n: [max(int(math.floor(n * d)), 1) for d in deltas] for n in n_grid}
    maxima = {n: np.empty((len(deltas), replicates)) for n in n_grid}
    for start, s in _summed_chunks(model, max(n_grid), replicates, seed):
        for n, out in maxima.items():
            out[:, start : start + len(s)] = windowed_maxima(s[:, : n + 1], alpha, windows[n])
    for n in n_grid:
        for d, w, row in zip(deltas, windows[n], maxima[n]):
            stat = row * n ** (-1.0 / p)
            k = int(np.sum(stat > epsilon))
            prob = k / replicates
            lo, hi = wilson_interval(k, replicates)
            per_point.append(
                {"n": n, "delta": d, "window": w, "probability": prob, "ci": [lo, hi]}
            )
            if prob >= sup_by_delta[d]:
                sup_by_delta[d] = prob
                ci_by_delta[d] = (lo, hi)
    sups = [sup_by_delta[d] for d in deltas]
    if min(sups) >= _FLOOR_PROBABILITY:
        verdict = "non-tight evidence"
        passed = True
    else:
        monotone = all(
            sups[i + 1] <= sups[i] + (ci_by_delta[deltas[i + 1]][1] - sups[i + 1]) + 1e-12
            for i in range(len(sups) - 1)
        )
        verdict = "tightness-consistent" if monotone else "inconclusive"
        passed = monotone
    stats = {"sup_probability_by_delta": {repr(d): sup_by_delta[d] for d in deltas}}
    return CertificationReport(
        experiment="holder_tightness_diagnostic",
        config={
            "model": model.label,
            "p": p,
            "n_grid": n_grid,
            "replicates": replicates,
            "delta_grid": deltas,
            "epsilon": epsilon,
            "seed": seed,
        },
        verdict=verdict,
        passed=passed,
        body={"stats": stats, "per_point": per_point},
    )


def _first_passage_exceed_probability(spec: RenewalChainSpec, n: int, K: int) -> dict:
    """P(T_n > K n) for T_n a sum of n iid return times.

    Exact sparse convolution capped at K n when n is small; otherwise the
    Chebyshev bound Var(tau) / (n (K - E tau)^2), which is valid since
    K > E[tau].
    """
    horizon = K * n
    if n <= EXACT_CONVOLUTION_LIMIT:
        dist = np.zeros(horizon + 1)
        dist[0] = 1.0
        exceed = 0.0
        values = spec.tau_values
        probs = spec.tau_probs
        for _ in range(n):
            new = np.zeros_like(dist)
            for v, q in zip(values, probs):
                if v <= horizon:
                    new[v:] += q * dist[: horizon + 1 - v]
                    exceed += q * float(dist[horizon + 1 - v :].sum())
                else:
                    exceed += q * float(dist.sum())
            dist = new
        return {"value": float(exceed), "method": "exact_convolution"}
    var_tau = spec.tau_moment(2.0) - spec.mean_tau ** 2
    bound = var_tau / (n * (K - spec.mean_tau) ** 2)
    return {"value": float(min(1.0, bound)), "method": "chebyshev_bound"}


def nontightness_event_probability(
    spec: RenewalChainSpec, n: int, K: int, delta: float
) -> float:
    """mu(A_n) for the excursion event: a return time tau <= n*delta with
    |1 - pi_0 tau| / tau^(1/2 - 1/p) >= threshold * (K n)^(1/p)."""
    alpha = _alpha(spec.p)
    cut = spec.pi0 / 2.0 * n ** (1.0 / spec.p)  # threshold * (K n)^(1/p)
    total = 0.0
    for v, q in zip(spec.tau_values, spec.tau_probs):
        if v <= n * delta and abs(1.0 - spec.pi0 * v) / v ** alpha >= cut:
            total += float(q)
    return total


def _subsequence_scale(
    spec: RenewalChainSpec, K: int, j: int, delta: float
) -> tuple[int, int, int, float]:
    """The counterexample's scale at excursion level j: n_j =
    floor(u_j^((p+2)/2)), the path length n_j K, the window floor(n_j delta)
    and the threshold pi_0 / (2 K^(1/p)).  Raises ``ConfigError`` naming j, K,
    j or delta, in that order, unless 1 <= j <= depth, K > E[tau], n_j K <=
    ``STEP_BUDGET`` and u_j <= n_j delta."""
    if not 1 <= j <= spec.depth:
        raise ConfigError(f"j: must lie in 1..{spec.depth}, got {j}")
    if not K > spec.mean_tau:
        raise ConfigError(f"K: got {K}, but K must exceed the mean return time {spec.mean_tau:.5f}")
    u, expo = spec.u[j - 1], 0.5 * (spec.p + 2.0)
    # Logs first, as u_j^expo may pass the float range; 0.5 of slack covers the floor.
    log_steps = expo * math.log10(u) + math.log10(K)
    n = math.floor(float(u) ** expo) if log_steps <= math.log10(STEP_BUDGET) + 0.5 else math.inf
    if n * K > STEP_BUDGET:
        raise ConfigError(f"j: at j = {j}, n_j*K is 10^{log_steps:.1f} steps, above {STEP_BUDGET}")
    if u > n * delta:
        raise ConfigError(f"delta: too small at j = {j}: need u_j = {u} <= n*delta = {n * delta:g}")
    return n, n * K, math.floor(n * delta), spec.pi0 / (2.0 * K ** (1.0 / spec.p))


#: Steps a ``counterexample`` worker draws, sums and sweeps at once (1 MB
#: of sums), or four windows when that is more: it carries the last
#: ``window`` sums of a span into the next and sweeps them again, so it
#: holds a span and a window of its row, however long the row, and sweeps
#: at most a quarter more sums than the row has.  Rows of at most 2^17
#: steps are one span.
_ROW_SPAN = 1 << 17


def nontightness_experiment(
    spec: RenewalChainSpec,
    K: int,
    j_level: int,
    delta: float,
    replicates: int,
    seed: int,
    contrast: bool = False,
) -> tuple[CertificationReport, ...]:
    """Heavy-excursion demonstration along the tuned subsequence.

    Simulates paths of length n*K with n = floor(u_j^((p+2)/2)), computes
    per path the scaled windowed vertex maximum

        R = (nK)^(-1/p) * max_{j - i <= n delta} |S_j - S_i| / (j-i)^(1/2-1/p)

    and reports the empirical P(R >= pi_0 / (2 K^(1/p))) with a Wilson
    interval next to the exact lower bound
    1 - (1 - mu(A_n))^n - P(T_n > K n).  Returns the chain's report, then,
    with ``contrast``, the report of iid Gaussian increments with the
    chain's variance constant (the tight null sharing the same Brownian
    limit), where the chain-specific bound is omitted.

    Replicate r of either law draws from ``substream(seed, r)``.  W =
    ``min(usable CPUs, rows, 8)`` worker threads (NumPy releases the
    interpreter lock while it fills, sums and sweeps) take the rows one at a
    time, the Gaussian null's and the chain's in turn, so one worker's long
    Gaussian draw overlaps another's short sweep calls.  A worker walks a
    row in spans of ``max(_ROW_SPAN, 4 window)`` steps through its own
    buffer: it writes a span's increments after the last ``window`` sums of
    the span before (the chain's by its ``_RenewalWalk``), adds the
    previous sum into the first and sums them in place, so they are the
    sums of one cumsum of the row, then sweeps the buffer with the row's
    maximum so far as the floor.  A pair of the row ends in one span and
    starts at most ``window`` sums before it, so every pair is swept.  A
    row's maximum depends only on its own stream, so the values do not
    depend on the number of CPUs or on the span.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    n, length, window, threshold = _subsequence_scale(spec, K, j_level, delta)
    _check_steps("j", length, replicates)
    alpha = _alpha(spec.p)
    scale = float(length) ** (-1.0 / spec.p)
    sigma = math.sqrt(renewal_variance_constant(spec))
    sampler = _RenewalSampler(spec, length)
    span = max(_ROW_SPAN, 4 * window)
    laws = ("renewal", "gaussian") if contrast else ("renewal",)
    values = {law: np.empty(replicates) for law in laws}
    # the Gaussian null's row r, then the chain's
    tasks = iter([(law, r) for r in range(replicates) for law in reversed(laws)])
    lock = threading.Lock()
    workers = min(_usable_cpus(), replicates * len(laws), 8)

    def run(buf: np.ndarray, walk: _RenewalWalk) -> None:
        # One worker's rows, on its thread.  It calls no public function of
        # the package, so wrappers around those (tracing) run on this thread only.
        while True:
            with lock:
                law, r = next(tasks, (None, None))
            if law is None:
                return
            rng = substream(seed, r)
            if law == "renewal":
                walk.start(rng)
            buf[0] = 0.0
            best, done, h = 0.0, 0, 1  # buf[:h] holds S_(done - h + 1) .. S_done
            while done < length:
                steps = buf[h : h + min(span, length - done)]
                if law == "renewal":
                    walk.fill(steps)
                else:
                    rng.standard_normal(out=steps)
                    steps *= sigma
                steps[0] += buf[h - 1]
                np.cumsum(steps, out=steps)
                h += steps.size
                done += steps.size
                best = windowed_maxima(buf[None, :h], alpha, [window], best)[0, 0]
                keep = min(window, h)
                buf[:keep] = buf[h - keep : h]
                h = keep
            values[law][r] = scale * best

    # Each worker's buffer and block arrays are allocated on this thread:
    # glibc keeps what a worker frees in that thread's own arena.
    bufs = [np.empty(min(length + 1, span + window)) for _ in range(workers)]
    walks = [_RenewalWalk(sampler) for _ in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # list() reads every worker's result, so a row's exception is raised here.
        list(pool.map(run, bufs, walks))
    reports = []
    for process in laws:
        hits = int(np.sum(values[process] >= threshold))
        prob = hits / replicates
        ci = wilson_interval(hits, replicates)
        stats = {
            "n": n,
            "path_length": length,
            "window": window,
            "threshold": threshold,
            "empirical_probability": prob,
            "wilson_ci": list(ci),
            "process": process,
            "sigma_contrast": sigma if process == "gaussian" else None,
        }
        if process == "renewal":
            mu_a = nontightness_event_probability(spec, n, K, delta)
            passage = _first_passage_exceed_probability(spec, n, K)
            lower = max(0.0, 1.0 - (1.0 - mu_a) ** n - passage["value"])
            stats.update(mu_A_n=mu_a, first_passage_exceed=passage, theoretical_lower_bound=lower)
            half_width = (ci[1] - ci[0]) / 2.0
            passed = prob >= lower - 3.0 * half_width
            verdict = "non-tightness reproduced" if passed else "empirical probability below bound"
        else:
            passed = True
            verdict = "contrast run"
        reports.append(CertificationReport(
            experiment="nontightness",
            config={
                "p": spec.p,
                "depth": spec.depth,
                "K": K,
                "j_level": j_level,
                "delta": delta,
                "replicates": replicates,
                "seed": seed,
                "process": process,
            },
            verdict=verdict,
            passed=passed,
            body={"stats": stats, "per_point": []},
            replicate_rows=[(r, float(v), bool(v >= threshold)) for r, v in enumerate(values[process])],
            replicate_columns=("replicate", "scaled_windowed_max", "exceeds_threshold"),
        ))
    return tuple(reports)


def renewal_identity_check(states: np.ndarray, increments: np.ndarray, pi0: float) -> dict:
    """Verify S_{T_k} = k - pi_0 T_k at every observed return time T_k.

    The k-th visit of 0 after time zero closes the k-th excursion, whose
    increment sum telescopes to 1 - pi_0 tau_k; the identity is exact along
    every path.  Both sides are accumulated in extended precision so the
    tolerance ``_IDENTITY_TOL`` tests the identity itself, not cumsum roundoff.
    """
    states = np.asarray(states)
    s = np.cumsum(np.asarray(increments, dtype=np.longdouble))
    t_k = np.nonzero(states[1:] == 0)[0] + 1
    if t_k.size == 0:
        raise ValueError("path contains no regeneration; lengthen it")
    k = np.arange(1, t_k.size + 1, dtype=np.longdouble)
    errors = np.abs(s[t_k - 1] - (k - np.longdouble(pi0) * t_k))
    max_err = float(errors.max())
    return {
        "passed": bool(max_err <= _IDENTITY_TOL),
        "n_regenerations": int(t_k.size),
        "max_abs_error": max_err,
        "tol": _IDENTITY_TOL,
    }
