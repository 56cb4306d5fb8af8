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
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import CapabilityError, CapacityError
from .holder import pairwise_coarsen, windowed_max_batch, windowed_maxima
from .models import (
    ProcessModel,
    RenewalChainSpec,
    apply_PT,
    chain_transition,
    renewal_variance_constant,
    sample_model,
    sample_renewal_path,
)
from .norms import empirical_weak_lp, mw_norm
from .rng import substream

__all__ = [
    "InequalityConstants",
    "CertificationReport",
    "ConvergenceReport",
    "wilson_interval",
    "certify_dyadic_lemma",
    "certify_martingale_inequality",
    "certify_mw_inequality",
    "estimate_variance_constant",
    "fdd_convergence_test",
    "holder_norm_distribution_ks",
    "holder_tightness_diagnostic",
    "nontightness_experiment",
    "renewal_identity_check",
]

#: Total simulated steps allowed for the non-tightness experiment.
STEP_BUDGET = 1 << 31

#: n at or below which the first-passage tail is computed by exact convolution.
EXACT_CONVOLUTION_LIMIT = 1 << 12


@dataclass(frozen=True)
class InequalityConstants:
    """Constants entering the maximal-inequality bracket.

    ``K_p = 2^(1/p - 1/2) + 2^(1/2) * (2 + K(P_T))`` with the power-bound
    constant K(P_T) of the semigroup (2 covers every shipped oracle).  The
    outer constant C_p is not available numerically, hence certifications
    report ratio boundedness only.
    """

    p: float
    K_of_PT: float = 2.0

    def __post_init__(self):
        if not self.p > 2.0:
            raise ValueError("p must exceed 2")
        if self.K_of_PT < 1.0:
            raise ValueError("K_of_PT must be >= 1")

    @property
    def K_p(self) -> float:
        return 2.0 ** (1.0 / self.p - 0.5) + math.sqrt(2.0) * (2.0 + self.K_of_PT)

    @property
    def C_p_mode(self) -> str:
        return "unknown_ratio_report"


@dataclass
class CertificationReport:
    """Aggregates of one certification experiment.

    ``config`` embeds the full run configuration (seed included); rerunning
    with an identical config reproduces the report bit for bit.
    """

    experiment: str
    config: dict
    verdict: str
    passed: bool
    stats: dict = field(default_factory=dict)
    per_point: list = field(default_factory=list)
    replicate_rows: list = field(default_factory=list)
    replicate_columns: tuple = ()

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "verdict": self.verdict,
            "passed": self.passed,
            "stats": self.stats,
            "per_point": self.per_point,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def write_replicates_csv(self, fp: IO[str]) -> None:
        w = csv.writer(fp)
        w.writerow(self.replicate_columns)
        for row in self.replicate_rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


@dataclass
class ConvergenceReport:
    """Finite-dimensional-distribution and Hölder-norm convergence diagnostics."""

    model: str
    n: int
    replicates: int
    eta_hat: float
    eta_stderr: float
    fdd: list  # [t, ks_distance] pairs
    holder_ks: float | None
    seed: int

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "n": self.n,
            "replicates": self.replicates,
            "eta_hat": self.eta_hat,
            "eta_stderr": self.eta_stderr,
            "fdd": self.fdd,
            "holder_ks": self.holder_ks,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
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


def batch_increments(model: ProcessModel, n: int, replicates: int, seed: int) -> np.ndarray:
    """(replicates, n) increment matrix, replicate r from substream(seed, r)."""
    out = np.empty((replicates, n))
    for r in range(replicates):
        out[r] = sample_model(model, n, substream(seed, r))
    return out


def _partial_sums(increments: np.ndarray) -> np.ndarray:
    r, n = increments.shape
    s = np.empty((r, n + 1))
    s[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=s[:, 1:])
    return s


def _is_mds(model: ProcessModel) -> bool:
    """True when the adapted semigroup annihilates the increment function."""
    if model.chain is not None:
        g = model.chain.g_vector()
        return bool(np.all(chain_transition(model.chain, g) == 0.0))
    if not model.has_PT_adapted:
        return False
    return apply_PT(model, "adapted", model.increment_fn, 1).is_zero


def _dyadic_grid(n_max: int, n_min: int = 2) -> list[int]:
    grid = []
    n = n_min
    while n <= n_max:
        grid.append(n)
        n *= 2
    return grid


# ---------------------------------------------------------------------------
# Dyadic recursion certificate
# ---------------------------------------------------------------------------


def certify_dyadic_lemma(
    models: Sequence[ProcessModel],
    paths_per_model: int,
    n_max: int,
    p: float,
    seed: int,
    rel_tol: float = 1e-9,
) -> CertificationReport:
    """Check the pathwise recursion

        M(n, h) <= 6 max_k |h_k| + 2^(-alpha) M(n//2, pairwise-summed h)

    with both sides evaluated exactly, on every sampled path at every n of
    the dyadic grid up to n_max.  Passing means zero violations at the
    stated relative tolerance; the worst (smallest) slack is reported.
    """
    if n_max > 4096:
        raise CapacityError("n_max above 4096 exceeds the exact-evaluation budget")
    alpha = _alpha(p)
    grid = _dyadic_grid(n_max)
    per_point = []
    worst = math.inf
    worst_rel = math.inf
    violations = 0
    for m_idx, model in enumerate(models):
        h = batch_increments(model, n_max, paths_per_model, seed + m_idx)
        for n in grid:
            hn = h[:, :n]
            lhs = windowed_max_batch(_partial_sums(hn), alpha, n)
            coarse = pairwise_coarsen(hn)
            half = windowed_max_batch(_partial_sums(coarse), alpha, coarse.shape[1])
            rhs = 6.0 * np.abs(hn).max(axis=1) + 2.0 ** (-alpha) * half
            slack = rhs - lhs
            bad = lhs > rhs * (1.0 + rel_tol)
            violations += int(bad.sum())
            rel = slack / np.where(rhs > 0, rhs, 1.0)
            worst = min(worst, float(slack.min()))
            worst_rel = min(worst_rel, float(rel.min()))
            per_point.append(
                {
                    "model": model.label,
                    "n": n,
                    "min_slack": float(slack.min()),
                    "min_relative_slack": float(rel.min()),
                    "violations": int(bad.sum()),
                }
            )
    passed = violations == 0
    return CertificationReport(
        experiment="dyadic_lemma",
        config={
            "models": [m.label for m in models],
            "paths_per_model": paths_per_model,
            "n_max": n_max,
            "p": p,
            "seed": seed,
            "rel_tol": rel_tol,
        },
        verdict="pass" if passed else f"{violations} violations",
        passed=passed,
        stats={"worst_slack": worst, "worst_relative_slack": worst_rel, "violations": violations},
        per_point=per_point,
    )


# ---------------------------------------------------------------------------
# Maximal-inequality ratio certifications
# ---------------------------------------------------------------------------


def _m_statistics(
    model: ProcessModel, p: float, n_grid: Sequence[int], replicates: int, seed: int
) -> dict[int, np.ndarray]:
    """M(n) per replicate for each n in the grid, computed on common paths
    (prefixes of one simulation per replicate), so experiments sharing a
    seed see identical left-hand statistics."""
    alpha = _alpha(p)
    n_grid = sorted(int(n) for n in n_grid)
    n_max = n_grid[-1]
    h = batch_increments(model, n_max, replicates, seed)
    s = _partial_sums(h)
    return {n: windowed_max_batch(np.ascontiguousarray(s[:, : n + 1]), alpha, n) for n in n_grid}


def _fit_slope(ns: Sequence[int], ratios: Sequence[float]) -> float:
    if len(ns) < 2:
        return 0.0
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(ratios, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def certify_martingale_inequality(
    model: ProcessModel,
    p: float,
    n_grid: Sequence[int],
    replicates: int,
    seed: int,
    slope_bounds: tuple[float, float] = (-0.05, 0.02),
) -> CertificationReport:
    """Boundedness of ||M(n, m)||_{p,inf} / (n^(1/p) ||m||_p) for a
    martingale-difference model: the fitted log-log slope of the ratio must
    stay within ``slope_bounds``."""
    if not _is_mds(model):
        raise CapabilityError(f"model {model.label!r} is not a martingale difference")
    m_norm = model.increment_lp_norm(p)
    stats_by_n = _m_statistics(model, p, n_grid, replicates, seed)
    per_point = []
    ratios = []
    rows = []
    for n, values in stats_by_n.items():
        est = empirical_weak_lp(values, p)
        # degenerate m = 0: every statistic vanishes and the ratio is read as 0
        ratio = est.root / (n ** (1.0 / p) * m_norm) if m_norm > 0 else 0.0
        ratios.append(ratio)
        per_point.append({"n": n, "weak_lp_root": est.root, "ratio": ratio})
        rows.extend((n, r, float(v)) for r, v in enumerate(values))
    slope = _fit_slope(list(stats_by_n), ratios) if m_norm > 0 else 0.0
    passed = slope_bounds[0] <= slope <= slope_bounds[1]
    return CertificationReport(
        experiment="martingale_maximal_inequality",
        config={
            "model": model.label,
            "p": p,
            "n_grid": sorted(stats_by_n),
            "replicates": replicates,
            "seed": seed,
            "slope_bounds": list(slope_bounds),
        },
        verdict="bounded ratios" if passed else "ratio drift detected",
        passed=passed,
        stats={
            "slope": slope,
            "max_ratio": max(ratios),
            "min_ratio": min(ratios),
            "increment_lp_norm": m_norm,
        },
        per_point=per_point,
        replicate_rows=rows,
        replicate_columns=("n", "replicate", "holder_max"),
    )


def _bracket_first_term(model: ProcessModel, variant: str, p: float) -> float:
    """||f - U^{+-} P f||_p: U^{-1} for the adapted semigroup, U for the
    nonadapted one (the direction that inverts P on its domain)."""
    if model.chain is not None:
        if variant != "adapted":
            raise CapabilityError("the renewal chain exposes only the adapted oracle")
        spec = model.chain
        g = spec.g_vector()
        pg = chain_transition(spec, g)
        # (U^-1 P g)(omega) = (P g)(Y_-1); expectation over the stationary
        # pair (Y_-1, Y_0): from state m' >= 1 the chain moves to m' - 1,
        # from 0 it jumps to u_j - 1.
        total = 0.0
        for m_prev in range(spec.n_states):
            w = spec.pi[m_prev]
            if w == 0.0:
                continue
            if m_prev >= 1:
                total += w * abs(g[m_prev - 1] - pg[m_prev]) ** p
            else:
                for u_j, q in zip(spec.u, spec.tau_probs):
                    total += w * q * abs(g[u_j - 1] - pg[0]) ** p
        return float(total ** (1.0 / p))
    f = model.increment_fn
    pf = apply_PT(model, variant, f, 1)
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
    slope_bounds: tuple[float, float] = (-0.5, 0.02),
    constants: InequalityConstants | None = None,
) -> CertificationReport:
    """Boundedness of the semigroup maximal inequality

        ||M(n,f)||_{p,inf} <= C_p n^(1/p) (||f - U^{+-}Pf||_p
                                           + K_p sum_{j<r} 2^(-j/2) ||V_{2^j} f||_p)

    with r = ceil(log2(n+1)), plus the corollary ratio of the Hölder norm
    of the sqrt(n)-scaled path to the dyadic norm of f.
    """
    constants = constants or InequalityConstants(p=p)
    stats_by_n = _m_statistics(model, p, n_grid, replicates, seed)
    first = _bracket_first_term(model, variant, p)
    r_max = max(int(math.ceil(math.log2(n + 1))) for n in stats_by_n)
    norm_report = mw_norm(model, variant, p, J=max(r_max - 1, 12))
    mw_terms = [t for _, t in norm_report.terms]
    # converged value = last partial sum plus the geometric tail estimate
    mw_total = norm_report.value
    per_point = []
    ratios = []
    rows = []
    for n, values in stats_by_n.items():
        r = int(math.ceil(math.log2(n + 1)))
        bracket = first + constants.K_p * sum(mw_terms[:r])
        est = empirical_weak_lp(values, p)
        ratio = est.root / (n ** (1.0 / p) * bracket)
        corollary = (n ** (-1.0 / p) * est.root) / mw_total if mw_total > 0 else 0.0
        ratios.append(ratio)
        per_point.append(
            {
                "n": n,
                "weak_lp_root": est.root,
                "bracket": bracket,
                "ratio": ratio,
                "corollary_ratio": corollary,
            }
        )
        rows.extend((n, rr, float(v)) for rr, v in enumerate(values))
    slope = _fit_slope(list(stats_by_n), ratios)
    passed = slope_bounds[0] <= slope <= slope_bounds[1] and all(r <= 1.0 for r in ratios)
    return CertificationReport(
        experiment="mw_maximal_inequality",
        config={
            "model": model.label,
            "variant": variant,
            "p": p,
            "n_grid": sorted(stats_by_n),
            "replicates": replicates,
            "seed": seed,
            "slope_bounds": list(slope_bounds),
            "K_of_PT": constants.K_of_PT,
        },
        verdict="bounded ratios" if passed else "ratio drift detected",
        passed=passed,
        stats={
            "slope": slope,
            "max_ratio": max(ratios),
            "K_p": constants.K_p,
            "bracket_first_term": first,
            "mw_norm_value": mw_total,
            "max_corollary_ratio": max(pp["corollary_ratio"] for pp in per_point),
        },
        per_point=per_point,
        replicate_rows=rows,
        replicate_columns=("n", "replicate", "holder_max"),
    )


# ---------------------------------------------------------------------------
# Invariance-principle diagnostics
# ---------------------------------------------------------------------------


def estimate_variance_constant(
    model: ProcessModel, n: int, replicates: int, seed: int
) -> tuple[float, float]:
    """eta_hat = Var(S_n) / n with a normal-theory standard error."""
    h = batch_increments(model, n, replicates, seed)
    s_n = h.sum(axis=1)
    eta = float(np.var(s_n, ddof=1) / n)
    stderr = eta * math.sqrt(2.0 / max(replicates - 1, 1))
    return eta, stderr


def _ks_distance_to_normal(values: np.ndarray, scale: float) -> float:
    """One-sample KS distance between the sample and N(0, scale^2), by the
    same arithmetic as scipy's ``kstest(values, "norm", args=(0, scale))``
    and so bit-identical to its statistic."""
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
    p: float | None = None,
    eta: float | None = None,
) -> ConvergenceReport:
    """KS distance between the law of W(n, t)/sqrt(n) and N(0, eta * t) at
    each grid time; eta defaults to the run's own Var(S_n)/n estimate."""
    time_grid = [float(t) for t in time_grid]
    if any(t <= 0.0 or t > 1.0 for t in time_grid):
        raise ValueError("time_grid must lie in (0, 1]")
    h = batch_increments(model, n, replicates, seed)
    s = _partial_sums(h)
    eta_hat = float(np.var(s[:, -1], ddof=1) / n) if eta is None else float(eta)
    eta_se = eta_hat * math.sqrt(2.0 / max(replicates - 1, 1))
    fdd = []
    sqrt_n = math.sqrt(n)
    for t in time_grid:
        nt = n * t
        k = min(int(math.floor(nt)), n - 1)
        frac = nt - k
        values = (s[:, k] + frac * (s[:, k + 1] - s[:, k])) / sqrt_n
        scale = math.sqrt(eta_hat * t)
        ks = _ks_distance_to_normal(values, scale)
        fdd.append([t, ks])
    return ConvergenceReport(
        model=model.label,
        n=n,
        replicates=replicates,
        eta_hat=eta_hat,
        eta_stderr=eta_se,
        fdd=fdd,
        holder_ks=None,
        seed=seed,
    )


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
    stats_by_n: dict[int, np.ndarray] | None = None,
) -> float:
    """Two-sample KS distance between the Hölder norms of the
    sqrt(n)-scaled paths at sizes n1 and n2 (norm = n^(-1/p) M(n))."""
    if stats_by_n is None:
        stats_by_n = _m_statistics(model, p, [n1, n2], replicates, seed)
    a = stats_by_n[n1] * n1 ** (-1.0 / p)
    b = stats_by_n[n2] * n2 ** (-1.0 / p)
    return _ks_distance_two_sample(a, b)


# ---------------------------------------------------------------------------
# Tightness and non-tightness
# ---------------------------------------------------------------------------


def holder_tightness_diagnostic(
    model: ProcessModel,
    p: float,
    n_grid: Sequence[int],
    replicates: int,
    delta_grid: Sequence[float],
    epsilon: float,
    seed: int,
    floor_probability: float = 0.2,
) -> CertificationReport:
    """Estimate P(modulus of the sqrt(n)-scaled path over windows < delta
    exceeds epsilon) on the (n, delta) grid.

    The statistic per path is ``n^(-1/p) * max over j-i <= n*delta`` of the
    vertex ratios, i.e. the vertex Hölder modulus of W(n)/sqrt(n).  Verdict:
    "non-tight evidence" when the sup over n stays above ``floor_probability``
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
    for n in n_grid:
        n = int(n)
        h = batch_increments(model, n, replicates, seed)
        s = _partial_sums(h)
        windows = [max(int(math.floor(n * d)), 1) for d in deltas]
        maxima = windowed_maxima(s, alpha, windows)
        for d, w, row in zip(deltas, windows, maxima):
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
    if min(sups) >= floor_probability:
        verdict = "non-tight evidence"
        passed = True
    else:
        monotone = all(
            sups[i + 1] <= sups[i] + (ci_by_delta[deltas[i + 1]][1] - sups[i + 1]) + 1e-12
            for i in range(len(sups) - 1)
        )
        verdict = "tightness-consistent" if monotone else "inconclusive"
        passed = monotone
    return CertificationReport(
        experiment="holder_tightness_diagnostic",
        config={
            "model": model.label,
            "p": p,
            "n_grid": [int(n) for n in n_grid],
            "replicates": replicates,
            "delta_grid": deltas,
            "epsilon": epsilon,
            "seed": seed,
        },
        verdict=verdict,
        passed=passed,
        stats={"sup_probability_by_delta": {repr(d): sup_by_delta[d] for d in deltas}},
        per_point=per_point,
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


def nontightness_experiment(
    spec: RenewalChainSpec,
    K: int,
    j_level: int,
    delta: float,
    replicates: int,
    seed: int,
    process: str = "renewal",
    chunk: int = 8,
) -> CertificationReport:
    """Heavy-excursion demonstration along the tuned subsequence.

    Simulates paths of length n*K with n = floor(u_j^((p+2)/2)), computes
    per path the scaled windowed vertex maximum

        R = (nK)^(-1/p) * max_{j - i <= n delta} |S_j - S_i| / (j-i)^(1/2-1/p)

    and reports the empirical P(R >= pi_0 / (2 K^(1/p))) with a Wilson
    interval next to the exact lower bound
    1 - (1 - mu(A_n))^n - P(T_n > K n).  ``process="gaussian"`` replaces the
    chain by iid Gaussian increments with the chain's variance constant (the
    tight null sharing the same Brownian limit); the theoretical bound is
    chain-specific and omitted there.
    """
    if K <= spec.mean_tau:
        raise ValueError(f"K must exceed the mean return time {spec.mean_tau:.5f}")
    if not 1 <= j_level <= spec.depth:
        raise ValueError(f"j_level must lie in 1..{spec.depth}")
    if process not in ("renewal", "gaussian"):
        raise ValueError("process must be 'renewal' or 'gaussian'")
    n = int(math.floor(float(spec.u[j_level - 1]) ** (0.5 * (spec.p + 2.0))))
    if spec.u[j_level - 1] > n * delta:
        raise ValueError(
            f"delta too small: need u_j = {spec.u[j_level - 1]} <= n*delta = {n * delta:g}"
        )
    length = n * K
    total_steps = length * replicates
    if total_steps > STEP_BUDGET:
        raise CapacityError(
            f"experiment needs {total_steps} simulated steps, budget is {STEP_BUDGET}; "
            "reduce replicates, K or j_level"
        )
    alpha = _alpha(spec.p)
    threshold = spec.pi0 / (2.0 * K ** (1.0 / spec.p))
    window = int(math.floor(n * delta))
    scale = float(length) ** (-1.0 / spec.p)
    sigma = math.sqrt(renewal_variance_constant(spec))
    values = np.empty(replicates)
    for start in range(0, replicates, chunk):
        stop = min(start + chunk, replicates)
        s = np.empty((stop - start, length + 1))
        for r in range(start, stop):
            rng = substream(seed, r)
            if process == "renewal":
                _, inc = sample_renewal_path(spec, length, rng)
            else:
                inc = sigma * rng.standard_normal(length)
            s[r - start, 0] = 0.0
            np.cumsum(inc, out=s[r - start, 1:])
        values[start:stop] = scale * windowed_max_batch(s, alpha, window)
    hits = int(np.sum(values >= threshold))
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
        stats.update(
            {
                "mu_A_n": mu_a,
                "first_passage_exceed": passage,
                "theoretical_lower_bound": lower,
            }
        )
        half_width = (ci[1] - ci[0]) / 2.0
        passed = prob >= lower - 3.0 * half_width
        verdict = "non-tightness reproduced" if passed else "empirical probability below bound"
    else:
        passed = True
        verdict = "contrast run"
    return CertificationReport(
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
        stats=stats,
        per_point=[],
        replicate_rows=[(r, float(v), bool(v >= threshold)) for r, v in enumerate(values)],
        replicate_columns=("replicate", "scaled_windowed_max", "exceeds_threshold"),
    )


def renewal_identity_check(
    states: np.ndarray,
    increments: np.ndarray,
    pi0: float,
    tol: float = 1e-10,
) -> dict:
    """Verify S_{T_k} = k - pi_0 T_k at every observed return time T_k.

    The k-th visit of 0 after time zero closes the k-th excursion, whose
    increment sum telescopes to 1 - pi_0 tau_k; the identity is exact along
    every path.  Both sides are accumulated in extended precision so the
    tolerance tests the identity itself, not cumsum roundoff.
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
        "passed": bool(max_err <= tol),
        "n_regenerations": int(t_k.size),
        "max_abs_error": max_err,
        "tol": tol,
    }
