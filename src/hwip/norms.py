"""Weak-L^p norm estimation and the dyadic conditional-sum norm.

The weak-L^p norm of a function h is equivalent to the tail functional
``sup_t t^p mu{|h| > t}``: the dual event form is sandwiched between
``tail^(1/p)`` and ``(p/(p-1)) * tail^(1/p)``.  Only the tail form is ever
estimated; the bracket reports the dual form as an interval.

The dyadic norm of an increment function f under a semigroup P is

    sum_{j >= 0} 2^(-j/2) * || sum_{i < 2^j} P^i f ||_p ,

computed exactly where the model exposes a closed-form oracle; a model
without one, or a variant it lacks, raises ``ConfigError`` naming ``model``
or ``variant``.  A martingale-difference f (P f = 0) collapses every inner
sum to f itself, so the norm equals (2 + sqrt 2) ||f||_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .config import ConfigError, one_of
from .models import (
    DP_BUDGET,
    _VARIANTS,
    ChainOracle,
    ProcessModel,
    RenewalChainSpec,
    chain_lp_norm,
    semigroup_partial_sums,
)

__all__ = [
    "WeakLpEstimate",
    "empirical_weak_lp",
    "weak_lp_max_bound_check",
    "MaxBoundReport",
    "MwNormReport",
    "mw_norm",
    "SeriesDiagnostic",
    "mw_series_diagnostic",
    "counterexample_weights",
]

#: A dyadic block of the series must shrink by at least this factor for the
#: ratio test to count it as geometric decay.
RATIO_TEST_THRESHOLD = 0.95


@dataclass(frozen=True)
class WeakLpEstimate:
    """Tail-form estimate of sup_t t^p mu{|h| > t} from a finite sample.

    ``value`` is the exact plug-in supremum over the empirical measure:
    max over sample points x of x^p * (#{|samples| >= x} / N).  ``root`` is
    its 1/p-th power and ``dual_interval`` brackets the event-form norm.
    """

    value: float
    p: float
    sample_count: int

    @property
    def root(self) -> float:
        return self.value ** (1.0 / self.p)

    @property
    def dual_interval(self) -> tuple[float, float]:
        r = self.root
        return (r, r * self.p / (self.p - 1.0))

    def to_dict(self) -> dict:
        lo, hi = self.dual_interval
        return {
            "tail_form": self.value,
            "tail_form_root": self.root,
            "dual_lower": lo,
            "dual_upper": hi,
            "p": self.p,
            "sample_count": self.sample_count,
        }


def _tail_form(abs_samples: np.ndarray, p: float) -> float:
    """max_k a_(k)^p * k/N over the descending order statistics a_(k).

    On the half-open interval below a tie block of a_(k) the empirical tail
    is (index of last tied sample)/N, and x^p * k/N at earlier positions of
    the block is only smaller, so the positional maximum handles ties
    exactly.
    """
    a = np.sort(abs_samples)[::-1]
    n = a.size
    ranks = np.arange(1, n + 1, dtype=float)
    return float(np.max(a ** p * ranks / n))


def empirical_weak_lp(samples: Sequence[float] | np.ndarray, p: float) -> WeakLpEstimate:
    """Estimate the weak-L^p tail functional from samples of |h|."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    x = np.abs(np.asarray(samples, dtype=float)).ravel()
    if x.size == 0:
        raise ValueError("samples must be nonempty")
    return WeakLpEstimate(value=_tail_form(x, p), p=float(p), sample_count=int(x.size))


@dataclass(frozen=True)
class MaxBoundReport:
    """Empirical check of the weak-L^p bound for a maximum of N functions:
    tail(max_j |h_j|)^(1/p) <= (p/(p-1)) * N^(1/p) * max_j tail(h_j)^(1/p)."""

    n_functions: int
    p: float
    lhs: float
    rhs: float
    per_function: tuple[float, ...]

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else 0.0

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + 1e-12)

    def to_dict(self) -> dict:
        return {
            "n_functions": self.n_functions,
            "p": self.p,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "passed": self.passed,
            "per_function_roots": list(self.per_function),
        }


def weak_lp_max_bound_check(sample_matrix: np.ndarray, p: float) -> MaxBoundReport:
    """Verify the N^(1/p) maximum bound on an (N functions x replicates) matrix.

    The worst (and only) ratio lhs/rhs is returned; values below one certify
    the bound on the empirical measure.
    """
    m = np.abs(np.asarray(sample_matrix, dtype=float))
    if m.ndim == 1:
        m = m[None, :]
    if m.ndim != 2 or m.size == 0:
        raise ValueError("sample_matrix must be (N, replicates)")
    n_fun = m.shape[0]
    roots = tuple(_tail_form(m[j], p) ** (1.0 / p) for j in range(n_fun))
    lhs = _tail_form(m.max(axis=0), p) ** (1.0 / p)
    rhs = (p / (p - 1.0)) * n_fun ** (1.0 / p) * max(roots)
    return MaxBoundReport(n_functions=n_fun, p=float(p), lhs=lhs, rhs=rhs, per_function=roots)


# ---------------------------------------------------------------------------
# Dyadic conditional-sum norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MwNormReport:
    """Terms 2^(-j/2) ||V_{2^j} f||_p and their partial sums up to level J."""

    terms: tuple[tuple[int, float], ...]
    partial_sums: tuple[float, ...]
    J: int
    converged: bool
    tail_estimate: float
    variant: str
    p: float

    @property
    def value(self) -> float:
        """Best available value: last partial sum plus the geometric tail."""
        return self.partial_sums[-1] + self.tail_estimate

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "p": self.p,
            "J": self.J,
            "terms": [[j, t] for j, t in self.terms],
            "partial_sums": list(self.partial_sums),
            "converged": self.converged,
            "tail_estimate": self.tail_estimate,
            "value": self.value,
        }


def require_variant(model: ProcessModel, variant: str) -> None:
    """Raise ``ConfigError`` naming ``variant`` unless it is one of
    ``_VARIANTS`` and ``mw_norm`` can take that norm of the model's
    increments."""
    one_of(_VARIANTS)({"variant": variant}, "variant")
    if model.chain is not None:
        if variant != "adapted":
            raise ConfigError("variant: the renewal chain exposes only the adapted oracle")
        return
    if variant == "adapted" and not model.has_PT_adapted:
        raise ConfigError("variant: model increments are not past-measurable")
    if variant == "nonadapted" and not model.increment_fn.condexp_past(0).is_zero:
        raise ConfigError("variant: nonadapted norm requires E[f | past] = 0")


def mw_norm(model: ProcessModel, variant: str, p: float, J: int) -> MwNormReport:
    """Dyadic norm terms of the model's increment function up to level J.

    The chain route evaluates V_{2^j} g exactly through the regeneration
    dynamic program; window-function models stay symbolic (the semigroup is
    nilpotent on finite windows, so V_n stabilizes after the window width).
    The variant is checked first; then, on the chain, a J whose DP table
    (2^J - 1 entries) passes ``DP_BUDGET`` fails before the table is built.
    """
    require_variant(model, variant)
    if J < 0:
        raise ValueError("J must be >= 0")
    if model.chain is not None and (1 << min(J, 64)) - 1 > DP_BUDGET:
        raise ConfigError(f"J: {J} takes a DP table of 2^J - 1 entries, above {DP_BUDGET}")
    oracle = None if model.chain is None else ChainOracle(model.chain)

    # V_{2^j} f stabilizes once P^i f vanishes: the norm of the last V_n is
    # taken at the first level 2^j beyond it and reused from there on.
    terms: list[tuple[int, float]] = []
    sums = semigroup_partial_sums(model, variant, model.increment_fn)
    covered = 0
    stable: float | None = None
    for j in range(J + 1):
        n = 1 << j
        if oracle is not None:
            norm = chain_lp_norm(model.chain, oracle.v_sum(n), p)
        elif stable is None:
            for v in islice(sums, n - covered):
                covered += 1
            norm = v.lp_norm(p, model.innovation)
            if covered < n:
                stable = norm
        else:
            norm = stable
        terms.append((j, 2.0 ** (-0.5 * j) * norm))
    partial = np.cumsum([t for _, t in terms])
    # geometric ratio test on the last levels
    last = terms[-1][1]
    prev = terms[-2][1] if len(terms) > 1 else float("inf")
    ratio = last / prev if prev > 0 else 0.0
    converged = ratio < RATIO_TEST_THRESHOLD or last == 0.0
    tail = last * ratio / (1.0 - ratio) if converged and 0.0 < ratio < 1.0 else 0.0
    return MwNormReport(
        terms=tuple(terms),
        partial_sums=tuple(float(x) for x in partial),
        J=J,
        converged=converged,
        tail_estimate=tail,
        variant=variant,
        p=float(p),
    )


# ---------------------------------------------------------------------------
# Conditional-sum series diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesDiagnostic:
    """Partial sums of sum_k a_k ||E[S_k | past]||_p / k^(3/2) with a dyadic
    block ratio test.  The verdict is a statement about the computed range
    only, never about the true limit."""

    rows: tuple[tuple[int, float, float], ...]  # (n, term at n, partial sum to n)
    block_ratios: tuple[float, ...]
    verdict: str
    p: float
    N: int
    weighted: bool

    def to_dict(self) -> dict:
        return {
            "rows": [[n, t, s] for n, t, s in self.rows],
            "block_ratios": list(self.block_ratios),
            "verdict": self.verdict,
            "p": self.p,
            "N": self.N,
            "weighted": self.weighted,
        }


def _scale_boundaries(model: ProcessModel, N: int) -> list[int]:
    """Block boundaries for the ratio test, commensurate with the model's
    dependence scales: the chain's excursion lengths (u_j, from u_1 = 1), or
    1 and the window width for innovation-driven models, continued
    dyadically.  Dyadic blocks straddling an excursion scale mix the growth
    and saturation regimes and cannot resolve the weighted series;
    scale-aligned blocks can.
    """
    if model.chain is not None:
        bounds = [int(v) for v in model.chain.u if v <= N]
    else:
        width = model.increment_fn.width
        bounds = [1] + ([width] if 1 < width <= N else [])
    nxt = 2 * bounds[-1]
    while nxt <= N:
        bounds.append(nxt)
        nxt *= 2
    return bounds


def _series_verdict(terms: np.ndarray, bounds: list[int]) -> tuple[tuple[float, ...], str]:
    """Ratio test on consecutive blocks terms[b_i .. b_{i+1})."""
    bounds = bounds + [terms.size + 1]
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        hi = min(hi, terms.size + 1)
        if hi > lo:
            blocks.append(float(terms[lo - 1 : hi - 1].sum()))
    ratios = tuple(
        blocks[k] / blocks[k - 1] if blocks[k - 1] > 0 else 0.0 for k in range(1, len(blocks))
    )
    if ratios and all(r < RATIO_TEST_THRESHOLD for r in ratios):
        verdict = "converges"
    else:
        verdict = "no numerical evidence of convergence"
    return ratios, verdict


def conditional_sum_norms(model: ProcessModel, p: float, N: int) -> np.ndarray:
    """||E[S_k | past]||_p = ||V_k f||_p for k = 1..N (adapted models).  On
    the chain, an N whose DP table (N - 1 entries) passes ``DP_BUDGET`` fails first."""
    if model.chain is not None:
        if N - 1 > DP_BUDGET:
            raise ConfigError(f"N: {N} takes a DP table of N - 1 entries, above {DP_BUDGET}")
        return ChainOracle(model.chain).v_norms(N, p)
    if not model.has_PT_adapted:
        raise ConfigError(f"model: model {model.label!r} has no conditional-sum oracle")
    norms = np.empty(N)
    sums = semigroup_partial_sums(model, "adapted", model.increment_fn)
    for k, v in enumerate(islice(sums, N)):
        norms[k] = v.lp_norm(p, model.innovation)
    norms[k + 1 :] = norms[k]
    return norms


def mw_series_diagnostic(
    model: ProcessModel,
    p: float,
    a: Sequence[float] | np.ndarray | Callable[[int], np.ndarray] | None,
    N: int,
) -> SeriesDiagnostic:
    """Evaluate the weighted conditional-sum series up to N.

    ``a`` is a weight sequence (a_1 .. a_N), or a function of N that returns
    one, called after the norms (so after their budget check); absent
    weights mean a_n = 1, which gives the unweighted summability condition.
    Partial sums are tabulated at dyadic n; the verdict comes from a block
    ratio test with blocks aligned to the model's dependence scales (see
    ``_scale_boundaries``), and is a statement about the computed range
    only.
    """
    N = int(N)
    if N < 2:
        raise ValueError("N must be >= 2")
    norms = conditional_sum_norms(model, p, N)
    weighted = a is not None
    if callable(a):
        a = a(N)
    weights = np.asarray(a, dtype=float) if weighted else np.ones(N)
    if weights.shape != (N,):
        raise ValueError(f"weight sequence must have length N = {N}")
    k = np.arange(1, N + 1, dtype=float)
    terms = weights * norms / k ** 1.5
    partial = np.cumsum(terms)
    rows = []
    n = 1
    while n <= N:
        rows.append((n, float(terms[n - 1]), float(partial[n - 1])))
        n *= 2
    ratios, verdict = _series_verdict(terms, _scale_boundaries(model, N))
    return SeriesDiagnostic(
        rows=tuple(rows),
        block_ratios=ratios,
        verdict=verdict,
        p=float(p),
        N=N,
        weighted=weighted,
    )


def counterexample_weights(spec: RenewalChainSpec, N: int) -> np.ndarray:
    """Weights a_n = k(n)^-2 with k(n) the deepest index satisfying
    u_k <= n; these decay exactly fast enough to tame the excursion scales."""
    u = np.asarray(spec.u)
    n = np.arange(1, N + 1)
    k_of_n = np.searchsorted(u, n, side="right")  # number of u_k <= n, >= 1
    return 1.0 / k_of_n.astype(float) ** 2
