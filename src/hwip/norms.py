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

Each estimator returns one plain dict, the object its ``hwip norms``
report prints.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

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
    "empirical_weak_lp",
    "weak_lp_max_bound_check",
    "mw_norm",
    "mw_series_diagnostic",
    "counterexample_weights",
]

#: A dyadic block of the series must shrink by at least this factor for the
#: ratio test to count it as geometric decay.
RATIO_TEST_THRESHOLD = 0.95

#: The weights ``mw_series_diagnostic`` takes.
_WEIGHTS = ("ones", "counterexample")


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


def empirical_weak_lp(samples: Sequence[float] | np.ndarray, p: float) -> dict:
    """Estimate the weak-L^p tail functional from samples of |h|.

    ``tail_form`` is the exact plug-in supremum over the empirical measure:
    max over sample points x of x^p * (#{|samples| >= x} / N).
    ``tail_form_root`` is its 1/p-th power, and ``dual_lower`` and
    ``dual_upper`` bracket the event-form norm.
    """
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    x = np.abs(np.asarray(samples, dtype=float)).ravel()
    if x.size == 0:
        raise ValueError("samples must be nonempty")
    value = _tail_form(x, p)
    p = float(p)
    root = value ** (1.0 / p)
    return {
        "tail_form": value,
        "tail_form_root": root,
        "dual_lower": root,
        "dual_upper": root * p / (p - 1.0),
        "p": p,
        "sample_count": int(x.size),
    }


def weak_lp_max_bound_check(sample_matrix: np.ndarray, p: float) -> dict:
    """Check the weak-L^p bound for a maximum of N functions,

        tail(max_j |h_j|)^(1/p) <= (p/(p-1)) * N^(1/p) * max_j tail(h_j)^(1/p),

    on an (N functions x replicates) matrix.  The worst (and only) ratio
    lhs/rhs is returned; values below one certify the bound on the empirical
    measure.
    """
    m = np.abs(np.asarray(sample_matrix, dtype=float))
    if m.ndim == 1:
        m = m[None, :]
    if m.ndim != 2 or m.size == 0:
        raise ValueError("sample_matrix must be (N, replicates)")
    n_fun = m.shape[0]
    roots = [_tail_form(m[j], p) ** (1.0 / p) for j in range(n_fun)]
    lhs = _tail_form(m.max(axis=0), p) ** (1.0 / p)
    rhs = (p / (p - 1.0)) * n_fun ** (1.0 / p) * max(roots)
    return {
        "n_functions": n_fun,
        "p": float(p),
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs > 0 else 0.0,
        "passed": lhs <= rhs * (1.0 + 1e-12),
        "per_function_roots": roots,
    }


# ---------------------------------------------------------------------------
# Dyadic conditional-sum norm
# ---------------------------------------------------------------------------


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
    if variant == "nonadapted" and not model.increment_fn.condexp_past().is_zero:
        raise ConfigError("variant: nonadapted norm requires E[f | past] = 0")


def mw_norm(model: ProcessModel, variant: str, p: float, J: int) -> dict:
    """Dyadic norm terms 2^(-j/2) ||V_{2^j} f||_p of the model's increment
    function up to level J, as ``terms`` ``[[j, term], ...]``, with their
    ``partial_sums``, a geometric ratio test (``converged``,
    ``tail_estimate``) and the best available ``value``: the last partial
    sum plus the geometric tail.

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
    terms: list[list] = []
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
        terms.append([j, 2.0 ** (-0.5 * j) * norm])
    partial = [float(x) for x in np.cumsum([t for _, t in terms])]
    # geometric ratio test on the last levels
    last = terms[-1][1]
    prev = terms[-2][1] if len(terms) > 1 else float("inf")
    ratio = last / prev if prev > 0 else 0.0
    converged = ratio < RATIO_TEST_THRESHOLD or last == 0.0
    tail = last * ratio / (1.0 - ratio) if converged and 0.0 < ratio < 1.0 else 0.0
    return {
        "variant": variant,
        "p": float(p),
        "J": J,
        "terms": terms,
        "partial_sums": partial,
        "converged": converged,
        "tail_estimate": tail,
        "value": partial[-1] + tail,
    }


# ---------------------------------------------------------------------------
# Conditional-sum series diagnostics
# ---------------------------------------------------------------------------


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


def _series_verdict(terms: np.ndarray, bounds: list[int]) -> tuple[list[float], str]:
    """Ratio test on consecutive blocks terms[b_i .. b_{i+1})."""
    bounds = bounds + [terms.size + 1]
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        hi = min(hi, terms.size + 1)
        if hi > lo:
            blocks.append(float(terms[lo - 1 : hi - 1].sum()))
    ratios = [
        blocks[k] / blocks[k - 1] if blocks[k - 1] > 0 else 0.0 for k in range(1, len(blocks))
    ]
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


def mw_series_diagnostic(model: ProcessModel, p: float, N: int, weights: str = "ones") -> dict:
    """Evaluate the weighted conditional-sum series
    sum_k a_k ||E[S_k | past]||_p / k^(3/2) up to N.

    ``weights`` is "ones" (a_n = 1, the unweighted summability condition)
    or "counterexample" (``counterexample_weights``, on a renewal chain
    only), built after the norms and so after their budget check.  The
    ``rows`` ``[[n, term, partial sum], ...]`` are tabulated at dyadic n;
    the ``verdict`` comes from a block ratio test with blocks aligned to the
    model's dependence scales (see ``_scale_boundaries``), and is a
    statement about the computed range only, never about the true limit.
    """
    one_of(_WEIGHTS)({"weights": weights}, "weights")
    weighted = weights == "counterexample"
    if weighted and model.chain is None:
        raise ConfigError("weights: 'counterexample' requires a renewal_chain model")
    N = int(N)
    if N < 2:
        raise ValueError("N must be >= 2")
    norms = conditional_sum_norms(model, p, N)
    a = counterexample_weights(model.chain, N) if weighted else np.ones(N)
    k = np.arange(1, N + 1, dtype=float)
    terms = a * norms / k ** 1.5
    partial = np.cumsum(terms)
    rows = []
    n = 1
    while n <= N:
        rows.append([n, float(terms[n - 1]), float(partial[n - 1])])
        n *= 2
    ratios, verdict = _series_verdict(terms, _scale_boundaries(model, N))
    return {
        "rows": rows,
        "block_ratios": ratios,
        "verdict": verdict,
        "p": float(p),
        "N": N,
        "weighted": weighted,
    }


def counterexample_weights(spec: RenewalChainSpec, N: int) -> np.ndarray:
    """Weights a_n = k(n)^-2 with k(n) the deepest index satisfying
    u_k <= n; these decay exactly fast enough to tame the excursion scales."""
    u = np.asarray(spec.u)
    n = np.arange(1, N + 1)
    k_of_n = np.searchsorted(u, n, side="right")  # number of u_k <= n, >= 1
    return 1.0 / k_of_n.astype(float) ** 2
