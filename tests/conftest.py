"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's optimized code paths:
pair maxima by double loop or by the dense per-lag sweep, the continuous
modulus by dense grid search, conditional sums and renewal paths by
direct chain stepping, semigroup partial sums by applying P^i afresh for
every i.
"""

from __future__ import annotations

import numpy as np
import pytest

from hwip.holder import PolygonalPath
from hwip.models import RenewalChainSpec, apply_PT
from hwip.rng import substream

#: One line per acceptance criterion, echoed after the run (see the
#: pytest_terminal_summary hook below).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def brute_force_pair_max(partial_sums, alpha, max_lag=None):
    """Exhaustive enumeration of |S_j - S_i| / (j - i)^alpha."""
    s = np.asarray(partial_sums, dtype=float)
    n = s.size - 1
    max_lag = n if max_lag is None else min(max_lag, n)
    best = 0.0
    for i in range(n):
        for j in range(i + 1, min(i + max_lag, n) + 1):
            best = max(best, abs(s[j] - s[i]) / (j - i) ** alpha)
    return best


def brute_force_dyadic_lower(partial_sums, alpha):
    """max |S_{i+d} - S_i| / d**alpha over the lags d that are powers of two
    and the starts i that are multiples of d, pair by pair."""
    s = np.asarray(partial_sums, dtype=float)
    n = s.size - 1
    best = 0.0
    d = 1
    while d <= n:
        for i in range(0, n - d + 1, d):
            best = max(best, abs(s[i + d] - s[i]) / d ** alpha)
        d *= 2
    return best


def dense_windowed_maxima(partial_sums, alpha, windows):
    """The dense per-lag sweep: for every lag d up to the largest window,
    max_i |S_{i+d} - S_i| / d**alpha per row, with the running maximum
    over lags read at each window.  Shape (len(windows), rows)."""
    s = np.asarray(partial_sums, dtype=float)
    n = s.shape[1] - 1
    tops = [min(int(w), n) for w in windows]
    running = np.zeros(s.shape[0])
    profile = []
    for d in range(1, max(tops) + 1):
        np.maximum(running, np.abs(s[:, d:] - s[:, :-d]).max(axis=1) / d ** alpha, out=running)
        profile.append(running.copy())
    return np.array([profile[w - 1] for w in tops])


def grid_modulus(path: PolygonalPath, alpha: float, per_step: int = 8, window_steps=None):
    """Dense-grid search for the continuous alpha-modulus in step-time units.

    Evaluates the interpolant at resolution 1/per_step of a mesh step and
    maximizes |w(u) - w(v)| / |u - v|^alpha over grid pairs with
    |u - v| <= window_steps.  A superset of the vertex pairs, so always
    >= the vertex statistic.
    """
    n = path.n
    grid_t = np.arange(n * per_step + 1) / (n * per_step)
    w = np.interp(grid_t * n, np.arange(n + 1), path.partial_sums)
    max_lag = n * per_step if window_steps is None else int(round(window_steps * per_step))
    best = 0.0
    for lag in range(1, max_lag + 1):
        du = lag / per_step
        best = max(best, float(np.max(np.abs(w[lag:] - w[:-lag]))) / du ** alpha)
    return best


def brute_force_partial_sum(model, variant, h, n):
    """V_n h = sum_{i<n} P^i h for a window function h, each P^i h computed
    from h by i applications of apply_PT.  A vanishing term is skipped: it
    has no window to align."""
    total = h
    for i in range(1, n):
        term = h
        for _ in range(i):
            term = apply_PT(model, variant, term)
        if not term.is_zero:
            total = total + term
    return total


def mc_conditional_sums(
    spec: RenewalChainSpec, start: int, n: int, replicates: int, rng: np.random.Generator
):
    """Direct chain stepping: E[S_k | Y_0 = start] estimates for k = 1..n
    with standard errors; independent of the regeneration sampler."""
    y = np.full(replicates, start, dtype=np.int64)
    sums = np.zeros((replicates, n))
    jumps = spec.tau_values - 1
    probs = spec.tau_probs
    acc = np.zeros(replicates)
    for t in range(n):
        at_zero = y == 0
        k = int(at_zero.sum())
        if k:
            y[at_zero] = rng.choice(jumps, size=k, p=probs)
        y[~at_zero] -= 1
        acc += (y == 0).astype(float) - spec.pi0
        sums[:, t] = acc
    means = sums.mean(axis=0)
    stderr = sums.std(axis=0, ddof=1) / np.sqrt(replicates)
    return means, stderr


def stepped_renewal_path(
    spec: RenewalChainSpec, length: int, seed: int, start_state=None, index: int = 0
):
    """(Y_0, ..., Y_length) and (g(Y_1), ..., g(Y_length)) by stepping the
    chain in plain Python: Y_{t+1} = Y_t - 1, or tau - 1 when Y_t = 0.

    Y_0 and the return times tau come from ``substream(seed, index)`` by
    ``Generator.choice``, in the order of ``sample_renewal_path`` (Y_0
    first, then the taus, one uniform each), so the two paths must agree bit
    for bit; a batch is drawn only when a return needs a tau the earlier
    batches did not hold.  A batch holds ``max(64, 1.2 n / E[tau] + 8)``
    taus, so on long paths one batch here spans several of the sampler's
    blocks of at most 2^14 uniforms.
    """
    rng = substream(seed, index)
    if start_state is None:
        y = int(rng.choice(spec.n_states, p=spec.pi / spec.pi.sum()))
    else:
        y = int(start_state)
    batch = max(64, int(1.2 * (length / spec.mean_tau)) + 8)
    taus = iter(())
    states = [y]
    for _ in range(length):
        if y == 0:
            tau = next(taus, None)
            if tau is None:
                taus = iter(rng.choice(spec.tau_values, size=batch, p=spec.tau_probs).tolist())
                tau = next(taus)
            y = tau - 1
        else:
            y -= 1
        states.append(y)
    increments = [(1.0 if y == 0 else 0.0) - spec.pi0 for y in states[1:]]
    return np.array(states, dtype=np.int64), np.array(increments)


@pytest.fixture(scope="session")
def chain_spec():
    from hwip.models import build_renewal_chain

    return build_renewal_chain(3.0, 4)
