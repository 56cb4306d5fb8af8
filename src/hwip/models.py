"""Stationary increment models with closed-form conditional-expectation oracles.

Two families are implemented.

*Innovation-driven models* (iid, martingale difference, martingale plus
coboundary, linear process) have increments of the form ``f(eps_{t+lo}, ...,
eps_{t+hi})`` for iid innovations; ``f`` is carried around explicitly as a
window function, so shifting by the time map, conditioning on the past and
taking L^p norms are exact operations on the representation.  Rademacher
innovations are tabulated over sign patterns (everything exact by
enumeration); Gaussian innovations are restricted to linear window
functions, where conditional expectations just drop coordinates and L^p
norms are Gaussian moments.

*The renewal chain* is a Markov chain on {0, 1, 2, ...}: from any state
k >= 1 it descends deterministically to k - 1, from 0 it jumps to u_j - 1
with probability p_{u_j}.  Its increments are g(Y_t) = 1{Y_t = 0} - pi_0.
Return times to 0 are iid with law P(tau = u_j) = p_{u_j}, which makes
every conditional sum computable by a regeneration dynamic program.

The two conditional-expectation semigroups exposed per model are

    adapted:     P h = E[h o T | past],  defined for past-measurable h,
    nonadapted:  P h = h o T^-1 - E[h o T^-1 | past],  for E[h | past] = 0,

and both satisfy the semigroup law and the power bound ||P^k h||_p <= 2 ||h||_p
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ._special import gammaln
from .config import (
    ConfigError, as_given, at_least, expect_number, expect_p, number_or_null, one_of, read,
)
from .rng import as_generator, substreams

__all__ = [
    "InnovationLaw",
    "RADEMACHER",
    "NORMAL",
    "UNIFORM",
    "TableFunction",
    "LinearFunction",
    "ZERO_FUNCTION",
    "RenewalChainSpec",
    "build_u_sequence",
    "build_renewal_chain",
    "sample_renewal_path",
    "conditional_sum_oracle",
    "chain_transition",
    "chain_lp_norm",
    "renewal_variance_constant",
    "ProcessModel",
    "iid_model",
    "mds_model",
    "coboundary_model",
    "linear_process_model",
    "renewal_model",
    "gaussian_contrast_model",
    "sample_model",
    "sample_batch",
    "apply_PT",
    "semigroup_partial_sums",
]

# Integer powers beyond 2**53 lose exactness in double precision, which makes
# floor() in the u-sequence rule ill-defined.
_EXACT_INT_LIMIT = 2.0 ** 53

#: Most states (u_depth) a renewal chain is built with.  Its per-state
#: arrays peak at 24 bytes a state while it is built; the largest chain
#: the tests build, p = 2.01 at depth 6, has 2247271 states.
_MAX_STATES = 1 << 22

#: Hard cap for the regeneration dynamic program.
DP_BUDGET = 1 << 22

#: The two conditional-expectation semigroups (see the module docstring).
_VARIANTS = ("adapted", "nonadapted")


def gaussian_abs_moment(p: float) -> float:
    """(E|N(0,1)|^p)^(1/p) = (2^(p/2) Gamma((p+1)/2) / sqrt(pi))^(1/p)."""
    log_m = 0.5 * p * math.log(2.0) + gammaln(0.5 * (p + 1.0)) - 0.5 * math.log(math.pi)
    return math.exp(log_m / p)


# ---------------------------------------------------------------------------
# Innovation laws
# ---------------------------------------------------------------------------


_LAW_NAMES = ("rademacher", "normal", "uniform")


@dataclass(frozen=True)
class InnovationLaw:
    """Mean-zero, unit-variance innovation law."""

    name: str

    def __post_init__(self):
        if self.name not in _LAW_NAMES:
            raise ValueError(f"innovation: must be one of {_LAW_NAMES}, got {self.name!r}")

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """``size`` innovations: their sign bits (0 for -1, 1 for +1) for
        rademacher, which tabulated window functions index directly, and
        their values otherwise."""
        if self.name == "rademacher":
            return rng.integers(0, 2, size=size)
        if self.name == "normal":
            return rng.standard_normal(size)
        return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=size)

    def abs_moment(self, p: float) -> float:
        """(E|eps|^p)^(1/p); used for exact norms of single-coordinate functions."""
        if self.name == "rademacher":
            return 1.0
        if self.name == "normal":
            return gaussian_abs_moment(p)
        # E|U|^p on [-sqrt(3), sqrt(3)] = 3^(p/2) / (p + 1)
        return math.exp((0.5 * p * math.log(3.0) - math.log(p + 1.0)) / p)


RADEMACHER = InnovationLaw("rademacher")
NORMAL = InnovationLaw("normal")
UNIFORM = InnovationLaw("uniform")

# Sign-pattern enumeration beyond this window width is rejected.
_MAX_TABLE_WIDTH = 22


# ---------------------------------------------------------------------------
# Window functions: exact finite-memory functionals of the innovations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableFunction:
    """Function of rademacher innovations at offsets lo..lo+w-1, tabulated
    over the 2^w sign patterns.

    ``table`` has shape (2,)*w; axis i indexes the sign of the innovation at
    offset lo + i (entry 0 for -1, entry 1 for +1).  A 0-d table is a
    constant.  All operations below are exact.
    """

    lo: int
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=float))

    @property
    def width(self) -> int:
        return self.table.ndim

    @property
    def hi(self) -> int:
        return self.lo + self.width - 1

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.table == 0.0))

    def shift(self, s: int) -> "TableFunction":
        return TableFunction(self.lo + s, self.table)

    def condexp_past(self) -> "TableFunction":
        """E[. | innovations at offsets <= 0]: average out newer axes."""
        drop = self.hi
        if drop <= 0 or self.width == 0:
            return self
        drop = min(drop, self.width)
        axes = tuple(range(self.width - drop, self.width))
        return TableFunction(self.lo, self.table.mean(axis=axes))

    def _aligned(self, lo: int, hi: int) -> np.ndarray:
        """Broadcast the table to the window lo..hi."""
        width = hi - lo + 1
        shape = [1] * width
        start = self.lo - lo
        for k in range(self.width):
            shape[start + k] = 2
        return np.broadcast_to(self.table.reshape(shape), (2,) * width)

    def _binop(self, other: "TableFunction", op) -> "TableFunction":
        if self.width == 0:
            lo, hi = other.lo, other.hi
        elif other.width == 0:
            lo, hi = self.lo, self.hi
        else:
            lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        return TableFunction(lo, op(self._aligned(lo, hi), other._aligned(lo, hi)))

    def __add__(self, other: "TableFunction") -> "TableFunction":
        return self._binop(other, np.add)

    def __sub__(self, other: "TableFunction") -> "TableFunction":
        return self._binop(other, np.subtract)

    def lp_norm(self, p: float, law: InnovationLaw) -> float:
        if law.name != "rademacher":
            raise ConfigError("model: tabulated window functions require rademacher innovations")
        return float(np.mean(np.abs(self.table) ** p) ** (1.0 / p))

    def eval_windows(self, bits: np.ndarray, n: int) -> np.ndarray:
        """Evaluate at times t = 0..n-1 along the last axis, given the sign
        bits ``bits[..., t + i]`` (integers, 1 for +1) of the innovations at
        offset lo + i; the last axis must have length >= n + width - 1."""
        if self.width == 0:
            return np.full(bits.shape[:-1] + (n,), float(self.table))
        code = bits[..., :n]
        for i in range(1, self.width):
            code = (code << 1) | bits[..., i : i + n]
        return self.table.reshape(-1)[code]


@dataclass(frozen=True)
class LinearFunction:
    """Linear functional sum_i c_i * eps_{t + o_i} of the innovations.

    Closed under shifting and conditioning for any mean-zero law; with
    Gaussian innovations its L^p norm is an exact Gaussian moment.
    """

    offsets: tuple[int, ...]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        pairs = {}
        for o, c in zip(self.offsets, self.coeffs):
            pairs[int(o)] = pairs.get(int(o), 0.0) + float(c)
        pairs = {o: c for o, c in sorted(pairs.items()) if c != 0.0}
        object.__setattr__(self, "offsets", tuple(pairs.keys()))
        object.__setattr__(self, "coeffs", tuple(pairs.values()))

    @property
    def width(self) -> int:
        return len(self.offsets)

    @property
    def lo(self) -> int:
        return self.offsets[0] if self.offsets else 0

    @property
    def hi(self) -> int:
        return self.offsets[-1] if self.offsets else 0

    @property
    def is_zero(self) -> bool:
        return not self.offsets

    def shift(self, s: int) -> "LinearFunction":
        return LinearFunction(tuple(o + s for o in self.offsets), self.coeffs)

    def condexp_past(self) -> "LinearFunction":
        kept = [(o, c) for o, c in zip(self.offsets, self.coeffs) if o <= 0]
        return LinearFunction(tuple(o for o, _ in kept), tuple(c for _, c in kept))

    def __add__(self, other: "LinearFunction") -> "LinearFunction":
        return LinearFunction(self.offsets + other.offsets, self.coeffs + other.coeffs)

    def __sub__(self, other: "LinearFunction") -> "LinearFunction":
        return self + other.scaled(-1.0)

    def scaled(self, c: float) -> "LinearFunction":
        return LinearFunction(self.offsets, tuple(c * x for x in self.coeffs))

    def lp_norm(self, p: float, law: InnovationLaw) -> float:
        if self.is_zero:
            return 0.0
        if law.name == "normal":
            return gaussian_abs_moment(p) * math.sqrt(sum(c * c for c in self.coeffs))
        if law.name == "rademacher":
            return self.to_table().lp_norm(p, law)
        if self.width == 1:
            return abs(self.coeffs[0]) * law.abs_moment(p)
        raise ConfigError(
            f"model: no exact L^p norm for linear functions of several {law.name} innovations"
        )

    def to_table(self) -> TableFunction:
        if self.is_zero:
            return TableFunction(0, np.zeros(()))
        lo, hi = self.lo, self.hi
        width = hi - lo + 1
        if width > _MAX_TABLE_WIDTH:
            raise ConfigError(
                f"innovation: a rademacher window {width} wide is above {_MAX_TABLE_WIDTH}"
            )
        table = np.zeros((2,) * width)
        for o, c in zip(self.offsets, self.coeffs):
            shape = [1] * width
            shape[o - lo] = 2
            table = table + c * np.array([-1.0, 1.0]).reshape(shape)
        return TableFunction(lo, table)

    def eval_windows(self, eps: np.ndarray, n: int) -> np.ndarray:
        """Evaluate at times t = 0..n-1 along the last axis, given the
        innovations ``eps[..., t + i]`` at offset lo + i."""
        out = np.zeros(eps.shape[:-1] + (n,))
        lo = self.lo
        for o, c in zip(self.offsets, self.coeffs):
            i = o - lo
            out += c * eps[..., i : i + n]
        return out


#: The identically-zero increment function (used as the symbolic kernel image).
ZERO_FUNCTION = LinearFunction((), ())


def _window_span(fn) -> tuple[int, int]:
    if fn.width == 0 or fn.is_zero:
        return (0, 0)
    return (fn.lo, fn.hi)


# ---------------------------------------------------------------------------
# Renewal chain
# ---------------------------------------------------------------------------


def build_u_sequence(p: float, depth: int) -> tuple[int, ...]:
    """Return (u_1, ..., u_depth) with u_1 = 1, u_2 = 2 and, for k >= 2,
    u_{k+1} = floor(u_k^(p/2+1)) + 2 -- the minimal integer rule satisfying
    the strict growth constraint u_k^(p/2+1) + 1 < u_{k+1}.  Raises
    ``ConfigError`` naming depth once u_depth passes the exact integers."""
    if not p > 2.0:
        raise ValueError(f"p must exceed 2, got {p}")
    depth = int(depth)
    if depth < 2:
        raise ValueError("depth must be >= 2")
    u = [1, 2]
    expo = 0.5 * p + 1.0
    for k in range(2, depth):
        # In logs first, as u_k^expo may pass the float range.
        power = float(u[-1]) ** expo if expo * math.log2(u[-1]) < 54.0 else math.inf
        if power >= _EXACT_INT_LIMIT:
            raise ConfigError(
                f"depth: u_{k + 1} exceeds the exactly-representable integer range "
                f"(u_{k} = {u[-1]}, growth exponent {expo})"
            )
        u.append(int(math.floor(power)) + 2)
    return tuple(u)


@dataclass(frozen=True)
class RenewalChainSpec:
    """Return distribution, stationary law and derived constants of the chain.

    Invariants (validated at construction): the return probabilities sum to
    one, ``pi_j = pi_0 * sum_{i > j} p_i`` with ``pi_0 = 1 / E[tau]``, and
    ``sum_j pi_j = 1``.
    """

    p: float
    depth: int
    u: tuple[int, ...]
    c: float
    return_probs: dict[int, float]
    pi: np.ndarray
    pi0: float
    mean_tau: float

    def __post_init__(self):
        probs = np.array([self.return_probs[v] for v in self.u])
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("return probabilities must sum to 1")
        if abs(float(np.sum(self.pi)) - 1.0) > 1e-10:
            raise ValueError("stationary law must sum to 1")
        if not math.isclose(self.mean_tau, float(np.dot(self.u, probs)), rel_tol=1e-12):
            raise ValueError("mean_tau inconsistent with the return distribution")

    @property
    def n_states(self) -> int:
        return self.u[-1]

    @property
    def tau_values(self) -> np.ndarray:
        return np.asarray(self.u, dtype=np.int64)

    @property
    def tau_probs(self) -> np.ndarray:
        return np.array([self.return_probs[v] for v in self.u])

    def tau_moment(self, power: float) -> float:
        return float(np.dot(self.tau_values.astype(float) ** power, self.tau_probs))

    def g(self, states: np.ndarray) -> np.ndarray:
        """Increment function g(y) = 1{y = 0} - pi_0."""
        return (np.asarray(states) == 0).astype(float) - self.pi0

    def g_vector(self) -> np.ndarray:
        return self.g(np.arange(self.n_states))

    def to_dict(self) -> dict:
        """The chain's parameters and constants, without the stationary law
        ``pi``: it has one entry per state (196418 at p = 3, depth 5),
        and ``build_renewal_chain(p, depth)`` derives it."""
        return {
            "kind": "renewal_chain",
            "p": self.p,
            "depth": self.depth,
            "u": list(self.u),
            "c": self.c,
            "return_probs": {str(k): v for k, v in self.return_probs.items()},
            "pi0": self.pi0,
            "mean_tau": self.mean_tau,
        }


def build_renewal_chain(p: float, depth: int) -> RenewalChainSpec:
    """Construct the chain spec at the given depth, normalizing the return
    distribution exactly: c = 1 / sum_{j <= depth} j * u_j^(-1-p/2).  Raises
    ``ConfigError`` naming ``depth``, before any allocation, if u_depth (the
    number of states) exceeds ``_MAX_STATES`` or the exact integers."""
    u = build_u_sequence(p, depth)
    if u[-1] > _MAX_STATES:
        raise ConfigError(f"depth: u_{depth} = {u[-1]} states at p = {p:g}, above {_MAX_STATES}")
    j = np.arange(1, depth + 1, dtype=float)
    uf = np.asarray(u, dtype=float)
    weights = j * uf ** (-1.0 - 0.5 * p)
    c = 1.0 / float(weights.sum())
    probs = c * weights
    probs = probs / probs.sum()
    return_probs = {int(v): float(q) for v, q in zip(u, probs)}
    mean_tau = float(np.dot(uf, probs))
    pi0 = 1.0 / mean_tau
    # pi_m = pi_0 * P(tau > m) for m >= 1 (and pi_0 itself at m = 0).  The
    # u_k > m are a suffix of u, so P(tau > m) is one of the suffix sums.
    n_states = u[-1]
    suffix = np.array([probs[k:].sum() for k in range(depth + 1)])
    tail = suffix[np.searchsorted(uf, np.arange(n_states), side="right")]
    pi = pi0 * tail
    pi[0] = pi0
    return RenewalChainSpec(
        p=float(p),
        depth=depth,
        u=u,
        c=c,
        return_probs=return_probs,
        pi=pi,
        pi0=pi0,
        mean_tau=mean_tau,
    )


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF that ``Generator.choice(a, p=p)`` searches, computed as it
    computes it; its draw for a uniform u is the index
    ``cdf.searchsorted(u, side="right")`` (``_cdf_index``)."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def _cdf_index(cdf: np.ndarray, u: np.ndarray, out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` for a sorted ``cdf``, into
    ``out``: the number of edges ``<= u``, counted by one comparison pass per
    edge, so tied edges (zero-probability entries) count twice as in the
    search.  ``out`` (an integer array that holds ``cdf.size``) and the bool
    ``mask`` have u's shape; with a ``uint8`` ``out`` nothing is allocated.
    On a CDF of a few entries, such as the return times', and thousands of
    uniforms, this is several times cheaper than the binary search."""
    out.fill(0)
    for edge in cdf:
        np.add(out, np.greater_equal(u, edge, out=mask).view(np.uint8), out=out)
    return out


#: Return times drawn per block by the renewal sampler; a block's arrays
#: are the only ones beside the path.  With them allocated per row on two
#: worker threads, whose freed memory glibc keeps in per-thread arenas, 60
#: headline repetitions in one process peaked 29 MB higher with one
#: 346730-uniform batch per row, 4.8 MB at 2^16 and 0.7 MB at 2^14; 2^12
#: added nothing but made the chain's rows a third slower.
_BLOCK = 1 << 14


class _RenewalSampler:
    """Paths of length n of the chain, from its regeneration times.

    Every state equals the distance to the next visit of 0, so it suffices
    to draw the initial state Y_0 (one uniform) and the iid return times
    tau (one uniform each), by the draws ``Generator.choice`` makes: Y_0 by
    a search of the stationary CDF, the return times by ``_cdf_index`` on
    theirs.  The two CDFs are computed once.  The return times are walked
    in blocks of at most ``_BLOCK`` uniforms; blocks only regroup uniforms
    consumed in order, so only the unused tail past n depends on the block
    size.  A row touches no state outside its own generator, output and
    ``_RenewalWalk``, so rows may be drawn on several threads at once, one
    walk each.
    """

    def __init__(self, spec: RenewalChainSpec, n: int):
        self.n = n
        self.pi0 = spec.pi0
        self.start_cdf = _choice_cdf(spec.pi / spec.pi.sum())
        self.tau_cdf = _choice_cdf(spec.tau_probs)
        self.taus = spec.tau_values
        self.block = min(max(64, int(1.2 * (n / spec.mean_tau)) + 8), _BLOCK)

    def row(self, rng: np.random.Generator, out: np.ndarray, walk: "_RenewalWalk") -> tuple[int, int]:
        """g(Y_1), ..., g(Y_n) into ``out`` in one span.  Returns Y_0 and
        the first return past n."""
        y0 = walk.start(rng)
        return y0, walk.fill(out)

    def fill(self, rngs, out: np.ndarray) -> None:
        walk = _RenewalWalk(self)
        for row, rng in zip(out, rngs):
            self.row(rng, row, walk)


class _RenewalWalk:
    """One row of a ``_RenewalSampler`` at a time, filled span after span.

    The row's returns to 0 are kept as slots, a return at time t in slot
    t - 1 counted from the start of the span last filled: the first return
    Y_0 (when >= 1), then each block of return times, summed in place and
    offset by the last return before it, less one.  A span marks its
    pending slots below its end; the slots past it carry over to the next
    span.  A block is drawn only when the pending slots are spent, so that
    the last return lies inside the spans filled, at a time <= n: the
    uniforms are consumed in order, whatever the spans.  The blocks are
    walked in arrays every block overwrites, so successive rows share them
    and a block allocates nothing.
    """

    def __init__(self, sampler: _RenewalSampler):
        b = sampler.block
        self.sampler = sampler
        self.u = np.empty(b)
        self.slots = np.empty(b, dtype=np.int64)
        self.counts = np.empty(b, dtype=np.min_scalar_type(sampler.tau_cdf.size))
        self.mask = np.empty(b, dtype=bool)

    def start(self, rng: np.random.Generator) -> int:
        """Begin a row drawn from ``rng``: draw Y_0 and return it."""
        y0 = int(self.sampler.start_cdf.searchsorted(rng.random(), side="right"))
        # Y_0 = 0 is a return at time 0, before any step: a slot already spent.
        self.slots[0] = y0 - 1
        self.rng, self.pos, self.end, self.shift = rng, int(y0 == 0), 1, 0
        return y0

    def fill(self, out: np.ndarray) -> int:
        """The row's next ``out.size`` increments into ``out``: -pi_0, and
        1 - pi_0 at each return to 0.  Returns the time of the first return
        past them, counted from the start of ``out``."""
        s = self.sampler
        slots, pos, end = self.slots, self.pos, self.end
        if self.shift:
            slots[pos:end] -= self.shift
        span = out.size
        out.fill(-s.pi0)
        idx = self.u.view(np.intp)  # the uniforms are spent once counted
        while True:
            k = pos + int(slots[pos:end].searchsorted(span)) if pos < end else end
            if k > pos:
                out[slots[pos:k]] = 1.0 - s.pi0
            if k < end:
                break
            last = int(slots[end - 1]) + 1
            idx[...] = _cdf_index(s.tau_cdf, self.rng.random(out=self.u), self.counts, self.mask)
            # Every index is < len(taus), since u < 1, the last CDF edge.
            np.take(s.taus, idx, out=slots, mode="clip")
            np.cumsum(slots, out=slots)
            slots += last - 1
            pos, end = 0, slots.size
        self.pos, self.end, self.shift = k, end, span
        return int(slots[k]) + 1


def sample_renewal_path(
    spec: RenewalChainSpec,
    length: int,
    seed,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (Y_0, ..., Y_length) and the increments (g(Y_1), ..., g(Y_length)).

    Y_0 is drawn from the stationary law.  The increments are
    ``_RenewalSampler.row``'s, and the states are rebuilt from its returns:
    those marked in the increments and the first one past ``length``.  With r_0 = 0 < r_1 < r_2 < ... these returns, the times t in
    (r_{i-1}, r_i] all wait for r_i, so ``Y_t = r_i - t`` there:
    ``Y_1, ..., Y_length`` is ``repeat(r, diff(r))`` minus ``1, ..., length``.
    """
    length = int(length)
    if length < 1:
        raise ValueError("length must be >= 1")
    increments = np.empty(length)
    sampler = _RenewalSampler(spec, length)
    y0, after = sampler.row(as_generator(seed), increments, _RenewalWalk(sampler))
    returns = np.append(np.flatnonzero(increments > 0) + 1, after)
    states = np.empty(length + 1, dtype=np.int64)
    states[0] = y0
    states[1:] = np.repeat(returns, np.diff(returns, prepend=0))[:length]
    states[1:] -= np.arange(1, length + 1)
    return states, increments


class ChainOracle:
    """Regeneration dynamic program for E[S_n | Y_0 = m] with
    S_n = g(Y_1) + ... + g(Y_n).

    ``e[k] = E[S_k | Y_0 = 0]`` satisfies
    ``e_k = sum_j p_{u_j} (1{k >= u_j} - pi_0 min(u_j, k) + 1{k >= u_j} e_{k - u_j})``
    because the first jump lands at u_j - 1 and the chain regenerates on
    hitting 0.  The table is extended lazily and cached.
    """

    def __init__(self, spec: RenewalChainSpec):
        self.spec = spec
        self._e = np.zeros(1)

    def zero_start(self, n: int) -> np.ndarray:
        """Return the array e[0..n]."""
        n = int(n)
        if n > DP_BUDGET:
            raise ConfigError(f"n: conditional-sum table length {n} exceeds budget {DP_BUDGET}")
        if n < self._e.size:
            return self._e[: n + 1]
        # Python floats: the same sums in the same order as on the array,
        # at half the cost of NumPy scalar arithmetic.
        e = self._e.tolist()
        pairs = [(int(u_j), float(q)) for u_j, q in zip(self.spec.u, self.spec.tau_probs)]
        pi0 = float(self.spec.pi0)
        for k in range(len(e), n + 1):
            total = 0.0
            for u_j, q in pairs:
                if k >= u_j:
                    total += q * (1.0 - pi0 * u_j + e[k - u_j])
                else:
                    total += q * (-pi0 * k)
            e.append(total)
        self._e = np.array(e)
        return self._e

    def table(self, n: int) -> np.ndarray:
        """E[S_n | Y_0 = m] for m = 0 .. n_states - 1."""
        n = int(n)
        if n < 1:
            raise ValueError("n must be >= 1")
        e = self.zero_start(n)
        m = np.arange(self.spec.n_states)
        hit = n >= m
        descent = np.where(hit, 1.0, 0.0) - self.spec.pi0 * np.minimum(m, n)
        tail = np.where(hit & (m >= 1), e[np.maximum(n - m, 0)], 0.0)
        out = descent + tail
        out[0] = e[n]
        return out

    def v_sum(self, n: int) -> np.ndarray:
        """V_n g = g + E[S_{n-1} | .] as a state vector (V_1 g = g)."""
        g = self.spec.g_vector()
        if n == 1:
            return g
        return g + self.table(n - 1)

    def v_norms(self, n_max: int, p: float) -> np.ndarray:
        """||V_k g||_p under the stationary law for every k = 1 .. n_max.

        Vectorized over k per state: for m >= 1,
        (V_k g)(m) = g(m) + 1{k-1 >= m} (1 + e_{k-1-m}) - pi_0 min(m, k-1),
        and (V_k g)(0) = g(0) + e_{k-1}.
        """
        n_max = int(n_max)
        e = self.zero_start(max(n_max - 1, 0))
        spec = self.spec
        k = np.arange(1, n_max + 1)
        acc = np.zeros(n_max)
        g = spec.g_vector()
        for m in range(spec.n_states):
            if m == 0:
                v = g[0] + e[k - 1]
            else:
                hit = (k - 1) >= m
                tail = np.where(hit, e[np.maximum(k - 1 - m, 0)], 0.0)
                v = g[m] + np.where(hit, 1.0, 0.0) - spec.pi0 * np.minimum(m, k - 1) + tail
            acc += spec.pi[m] * np.abs(v) ** p
        return acc ** (1.0 / p)


def conditional_sum_oracle(spec: RenewalChainSpec, n: int) -> np.ndarray:
    """Table m -> E[S_n | Y_0 = m] over m = 0 .. u_depth - 1."""
    return ChainOracle(spec).table(n)


def chain_transition(spec: RenewalChainSpec, h: np.ndarray) -> np.ndarray:
    """One-step transition operator (P h)(m) = E[h(Y_1) | Y_0 = m]."""
    h = np.asarray(h, dtype=float)
    if h.shape != (spec.n_states,):
        raise ValueError(f"state function must have shape ({spec.n_states},)")
    out = np.empty_like(h)
    out[1:] = h[:-1]
    out[0] = float(np.dot(spec.tau_probs, h[spec.tau_values - 1]))
    return out


def chain_lp_norm(spec: RenewalChainSpec, h: np.ndarray, p: float) -> float:
    """L^p norm of a state function under the stationary law."""
    return float(np.dot(spec.pi, np.abs(np.asarray(h, dtype=float)) ** p) ** (1.0 / p))


def renewal_variance_constant(spec: RenewalChainSpec) -> float:
    """Long-run variance of the chain increments, Var(S_n)/n -> eta.

    By regeneration, eta = pi_0 * E[(1 - pi_0 tau)^2] (cycle sums are
    1 - pi_0 tau_k with mean zero).
    """
    second = spec.tau_moment(2.0)
    return spec.pi0 * (1.0 - 2.0 * spec.pi0 * spec.mean_tau + spec.pi0 ** 2 * second)


# ---------------------------------------------------------------------------
# Process models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessModel:
    """A sampler of stationary increments plus whatever oracles it supports.

    ``increment_fn`` is the window function emitting X_t for
    innovation-driven kinds; ``chain`` is set for the renewal kind.
    """

    kind: str
    label: str
    innovation: InnovationLaw | None = None
    increment_fn: TableFunction | LinearFunction | None = None
    chain: RenewalChainSpec | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.chain is None) == (self.increment_fn is None):
            raise ValueError("a model has exactly one of chain and increment_fn")

    @property
    def has_PT_adapted(self) -> bool:
        return self.chain is not None or _window_span(self.increment_fn)[1] <= 0

    def increment_lp_norm(self, p: float) -> float:
        """Exact L^p norm of the increment function."""
        if self.chain is not None:
            return chain_lp_norm(self.chain, self.chain.g_vector(), p)
        return self.increment_fn.lp_norm(p, self.innovation)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "label": self.label}
        if self.innovation is not None:
            d["innovation"] = self.innovation.name
        d.update({k: v for k, v in self.params.items()})
        if self.chain is not None:
            d["chain"] = self.chain.to_dict()
        return d


def _for_law(fn: LinearFunction, innovation: str) -> TableFunction | LinearFunction:
    """``fn``, tabulated over its sign patterns for rademacher innovations."""
    return fn.to_table() if innovation == "rademacher" else fn


def iid_model(innovation: str = "normal", scale: float = 1.0) -> ProcessModel:
    """iid increments scale * eps_t."""
    law = InnovationLaw(innovation)
    return ProcessModel(
        kind="iid",
        label=f"iid_{innovation}" + (f"_scale{scale:g}" if scale != 1.0 else ""),
        innovation=law,
        increment_fn=_for_law(LinearFunction((0,), (float(scale),)), innovation),
        params={"scale": float(scale)},
    )


def mds_model(innovation: str = "rademacher", modulation: float = 0.0) -> ProcessModel:
    """Martingale difference X_t = eps_t * (1 + b * tanh(eps_{t-1})).

    b = 0 reduces to iid; b != 0 requires rademacher innovations (the
    modulated increment is tabulated exactly over sign patterns).  Either
    way E[X_t | past] = 0, so the adapted semigroup annihilates the
    increment function.
    """
    law = InnovationLaw(innovation)
    b = float(modulation)
    if not 0.0 <= abs(b) < 1.0:
        raise ValueError(f"modulation: must satisfy |b| < 1, got {b}")
    if b == 0.0:
        fn = _for_law(LinearFunction((0,), (1.0,)), innovation)
    else:
        if innovation != "rademacher":
            raise ConfigError(
                "modulation: a nonzero modulation requires rademacher innovations, "
                f"got {innovation!r}"
            )
        eps_prev = np.array([-1.0, 1.0]).reshape(2, 1)
        eps_now = np.array([-1.0, 1.0]).reshape(1, 2)
        fn = TableFunction(-1, eps_now * (1.0 + b * np.tanh(eps_prev)))
    return ProcessModel(
        kind="martingale_difference",
        label=f"mds_{innovation}" + (f"_b{b:g}" if b else ""),
        innovation=law,
        increment_fn=fn,
        params={"modulation": b},
    )


def _finite_coeffs(values, key: str) -> tuple[float, ...]:
    """``values`` as a nonempty tuple of finite floats; the error names ``key``."""
    try:
        coeffs = () if isinstance(values, str) else tuple(float(c) for c in values)
    except (TypeError, ValueError):
        coeffs = ()
    if not coeffs or not all(math.isfinite(c) for c in coeffs):
        raise ValueError(f"{key}: must be a nonempty list of finite numbers, got {values!r}")
    return coeffs


def coboundary_model(
    g_coeffs: Iterable[float],
    innovation: str = "rademacher",
    mds_part: float | None = 1.0,
    direction: str = "forward",
) -> ProcessModel:
    """Martingale-plus-coboundary increments X_t = m_t + (g o T)_t - g_t with
    g = sum_i c_i eps_{t-i} and m_t = mds_part * eps_t (``mds_part=None``
    gives the pure coboundary, whose partial sums telescope).

    The forward difference anticipates one innovation, so it exposes no
    adapted oracle; ``direction="backward"`` uses g o T^-1 - g instead,
    which also telescopes but stays past-measurable.
    """
    law = InnovationLaw(innovation)
    coeffs = _finite_coeffs(g_coeffs, "g_coeffs")
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction: must be 'forward' or 'backward', got {direction!r}")
    g = LinearFunction(tuple(-i for i in range(len(coeffs))), coeffs)
    shift = 1 if direction == "forward" else -1
    fn = g.shift(shift) - g
    if mds_part is not None:
        fn = fn + LinearFunction((0,), (float(mds_part),))
    return ProcessModel(
        kind="martingale_plus_coboundary",
        label=f"mcb_{innovation}_{direction}",
        innovation=law,
        increment_fn=_for_law(fn, innovation),
        params={"g_coeffs": list(coeffs), "mds_part": mds_part, "direction": direction},
    )


def linear_process_model(coeffs: Iterable[float], innovation: str = "normal") -> ProcessModel:
    """Causal linear process X_t = sum_{i < L} a_i eps_{t-i} with an explicit
    truncation length L."""
    law = InnovationLaw(innovation)
    a = _finite_coeffs(coeffs, "coeffs")
    fn = LinearFunction(tuple(-i for i in range(len(a))), a)
    return ProcessModel(
        kind="linear_process",
        label=f"linear_{innovation}_L{len(a)}",
        innovation=law,
        increment_fn=_for_law(fn, innovation),
        params={"coeffs": list(a)},
    )


def renewal_model(p: float, depth: int = 4) -> ProcessModel:
    """The heavy-excursion renewal chain at the given tail exponent and depth."""
    spec = build_renewal_chain(p, depth)
    return ProcessModel(
        kind="renewal_chain",
        label=f"renewal_p{p:g}_d{depth}",
        chain=spec,
        params={"p": float(p), "depth": int(depth)},
    )


def gaussian_contrast_model(spec: RenewalChainSpec) -> ProcessModel:
    """iid Gaussian increments whose variance matches the chain's long-run
    variance constant eta; its scaled partial sums have the same Gaussian
    limit as the chain's, which makes it the tight null for contrast runs."""
    sigma = math.sqrt(renewal_variance_constant(spec))
    model = iid_model("normal", scale=sigma)
    return ProcessModel(
        kind="iid",
        label=f"gaussian_contrast_p{spec.p:g}_d{spec.depth}",
        innovation=model.innovation,
        increment_fn=model.increment_fn,
        params={"scale": sigma, "contrast_for": f"renewal_p{spec.p:g}_d{spec.depth}"},
    )


#: Innovations drawn per chunk of rows by the window sampler: a chunk's
#: draws and its evaluation are the only arrays beside the output.  At
#: 2^16, ``certify --suite all`` peaked 1 MB higher than per-row sampling
#: (its 512 KiB chunk arrays grow the heap); 2^14 is as fast and peaks no higher.
_CHUNK = 1 << 14


class _WindowSampler:
    """Paths of length n of a window function of iid innovations: each row
    draws ``law.draw(rng, n + hi - lo)`` from its own generator, and a chunk
    of rows is evaluated at once."""

    def __init__(self, fn: TableFunction | LinearFunction, law: InnovationLaw, n: int):
        if law.name == "rademacher" and isinstance(fn, LinearFunction):
            fn = fn.to_table()  # it reads sign bits; the same sums, in the same order
        lo, hi = _window_span(fn)
        self.fn, self.law, self.n, self.size = fn, law, n, n + (hi - lo)

    def fill(self, rngs, out: np.ndarray) -> None:
        rows = max(1, _CHUNK // self.size)
        for start in range(0, len(out), rows):
            block = out[start : start + rows]
            draws = np.array([self.law.draw(rng, self.size) for _, rng in zip(block, rngs)])
            block[...] = self.fn.eval_windows(draws, self.n)


def _sampler(model: ProcessModel, n: int) -> _RenewalSampler | _WindowSampler:
    """The model's constants for paths of length n, set up once.  Its
    ``fill(rngs, out)`` draws row i of ``out`` from the i-th generator of
    ``rngs``, each before the next generator is taken, and takes no more
    than ``len(out)``: successive fills may share one iterator."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if model.chain is not None:
        return _RenewalSampler(model.chain, n)
    return _WindowSampler(model.increment_fn, model.innovation, n)


def sample_model(model: ProcessModel, n: int, seed) -> np.ndarray:
    """Draw one stationary increment path of length n (reproducible per seed)."""
    sampler = _sampler(model, n)
    out = np.empty((1, sampler.n))
    sampler.fill([as_generator(seed)], out)
    return out[0]


def sample_batch(model: ProcessModel, n: int, replicates: int, seed: int) -> np.ndarray:
    """(replicates, n) increment matrix whose row r is, bit for bit,
    ``sample_model(model, n, substream(seed, r))``.

    The rows come from one re-keyed generator (``substreams``), the model's
    constants are set up once, and the window kinds draw and evaluate a
    chunk of rows at a time.  The sampled suites and the dyadic lemma fill
    bounded chunks of rows from the same sampler and streams, so their rows
    are this matrix's; the tests use it as their reference.
    """
    sampler = _sampler(model, n)
    out = np.empty((replicates, sampler.n))
    sampler.fill(substreams(seed, replicates), out)
    return out


def apply_PT(model: ProcessModel, variant: str, h):
    """Apply the conditional-expectation semigroup once.

    adapted:     P h = E[h o T | past]        (h must be past-measurable)
    nonadapted:  P h = h o T^-1 - E[h o T^-1 | past]

    The nonadapted operator is defined for every window function; its
    natural domain is {E[h | past] = 0}, and it annihilates past-measurable
    functions outright.  For the chain, h is a state vector and only the
    adapted variant exists.
    """
    one_of(_VARIANTS)({"variant": variant}, "variant")
    if model.chain is not None:
        if variant != "adapted":
            raise ConfigError("variant: the renewal chain exposes only the adapted oracle")
        return chain_transition(model.chain, np.asarray(h, dtype=float))
    if variant == "adapted":
        if _window_span(h)[1] > 0:
            raise ConfigError(
                "variant: adapted oracle requires a function of present and past innovations"
            )
        fn = h.shift(1).condexp_past()
    else:
        shifted = h.shift(-1)
        fn = shifted - shifted.condexp_past()
    return ZERO_FUNCTION if fn.is_zero else fn


def semigroup_partial_sums(model: ProcessModel, variant: str, h):
    """Yield V_1 h, V_2 h, ... with V_n h = sum_{i<n} P^i h.

    Finite-memory window functions are annihilated after finitely many
    applications: on them the generator ends at the last distinct V_n, once
    P^n h = 0.  On the renewal chain (h a state vector) it never ends.
    """
    total = term = h
    while True:
        yield total
        term = apply_PT(model, variant, term)
        if model.chain is None and term.is_zero:
            return
        total = total + term


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


#: The keys each model kind reads, as a config spec ``{key: (default,
#: check)}``, with the builder they are passed to.  ``as_given`` leaves a
#: key to its builder's own check (innovation laws, coefficient lists, the
#: coboundary direction and the modulation's range).
MODEL_KINDS = {
    "iid": (iid_model, {"innovation": ("normal", as_given), "scale": (1.0, expect_number)}),
    "martingale_difference": (
        mds_model,
        {"innovation": ("rademacher", as_given), "modulation": (0.0, expect_number)},
    ),
    "martingale_plus_coboundary": (
        coboundary_model,
        {
            "g_coeffs": ((1.0,), as_given),
            "innovation": ("rademacher", as_given),
            "mds_part": (1.0, number_or_null),
            "direction": ("forward", as_given),
        },
    ),
    "linear_process": (
        linear_process_model,
        {"coeffs": ((1.0,), as_given), "innovation": ("normal", as_given)},
    ),
    "renewal_chain": (renewal_model, {"p": (3.0, expect_p), "depth": (4, at_least(2))}),
}

#: Keys ``ProcessModel.to_dict`` derives from the others; reading a written
#: model back skips them.
_DERIVED_KEYS = ("label", "chain")


def model_from_dict(doc: dict) -> ProcessModel:
    """The model of kind ``doc["kind"]`` built from the keys ``MODEL_KINDS``
    lists for that kind.  Each key passes its check, and any other key
    (``_DERIVED_KEYS`` aside) raises ``ConfigError`` naming it."""
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ConfigError(f"kind: must be one of {tuple(MODEL_KINDS)}, got {kind!r}")
    build, spec = MODEL_KINDS[kind]
    keys = {k: v for k, v in doc.items() if k != "kind" and k not in _DERIVED_KEYS}
    return build(**read(spec, keys, what=f"model kind {kind!r}"))
