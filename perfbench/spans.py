"""Spans around the calls into each hwip layer, and the self-time arithmetic.

The traced run replaces each public function of the layer modules
(``hwip.holder``, ``hwip.models``, ``hwip.norms``, ``hwip.experiments``,
``hwip.cli``) with a wrapper that records a span: name, start, end and the
index of the enclosing span.  Nothing in ``src/`` changes; the wrappers are
bound in place of the originals in every ``hwip`` module namespace.

Each wrapped function belongs to a *bucket* (``holder.sweep``,
``models.oracle``, ...).  A bucket's time is the self time of its spans:
duration minus the part of the interval that child spans cover.  Because
``hwip.cli.main`` is the root of every call, the bucket times of one run add
up to the time spent in ``main``.

Counters are computed from the call arguments (pairs swept, steps sampled,
oracle entries, weak-Lp samples) and counted only for the outermost span of
a bucket, so a scan that calls another scan counts once.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    bucket: str
    start: float
    end: float = float("nan")
    parent: int | None = None  # index of the enclosing span in Recorder.spans


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def bucket_self_times(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.bucket] = totals.get(s.bucket, 0.0) + t
    return totals


class Recorder:
    """Keeps spans and counters in memory for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    def reset(self) -> None:
        """Forget the spans and counters recorded so far (between repetitions)."""
        self.spans.clear()
        self.counts.clear()

    def wrap(self, fn, name: str, bucket: str, counter: str | None = None, amount=None):
        """Wrap ``fn`` so that each call records a span in ``bucket``.

        For the outermost span of the bucket, ``<bucket>_calls`` is counted,
        and ``counter`` by ``amount(arguments)`` with the call's arguments
        bound to ``fn``'s parameter names.
        """
        sig = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth[bucket] == 0:
                self.counts[bucket + "_calls"] += 1
                if counter is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counts[counter] += int(amount(bound.arguments))
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, bucket, self.clock(), parent=parent)
            self.spans.append(span)
            self._stack.append(index)
            self._depth[bucket] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._depth[bucket] -= 1
                self._stack.pop()

        return wrapper


def _pairs(n: int, max_lag: int) -> int:
    """Pairs (i, j) with 1 <= j - i <= w, w = min(max_lag, n): sum_{d<=w} (n + 1 - d)."""
    w = min(int(max_lag), n)
    return w * (n + 1) - w * (w + 1) // 2


def _sweep_pairs(a) -> int:
    rows, cols = a["partial_sums"].shape
    return rows * _pairs(cols - 1, a["max_lag"])


def _scan_pairs(a) -> int:
    n = a["path"].n
    return _pairs(n, a.get("max_lag", n))


# (module, qualified name) -> (bucket, counter, amount from the bound arguments).
# Every other public function of a layer module lands in "<layer>.other", or
# "<layer>.self" for experiments and cli.
_SAMPLE = ("models.sample", "models.sample_steps")
_ORACLE = ("models.oracle", "models.oracle_entries")
NAMED = {
    ("hwip.holder", "windowed_max_batch"): ("holder.sweep", "holder.sweep_pairs", _sweep_pairs),
    ("hwip.holder", "holder_max_windowed"): ("holder.scan", "holder.scan_pairs", _scan_pairs),
    ("hwip.holder", "holder_max_exact"): ("holder.scan", "holder.scan_pairs", _scan_pairs),
    ("hwip.models", "sample_model"): (*_SAMPLE, lambda a: a["n"]),
    ("hwip.models", "sample_renewal_path"): (*_SAMPLE, lambda a: a["length"]),
    ("hwip.models", "ChainOracle.zero_start"): (*_ORACLE, lambda a: a["n"] + 1),
    ("hwip.models", "ChainOracle.table"): (*_ORACLE, lambda a: a["self"].spec.n_states),
    ("hwip.models", "ChainOracle.v_sum"): (*_ORACLE, lambda a: a["self"].spec.n_states),
    ("hwip.models", "ChainOracle.v_norms"): (*_ORACLE, lambda a: a["n_max"]),
    ("hwip.models", "conditional_sum_oracle"): (*_ORACLE, lambda a: a["spec"].n_states),
    ("hwip.norms", "empirical_weak_lp"): (
        "norms.weak_lp", "norms.weak_lp_samples", lambda a: np.size(a["samples"])),
    ("hwip.norms", "mw_norm"): ("norms.mw_norm", None, None),
    ("hwip.norms", "mw_series_diagnostic"): ("norms.series", None, None),
    ("hwip.norms", "conditional_sum_norms"): ("norms.series", None, None),
    ("hwip.models", "model_from_dict"): ("models.other", None, None),
    ("hwip.cli", "main"): ("cli.self", None, None),
    ("hwip.cli", "_write_outputs"): ("cli.io", None, None),
}

LAYERS = ("hwip.holder", "hwip.models", "hwip.norms", "hwip.experiments", "hwip.cli")


def _targets():
    """(module name, qualified name, owner, attribute, function) to wrap."""
    for layer in LAYERS:
        mod = sys.modules[layer]
        names = [n for n in getattr(mod, "__all__", ()) if inspect.isfunction(getattr(mod, n))]
        names += [q for (m, q) in NAMED if m == layer and q not in names]
        for qual in names:
            owner, attr = mod, qual
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(mod, cls_name)
            fn = getattr(owner, attr)
            if getattr(fn, "__module__", None) != layer:
                continue  # re-exported from another layer; wrapped there
            yield layer, qual, owner, attr, fn


def _default_bucket(layer: str) -> str:
    short = layer.split(".")[1]
    return f"{short}.self" if short in ("experiments", "cli") else f"{short}.other"


def install(recorder: Recorder) -> None:
    """Bind wrappers in place of the layer functions in every hwip module."""
    modules = [m for k, m in sys.modules.items() if k == "hwip" or k.startswith("hwip.")]
    for layer, qual, owner, attr, fn in list(_targets()):
        bucket, counter, amount = NAMED.get((layer, qual), (_default_bucket(layer), None, None))
        wrapped = recorder.wrap(fn, f"{layer}.{qual}", bucket, counter, amount)
        if owner is sys.modules[layer]:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        else:
            setattr(owner, attr, wrapped)
