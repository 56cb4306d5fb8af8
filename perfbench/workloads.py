"""The benchmark's workloads: the hwip command lines each one runs.

A workload is a list of ``hwip`` argument vectors that one repetition
passes to ``hwip.cli.main`` in order.  Every hwip seed a run uses is one of
the workload's recorded reference seeds (``hwip_seed``), so every repetition
has a reference to check its outputs against, and the same benchmark seed
always gives the same inputs.

``work`` is the work done by one repetition, computed from its arguments, in
the workload's ``work_unit``; ``work_per_s`` divides it by the measured wall
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Headline run: n = floor(131 ** 2.5) = 196416 and K = 2 give paths of
# 392832 steps; --contrast runs the renewal and the Gaussian path law.
_HEADLINE_REPLICATES = 8  # one chunk of the experiment's batch of 8
_HEADLINE_LENGTH = 392832

# Default `certify --suite all` configuration, path steps sampled per suite:
# dyadic-lemma 3 models x 200 paths x 256, martingale 400 x 1024,
# mw 400 x 1024, fdd 1000 x 2048, tightness 200 x (1024 + 2048).
_CERTIFY_STEPS = 3 * 200 * 256 + 400 * 1024 + 400 * 1024 + 1000 * 2048 + 200 * (1024 + 2048)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable[[int], list[list[str]]]  # hwip seed -> argument vectors
    seeds: tuple[int, ...]  # reference seeds; the first is the README's
    work: int
    work_unit: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="headline",
            calls=lambda seed: [
                ["counterexample", "--p", "3", "--depth", "4", "--K", "2", "--delta", "1e-3",
                 "--j", "4", "--replicates", str(_HEADLINE_REPLICATES), "--seed", str(seed),
                 "--contrast"],
            ],
            seeds=(5, 1, 2, 3, 4, 6, 7, 8, 9, 10),
            work=2 * _HEADLINE_REPLICATES * _HEADLINE_LENGTH,
            work_unit="path steps sampled and swept",
        ),
        Workload(
            name="certify-all",
            calls=lambda seed: [["certify", "--suite", "all", "--seed", str(seed)]],
            seeds=(7, 1, 2, 3, 4, 5, 6, 8, 9, 10),
            work=_CERTIFY_STEPS,
            work_unit="path steps sampled",
        ),
    )
}


def hwip_seed(workload: Workload, bench_seed: int) -> int:
    """The recorded reference seed that benchmark seed ``bench_seed`` selects."""
    return workload.seeds[bench_seed % len(workload.seeds)]
