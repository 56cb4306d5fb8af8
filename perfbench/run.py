"""hwip benchmark: time, memory and output correctness of two CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record [--workload NAME]

A run starts ``CHILDREN`` fresh processes (``child.py``) one after another;
each imports hwip from ``src/`` of this checkout, with BLAS threads pinned
to 1, and repeats the workload's ``hwip.cli.main`` calls until its share of
``--seconds`` is used up (at least once).  Every repetition's outputs are
checked against the reference recorded in ``reference/<workload>.json``.
``--seed N`` makes repetition i of an untraced run use reference seed
(N + i) % 10 of the workload, and every repetition of a traced run use seed
N % 10.

With ``--trace 0`` the last line reports the end-to-end metrics: medians
over the repetitions, and for ``setup_s`` and ``peak_rss_mb`` over the
processes.  With ``--trace 1`` processes alternate traced and untraced, and
the last line reports the per-layer metrics of ``spans.py``: medians of the
traced repetitions' self times, counters (which must repeat exactly between
traced repetitions) and the tracing overhead.

``--record`` rewrites the reference files from the code in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import bytes_identical, compare
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_DIR = BENCH / "reference"
WORK_DIR = BENCH / "_work"

CHILDREN = 4  # processes per run: each gives one set-up time and one peak RSS
CHILD_GRACE_S = 60  # past its deadline a process may still be in its last repetition
STOP_AFTER_S = 120  # start no process after this ...
HARD_END_S = 170  # ... and stop any at this, so a run ends within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "units/s",
    "peak_rss_mb": "MB",
}

# Span buckets whose self times partition the time spent in hwip.cli.main.
BUCKETS = (
    "holder.sweep", "holder.scan", "holder.other",
    "models.sample", "models.oracle", "models.other",
    "norms.weak_lp", "norms.mw_norm", "norms.series", "norms.other",
    "experiments.self",
    "cli.io", "cli.self",
)
COUNTERS = (
    "holder.sweep_calls", "holder.sweep_pairs",
    "holder.scan_calls", "holder.scan_pairs",
    "models.sample_calls", "models.sample_steps",
    "models.oracle_entries",
    "norms.weak_lp_samples",
    "cli.bytes_written",
)
PER_LAYER = {
    **{f"{b}_s": "s" for b in BUCKETS},
    **{c: "bytes" if c == "cli.bytes_written" else "count" for c in COUNTERS},
    "holder.sweep_ns_per_pair": "ns",
    "trace.overhead_s": "s",
}

# Slack between the sum of the layer self times and the traced wall time:
# the calls and the clock reads outside the root spans.
SUM_TOLERANCE_S = 1e-3


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HWIP_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    # Every process sets up alike: hwip is compiled on import instead of the
    # first process writing bytecode into src/ for the later ones.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload: Workload, first: int, step: int, deadline: float, trace: bool,
              out: Path, timeout: float) -> dict:
    """One fresh process of repetitions; returns the child's result plus ``setup_s``."""
    result_path = out.with_suffix(".json")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), workload.name, str(first), str(step),
           repr(deadline), str(out), str(result_path), "1" if trace else "0"]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL, check=True,
                   timeout=timeout)
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - spawned
    return result


def load_reference(workload: Workload) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())


def record(workloads: list[Workload]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for w in workloads:
        seeds = {}
        for i, seed in enumerate(w.seeds):
            # a deadline in the past: exactly one repetition, with seed ``seed``
            result = run_child(w, i, 0, 0.0, False, WORK_DIR / f"{w.name}-record",
                               CHILD_GRACE_S * 3)
            (rep,) = result["reps"]
            seeds[str(seed)] = rep["digest"]
            print(f"{w.name} seed {seed}: exit codes {rep['exit_codes']}", file=sys.stderr)
        doc = {"workload": w.name, "seeds": seeds}
        (REFERENCE_DIR / f"{w.name}.json").write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    shutil.rmtree(WORK_DIR, ignore_errors=True)


def end_to_end_metrics(workload: Workload, children: list[dict], reps: list[dict]) -> dict:
    wall = statistics.median(r["wall_s"] for r in reps)
    return {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "wall_s": wall,
        "work_per_s": workload.work / wall,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced repetitions, and the checks that failed."""
    problems = []
    counts = []
    for p in traced:
        counts.append({c: p["counts"].get(c, 0) for c in COUNTERS})
        counts[-1]["cli.bytes_written"] = p["bytes_written"]
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"counters differ between traced repetitions: {counts}")
    metrics = {f"{b}_s": statistics.median(p["buckets"].get(b, 0.0) for p in traced) for b in BUCKETS}
    metrics.update(counts[0])
    pairs = counts[0]["holder.sweep_pairs"]
    metrics["holder.sweep_ns_per_pair"] = 1e9 * metrics["holder.sweep_s"] / pairs if pairs else 0.0
    wall_untraced = statistics.median(p["wall_s"] for p in untraced)
    overhead = statistics.median(p["wall_s"] for p in traced) - wall_untraced
    metrics["trace.overhead_s"] = overhead
    unknown = {b for p in traced for b in p["buckets"]} - set(BUCKETS)
    if unknown:
        problems.append(f"spans in buckets the benchmark does not report: {sorted(unknown)}")
    self_sum = statistics.median(sum(p["buckets"].values()) for p in traced)
    if abs(self_sum - wall_untraced) > abs(overhead) + SUM_TOLERANCE_S:
        problems.append(f"layer self times sum to {self_sum:.6f} s, untraced wall_s is "
                        f"{wall_untraced:.6f} s, tracing overhead {overhead:.6f} s")
    return metrics, problems


def measure(workload: Workload, bench_seed: int, seconds: float, trace: bool) -> int:
    references = load_reference(workload)["seeds"]
    children, reps = [], []
    attempted = failed = 0
    identical = True
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    for i in range(CHILDREN):
        now = time.clock_gettime(time.CLOCK_MONOTONIC)
        if now - start > STOP_AFTER_S:
            break
        traced = trace and i % 2 == 0
        deadline = start + seconds * (i + 1) / CHILDREN
        timeout = min(deadline - now + CHILD_GRACE_S, start + HARD_END_S - now)
        # Untraced runs move through the reference seeds repetition by
        # repetition, so a median covers several inputs; traced runs repeat
        # one input so that their counters can be compared exactly.
        first, step = (bench_seed, 0) if trace else (bench_seed + len(reps), 1)
        out = WORK_DIR / f"{workload.name}-{i}"
        try:
            child = run_child(workload, first, step, deadline, traced, out, timeout)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            # the process crashed, timed out or left no readable result
            print(f"process {i} failed: {exc!r}", file=sys.stderr)
            attempted += 1
            failed += 1
            continue
        children.append(child)
        for rep in child["reps"]:
            attempted += 1
            ref = references[str(rep["seed"])]
            errors = compare(ref, rep["digest"])
            for line in errors[:10]:
                print(f"repetition {attempted}: {line}", file=sys.stderr)
            failed += bool(errors)
            identical = identical and bytes_identical(ref, rep["digest"])
            rep["traced"] = traced
            reps.append(rep)
            print(f"repetition {attempted}: process {i}, hwip seed {rep['seed']}, "
                  f"traced {int(traced)}, wall_s {rep['wall_s']:.4f}", file=sys.stderr)
        print(f"process {i}: setup_s {child['setup_s']:.4f}, "
              f"peak_rss_mb {child['peak_rss_mb']:.1f}", file=sys.stderr)
    shutil.rmtree(WORK_DIR, ignore_errors=True)

    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if not untraced or (trace and len(traced_reps) < 2):
        print("too few repetitions completed to report metrics", file=sys.stderr)
        return 1
    problems = []
    if trace:
        values, problems = per_layer_metrics(traced_reps, untraced)
        units = PER_LAYER
    else:
        values, units = end_to_end_metrics(workload, children, untraced), END_TO_END
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)

    print(f"workload {workload.name}: {len(children)} processes, {len(untraced)} untraced and "
          f"{len(traced_reps)} traced repetitions; work unit: {workload.work_unit}, "
          f"{workload.work} per repetition")
    for name, value in values.items():
        print(f"{name}: {value!r} {units[name]}")
    print(f"error_rate: {failed / attempted!r} ({failed} of {attempted} repetitions differ "
          f"from the reference)")
    print(f"report bytes identical to the reference: {'yes' if identical else 'no'}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the reference files")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an interrupt: subprocess.run then kills the
    # running child process and waits for it before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "hwip" / "__init__.py").is_file():
        print(f"error: no hwip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        record([WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    return measure(workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
