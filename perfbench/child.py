"""Repetitions of a workload in one fresh process.

Usage: child.py WORKLOAD FIRST STEP DEADLINE OUT_DIR RESULT_JSON TRACE

Imports hwip, builds the argument vectors, then runs repetitions: each one
passes every argument vector to ``hwip.cli.main``, writing into a cleared
OUT_DIR.  Repetition k uses the hwip seed that benchmark seed FIRST + STEP * k
selects.  After each repetition the child digests its outputs, untimed, and
starts another repetition while DEADLINE (CLOCK_MONOTONIC) is more than half
a repetition away; there is always at least one.  RESULT_JSON receives:

* ``ready``: CLOCK_MONOTONIC once hwip is imported and the inputs are
  built; the parent subtracts its own reading taken before it started this
  process, which gives the set-up time;
* ``peak_rss_mb``: peak resident memory after the last repetition, read
  before its outputs are digested;
* ``reps``: per repetition the hwip seed, ``wall_s`` (first ``main()``
  call until the last returns), the exit codes, the output digest, and
  with TRACE = 1 the self time of each span bucket and the counters (see
  ``spans.py``).
"""

import json
import resource
import shutil
import sys
import time
from pathlib import Path


def run(workload_name: str, first: int, step: int, deadline: float, out: Path,
        trace: bool) -> dict:
    import hwip.cli

    from reference import digest_outputs
    from workloads import WORKLOADS, hwip_seed

    workload = WORKLOADS[workload_name]
    seeds = [hwip_seed(workload, first + step * k) for k in range(len(workload.seeds))]
    argvs = {s: [argv + ["--out", str(out)] for argv in workload.calls(s)] for s in set(seeds)}
    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    reps = []
    while True:
        seed = seeds[len(reps) % len(seeds)]
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if recorder is not None:
            recorder.reset()

        start = time.perf_counter()
        exit_codes = [hwip.cli.main(argv) for argv in argvs[seed]]
        wall = time.perf_counter() - start

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rep = {"seed": seed, "wall_s": wall, "exit_codes": exit_codes}
        if recorder is not None:
            rep["buckets"] = spans.bucket_self_times(recorder.spans)
            rep["counts"] = dict(recorder.counts)
            rep["bytes_written"] = sum(f.stat().st_size for f in out.iterdir())
        rep["digest"] = digest_outputs(out, exit_codes)
        reps.append(rep)
        if time.clock_gettime(time.CLOCK_MONOTONIC) + wall / 2 >= deadline:
            break
    shutil.rmtree(out, ignore_errors=True)
    return {"ready": ready, "peak_rss_mb": peak_rss_mb, "reps": reps}


def main(argv: list[str]) -> int:
    workload_name, first, step, deadline, out, result_path, trace = argv
    result = run(workload_name, int(first), int(step), float(deadline), Path(out), trace == "1")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
