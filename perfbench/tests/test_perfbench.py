"""Self-tests of the benchmark's own code.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import subprocess
import sys
import textwrap

import pytest

import run
from reference import bytes_identical, compare, digest_outputs
from spans import Recorder, Span, bucket_self_times, self_times


def test_self_time_subtracts_child_coverage_on_nested_spans():
    spans = [
        Span("root", "cli.self", 0.0, 10.0),
        Span("a", "experiments.self", 1.0, 4.0, parent=0),
        Span("a1", "holder.sweep", 2.0, 3.0, parent=1),
        Span("b", "holder.sweep", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = bucket_self_times(spans)
    assert totals == {"cli.self": 3.0, "experiments.self": 2.0, "holder.sweep": 5.0}
    assert sum(totals.values()) == spans[0].end - spans[0].start


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", "cli.self", 0.0, 10.0),
        Span("a", "models.sample", 1.0, 4.0, parent=0),
        Span("b", "models.sample", 3.0, 6.0, parent=0),
        Span("c", "models.sample", 8.0, 12.0, parent=0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == 10.0 - 5.0 - 2.0


def test_recorder_nests_spans_and_counts_outermost_calls_only():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))

    def inner(n):
        return n

    inner_w = rec.wrap(inner, "inner", "holder.scan", "holder.scan_pairs", lambda a: a["n"])

    def outer(n):
        return inner_w(n) + inner_w(n)

    outer_w = rec.wrap(outer, "outer", "holder.scan", "holder.scan_pairs", lambda a: a["n"])
    root = rec.wrap(lambda: outer_w(5) + inner_w(7), "root", "cli.self")

    assert root() == 17
    assert [s.name for s in rec.spans] == ["root", "outer", "inner", "inner", "inner"]
    assert [s.parent for s in rec.spans] == [None, 0, 1, 1, 0]
    assert rec.counts["holder.scan_calls"] == 2
    assert rec.counts["holder.scan_pairs"] == 12
    assert sum(bucket_self_times(rec.spans).values()) == rec.spans[0].end - rec.spans[0].start


def test_recorder_reset_starts_the_next_repetition_from_zero():
    rec = Recorder(clock=lambda: 0.0)
    scan = rec.wrap(lambda n: n, "scan", "holder.scan", "holder.scan_pairs", lambda a: a["n"])
    scan(4)
    rec.reset()
    scan(3)
    assert [s.name for s in rec.spans] == ["scan"] and rec.spans[0].parent is None
    assert rec.counts == {"holder.scan_calls": 1, "holder.scan_pairs": 3}


@pytest.fixture
def outputs(tmp_path):
    report = {
        "experiment": "demo",
        "passed": True,
        "verdict": "bounded ratios",
        "stats": {"slope": 0.0123456789, "count": 3, "ci": [0.25, 0.75]},
    }
    (tmp_path / "report_demo.json").write_text(json.dumps(report, sort_keys=True))
    rows = "\n".join(f"{r},{r / 4!r},{r % 2 == 0}" for r in range(600))
    (tmp_path / "replicates_demo.csv").write_text("replicate,value,even\n" + rows + "\n")
    return tmp_path, report


def test_reference_check_accepts_identical_outputs(outputs):
    out, _ = outputs
    ref = digest_outputs(out, [0])
    assert compare(ref, digest_outputs(out, [0])) == []
    assert bytes_identical(ref, digest_outputs(out, [0]))


def test_reference_check_reports_a_perturbed_float(outputs):
    out, report = outputs
    ref = digest_outputs(out, [0])
    report["stats"]["slope"] *= 1.0 + 1e-6
    (out / "report_demo.json").write_text(json.dumps(report, sort_keys=True))
    errors = compare(ref, digest_outputs(out, [0]))
    assert len(errors) == 1 and "stats.slope" in errors[0]


def test_reference_check_reports_a_flipped_verdict(outputs):
    out, report = outputs
    ref = digest_outputs(out, [0])
    report["passed"], report["verdict"] = False, "ratio drift detected"
    (out / "report_demo.json").write_text(json.dumps(report, sort_keys=True))
    errors = compare(ref, digest_outputs(out, [1]))
    assert any("exit codes" in e for e in errors)
    assert any("passed" in e for e in errors) and any("verdict" in e for e in errors)


def test_reference_check_reports_a_perturbed_csv_float(outputs):
    out, _ = outputs
    ref = digest_outputs(out, [0])
    path = out / "replicates_demo.csv"
    path.write_text(path.read_text().replace("\n300,75.0,", "\n300,75.001,"))
    assert compare(ref, digest_outputs(out, [0])) == [
        "replicates_demo.csv: float column value differs beyond tolerance"
    ]


def test_last_bit_change_is_not_a_failure_but_shows_in_bytes(outputs):
    out, report = outputs
    ref = digest_outputs(out, [0])
    report["stats"]["slope"] *= 1.0 + 4e-16
    (out / "report_demo.json").write_text(json.dumps(report, sort_keys=True))
    got = digest_outputs(out, [0])
    assert compare(ref, got) == []
    assert not bytes_identical(ref, got)


def test_wall_time_is_a_median_over_repetitions_setup_over_processes():
    children = [
        {"setup_s": 1.0, "peak_rss_mb": 100.0, "reps": [{"wall_s": 4.0}, {"wall_s": 3.0}]},
        {"setup_s": 3.0, "peak_rss_mb": 120.0, "reps": [{"wall_s": 8.0}]},
    ]
    reps = [r for c in children for r in c["reps"]]
    workload = run.WORKLOADS["headline"]
    metrics = run.end_to_end_metrics(workload, children, reps)
    assert metrics == {"setup_s": 2.0, "wall_s": 4.0, "work_per_s": workload.work / 4.0,
                       "peak_rss_mb": 110.0}


def test_metric_tables_match_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)


def test_spans_cover_a_small_cli_run(tmp_path):
    """Installed wrappers see every layer call of a real run, in a fresh process."""
    script = textwrap.dedent(
        f"""
        import json, sys, time
        sys.path[:0] = [{str(run.BENCH)!r}, {str(run.ROOT / 'src')!r}]
        import hwip.cli, spans
        rec = spans.Recorder()
        spans.install(rec)
        start = time.perf_counter()
        hwip.cli.main(["simulate", "--n", "64", "--replicates", "3", "--seed", "1",
                       "--out", {str(tmp_path)!r}])
        wall = time.perf_counter() - start
        print(json.dumps({{"counts": rec.counts, "wall": wall,
                          "buckets": spans.bucket_self_times(rec.spans)}}))
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, timeout=120)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = doc["counts"]
    assert counts["holder.scan_calls"] == 6  # holder_norm_of_path scans again
    assert counts["holder.scan_pairs"] == 6 * (64 * 65 // 2)
    assert counts["models.sample_calls"] == 3 and counts["models.sample_steps"] == 3 * 64
    assert counts["cli.io_calls"] == 1
    assert set(doc["buckets"]) <= set(run.BUCKETS)
    assert abs(sum(doc["buckets"].values()) - doc["wall"]) < run.SUM_TOLERANCE_S
