"""Experiment-runner performance: cold vs warm dataset vs batched parallel.

Regenerates Figure 7 several ways -- cold (executing and filling a
fresh result dataset), warm (re-pricing stored counter deltas without
running any guest code), serial (no dataset; the parallel baseline),
parallel (``jobs=4`` over the batched warm worker pool) and repeat (a
second grid on the same runner, which reuses the records its first
grid executed, as the sections of ``repro report`` do) -- checks
every variant produces an identical table,
measures chunk-dispatch overhead and shipped payload bytes, and emits
``BENCH_runner.json`` at the repo root.

Gates: the warm-dataset run must be at least 5x faster than cold, and on
hosts with >= 2 cores ``parallel_speedup`` must be >= 1.0 (on a
single-core host fan-out cannot beat serial, so that gate is skipped
with a notice instead of failing).

Also runnable standalone: ``PYTHONPATH=src python benchmarks/bench_runner.py``.
"""

import json
import os
import pathlib
import tempfile
import time

from repro.analysis import figures
from repro.core import ExperimentRunner
from repro.exp import Dataset
from repro.obs.metrics import METRICS

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCALE = 0.5
JOBS = 4


def _timed_figure7(runner, scale):
    start = time.perf_counter()
    table = figures.figure7(scale=scale, runner=runner)
    return table, time.perf_counter() - start


def run_cold_warm_parallel(scale=SCALE, jobs=JOBS):
    with tempfile.TemporaryDirectory() as dataset_dir:
        cold_runner = ExperimentRunner(dataset=Dataset(dataset_dir))
        cold, cold_seconds = _timed_figure7(cold_runner, scale)
        warm_runner = ExperimentRunner(dataset=Dataset(dataset_dir))
        warm, warm_seconds = _timed_figure7(warm_runner, scale)

    # The parallel baseline: plain serial execution, no dataset -- the
    # cold run above also pays row-append I/O, which would flatter the
    # pool.
    serial_runner = ExperimentRunner()
    serial, serial_seconds = _timed_figure7(serial_runner, scale)

    # Batched pool run, dispatch instruments captured
    # from a clean registry; then a second grid on the SAME runner,
    # served from the records its first grid executed.
    METRICS.reset()
    with ExperimentRunner(jobs=jobs) as parallel_runner:
        parallel, parallel_seconds = _timed_figure7(parallel_runner, scale)
        parallel_stats = dict(parallel_runner.last_stats)
        snapshot = METRICS.snapshot()
        repeat, repeat_seconds = _timed_figure7(parallel_runner, scale)
        repeat_stats = dict(parallel_runner.last_stats)
    METRICS.reset()

    assert warm == cold, "warm dataset changed the Figure 7 table"
    assert serial == cold, "serial re-run changed the Figure 7 table"
    assert parallel == cold, "parallel execution changed the Figure 7 table"
    assert repeat == cold, "repeat grid changed the Figure 7 table"
    assert warm_runner.last_stats["executed"] == 0, "warm run executed guest code"
    assert repeat_stats["executed"] == 0, "repeat grid executed guest code"

    dispatch = snapshot["phases"].get(
        "runner.dispatch", {"count": 0, "total_ns": 0}
    )
    chunks = parallel_stats.get("chunks", 0)
    cpu_count = os.cpu_count() or 1
    return {
        "figure": "figure7",
        "scale": scale,
        "jobs": jobs,
        "cpu_count": cpu_count,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "repeat_seconds": repeat_seconds,
        "warm_speedup": cold_seconds / warm_seconds,
        "parallel_speedup": serial_seconds / parallel_seconds,
        "repeat_speedup": serial_seconds / repeat_seconds,
        "chunks": chunks,
        "chunk_size": parallel_stats.get("chunk_size", 0),
        "payload_bytes": parallel_stats.get("payload_bytes", 0),
        "dispatch_total_ns": dispatch["total_ns"],
        "dispatch_overhead_ns": dispatch["total_ns"] // max(1, dispatch["count"]),
        "parallel_gate": (
            "enforced"
            if cpu_count >= 2
            else "skipped: single-core host, fan-out cannot beat serial"
        ),
        "cold_stats": cold_runner.last_stats,
        "warm_stats": warm_runner.last_stats,
        "parallel_stats": parallel_stats,
        "identical": True,
    }


def check_gates(payload):
    """Gate failures as strings (empty = all good); prints the
    skip-with-notice for the parallel gate on single-core hosts."""
    failures = []
    if payload["warm_speedup"] < 5.0:
        failures.append(
            "warm dataset speedup %.2fx is below the 5x floor"
            % payload["warm_speedup"]
        )
    if payload["cpu_count"] >= 2:
        if payload["parallel_speedup"] < 1.0:
            failures.append(
                "parallel_speedup %.2fx is below the 1.0x floor on a "
                "%d-core host" % (payload["parallel_speedup"], payload["cpu_count"])
            )
    else:
        print(
            "NOTICE: single-core host -- parallel_speedup gate skipped "
            "(measured %.2fx)" % payload["parallel_speedup"]
        )
    return failures


def test_runner_cold_warm_parallel(benchmark):
    payload = benchmark.pedantic(run_cold_warm_parallel, rounds=1, iterations=1)
    text = json.dumps(payload, indent=2) + "\n"
    print()
    print(text)
    assert not check_gates(payload)


def main():
    payload = run_cold_warm_parallel()
    text = json.dumps(payload, indent=2) + "\n"
    path = REPO_ROOT / "BENCH_runner.json"
    path.write_text(text)
    print(text)
    print("wrote %s" % path)
    failures = check_gates(payload)
    if failures:
        raise SystemExit("; ".join(failures))


if __name__ == "__main__":
    main()
