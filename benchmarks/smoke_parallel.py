"""Parallel-speedup smoke: ``--jobs 2`` must not lose to serial.

Runs a small Figure 7 grid twice serially and twice under ``jobs=2``
(the second parallel pass reuses the persistent warm pool), takes the
best of each pair to damp CI-runner noise, checks the tables are
identical, and gates ``parallel_speedup >= 1.0``.

On a single-core host fan-out cannot beat serial, so the speedup gate
is skipped with a notice (exit 0) -- correctness is still asserted.

Runnable standalone: ``PYTHONPATH=src python benchmarks/smoke_parallel.py``.
"""

import os
import time

from repro.analysis import figures
from repro.core import ExperimentRunner

SCALE = 0.25
JOBS = 2
ROUNDS = 2


def _timed(runner):
    start = time.perf_counter()
    table = figures.figure7(scale=SCALE, runner=runner)
    return table, time.perf_counter() - start


def main():
    cpu_count = os.cpu_count() or 1

    serial_runner = ExperimentRunner()
    baseline, serial_seconds = _timed(serial_runner)
    for _ in range(ROUNDS - 1):
        table, seconds = _timed(serial_runner)
        assert table == baseline, "serial re-run changed the table"
        serial_seconds = min(serial_seconds, seconds)

    with ExperimentRunner(jobs=JOBS) as runner:
        parallel_seconds = None
        for _ in range(ROUNDS):
            table, seconds = _timed(runner)
            assert table == baseline, "parallel execution changed the table"
            parallel_seconds = (
                seconds
                if parallel_seconds is None
                else min(parallel_seconds, seconds)
            )
        stats = dict(runner.last_stats)

    speedup = serial_seconds / parallel_seconds
    print(
        "parallel smoke: serial %.2fs, jobs=%d %.2fs -> %.2fx "
        "(%d chunks of up to %d jobs, %d payload bytes, %d cores)"
        % (
            serial_seconds,
            JOBS,
            parallel_seconds,
            speedup,
            stats.get("chunks", 0),
            stats.get("chunk_size", 0),
            stats.get("payload_bytes", 0),
            cpu_count,
        )
    )
    if cpu_count < 2:
        print(
            "NOTICE: single-core host -- parallel_speedup gate skipped "
            "(measured %.2fx)" % speedup
        )
        return
    if speedup < 1.0:
        raise SystemExit(
            "parallel_speedup %.2fx is below the 1.0x floor on a %d-core host"
            % (speedup, cpu_count)
        )


if __name__ == "__main__":
    main()
