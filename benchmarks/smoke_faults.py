"""Fault-isolation smoke: a ``--jobs 2`` grid containing a crashing
cell must complete, in submission order, with one ``crashed`` row.

This drives the runner's pool path end to end -- workers, crash
containment, record transport, submission-order merge -- on a small
grid of real suite benchmarks plus one deliberately crashing
benchmark, and checks the parallel grid is bit-for-bit the serial one
for every non-failing cell.

Runnable standalone (the CI fault-smoke job does):
``PYTHONPATH=src python benchmarks/smoke_faults.py``.
"""

from repro.arch import ARM
from repro.core import ExperimentRunner, JobSpec, get_benchmark
from repro.core.benchmark import Benchmark
from repro.platform import VEXPRESS

OK_BENCHMARKS = ("System Call", "TLB Flush", "Hot Memory Access", "Small Blocks")


class CrashingBenchmark(Benchmark):
    """The deliberately bad grid cell."""

    name = "Crashing Cell"
    group = "Faults"
    default_iterations = 5

    def build(self, arch, platform):
        raise RuntimeError("deliberate smoke-test crash")


def build_grid():
    benchmarks = [get_benchmark(OK_BENCHMARKS[0]), CrashingBenchmark()]
    benchmarks += [get_benchmark(name) for name in OK_BENCHMARKS[1:]]
    return [
        JobSpec(benchmark, "simit", ARM, VEXPRESS, iterations=10)
        for benchmark in benchmarks
    ]


def comparable(results):
    rows = [result.as_dict() for result in results]
    for row in rows:
        row.pop("kernel_wall_ns")  # host time differs between runs
    return rows


def main():
    serial = ExperimentRunner(jobs=1).run(build_grid())
    parallel_runner = ExperimentRunner(jobs=2)
    parallel = parallel_runner.run(build_grid())

    expected = ["ok", "crashed", "ok", "ok", "ok"]
    assert [r.status for r in serial] == expected, [r.status for r in serial]
    assert [r.status for r in parallel] == expected, [r.status for r in parallel]
    assert comparable(parallel) == comparable(serial), (
        "parallel grid diverged from serial execution"
    )
    assert parallel_runner.last_stats["crashed"] == 1, parallel_runner.last_stats
    crashed = [row for row in parallel_runner.last_jobs if row["status"] == "crashed"]
    assert crashed[0]["benchmark"] == "Crashing Cell", crashed
    assert "deliberate smoke-test crash" in crashed[0]["error"], crashed

    print("fault smoke ok: %d-cell grid completed around 1 crashed cell "
          "(serial == jobs=2)" % len(expected))
    print("stats: %r" % parallel_runner.last_stats)


if __name__ == "__main__":
    main()
