"""SimBench: the benchmark suite, harness and analysis primitives.

This package is the reproduction of the paper's primary contribution:

- :mod:`repro.core.program` -- the bare-metal program builder
  implementing the three-phase protocol (setup / timed kernel /
  cleanup, delimited by test-control device writes);
- :mod:`repro.core.benchmark` -- the benchmark base class and result
  records;
- :mod:`repro.core.benchmarks` -- the 18 micro-benchmarks in 5 groups;
- :mod:`repro.core.suite` -- the suite registry (Figure 3's inventory);
- :mod:`repro.core.harness` -- the per-cell primitives: execute one
  benchmark on one simulator and price its kernel counter delta;
- :mod:`repro.core.runner` -- the experiment runner, the one path
  every grid of cells takes (structural job dedup, the result dataset,
  multiprocessing fan-out, deterministic merge);
- :mod:`repro.core.resultcache` -- job fingerprints, the keys of the
  experiment dataset ("execute once, price many");
- :mod:`repro.core.density` -- operation-density measurement;
- :mod:`repro.core.predict` -- the performance-prediction model
  (contribution 3: model application performance from micro-benchmark
  metrics).
"""

from repro.core.benchmark import Benchmark, BenchmarkResult
from repro.core.program import ProgramBuilder, BuiltProgram
from repro.core.suite import (
    SUITE,
    GROUPS,
    get_benchmark,
    benchmarks_in_group,
)
from repro.core.benchmarks.extensions import EXTENSION_SUITE
from repro.core.harness import (
    FAILURE_STATUSES,
    ExecutionRecord,
    Harness,
    TimingPolicy,
    SuiteResult,
)
from repro.core.density import measure_density, density_table
from repro.core.predict import PerformanceModel, predict_workloads
from repro.core.resultcache import job_fingerprint
from repro.core.runner import ExperimentRunner, JobSpec

__all__ = [
    "Benchmark",
    "BenchmarkResult",
    "ProgramBuilder",
    "BuiltProgram",
    "SUITE",
    "GROUPS",
    "get_benchmark",
    "benchmarks_in_group",
    "Harness",
    "TimingPolicy",
    "SuiteResult",
    "FAILURE_STATUSES",
    "ExecutionRecord",
    "ExperimentRunner",
    "JobSpec",
    "job_fingerprint",
    "measure_density",
    "density_table",
    "PerformanceModel",
    "predict_workloads",
    "EXTENSION_SUITE",
]
