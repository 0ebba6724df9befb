"""Operation-density measurement (Figure 3).

The *operation density* of a benchmark is the number of tested
operations per executed kernel instruction.  The paper reports, for
each SimBench benchmark, its own density and the density of the same
operation class across the SPEC2006 INT suite -- showing that SimBench
exercises each feature orders of magnitude more intensely.

Densities are measured on the reference engine (the fast interpreter),
whose counters observe every operation class.
"""

from repro.core.runner import ExperimentRunner, JobSpec
from repro.core.suite import SUITE

REFERENCE_SIMULATOR = "simit"


def measure_density(benchmark, arch, platform, runner=None, iterations=None):
    """Measure one benchmark's operation density on the reference engine."""
    if runner is None:
        runner = ExperimentRunner()
    [result] = runner.run(
        [JobSpec(benchmark, REFERENCE_SIMULATOR, arch, platform, iterations=iterations)]
    )
    if not result.ok:
        return result, None
    return result, result.operation_density


def workload_density(counter_names, delta):
    """Density of an operation class in a workload's counter delta."""
    insns = delta.get("instructions", 0)
    if not insns:
        return 0.0
    return sum(delta.get(name, 0) for name in counter_names) / insns


def density_table(arch, platform, workload_deltas=None, runner=None, scale=1.0):
    """Build Figure 3's rows.

    Returns a list of dicts with keys ``group``, ``benchmark``,
    ``paper_iterations``, ``iterations``, ``simbench_density`` and (when
    ``workload_deltas`` -- a list of kernel counter deltas from the
    SPEC-proxy workloads -- is given) ``spec_density``.  The suite runs
    as one grid on ``runner``.
    """
    if runner is None:
        runner = ExperimentRunner()
    merged = None
    if workload_deltas:
        merged = {}
        for delta in workload_deltas:
            for key, value in delta.items():
                merged[key] = merged.get(key, 0) + value
    specs = [
        JobSpec(
            benchmark,
            REFERENCE_SIMULATOR,
            arch,
            platform,
            iterations=max(1, int(benchmark.default_iterations * scale)),
        )
        for benchmark in SUITE
    ]
    rows = []
    for spec, result in zip(specs, runner.run(specs)):
        benchmark = spec.benchmark
        row = {
            "group": benchmark.group,
            "benchmark": benchmark.name,
            "paper_iterations": benchmark.paper_iterations,
            "iterations": spec.iterations,
            "simbench_density": result.operation_density if result.ok else None,
            "status": result.status,
        }
        if merged is not None:
            counters = benchmark.operation_counters_for(arch)
            row["spec_density"] = workload_density(counters, merged)
        rows.append(row)
    return rows
