"""The QEMU version-sweep driver (Figures 2, 6 and 8).

Running 20 engine versions naively would re-execute every guest program
20 times.  Versions that share the same *structural* configuration
(TLB geometry, chaining policy, block length) produce identical event
counts, so the sweep executes each benchmark once per structural group
and then prices the recorded kernel counter delta under every version's
cost table.  This keeps the sweep honest -- counts come from real runs
on the right structure -- while staying fast.

The grouping itself lives in the engine-spec layer
(:meth:`repro.sim.spec.EngineSpec.structural_key`): the sweep builds
one :class:`~repro.sim.spec.DBTSpec` per version up front, submits one
job per (benchmark, version) and lets the runner deduplicate, store
and parallelise the executions.
"""

import math

from repro.core.harness import Harness, TimingPolicy
from repro.core.runner import ExperimentRunner, JobSpec
from repro.sim.dbt.versions import QEMU_VERSIONS, dbt_config_for_version
from repro.sim.spec import DBTSpec


def version_axis(arch_name, versions=None):
    """The ordered ``(version, DBTSpec)`` axis of the simulated QEMU
    release history -- the default input to
    :class:`repro.attrib.bisect.BisectAxis`."""
    versions = QEMU_VERSIONS if versions is None else tuple(versions)
    return tuple(
        (version, DBTSpec.from_config(dbt_config_for_version(version, arch_name)))
        for version in versions
    )


def _usable_seconds(value):
    """True for a cell that can serve as a speedup numerator/baseline."""
    return value is not None and math.isfinite(value) and value > 0


class SweepSeries:
    """One benchmark's modeled kernel seconds across every version.

    Under non-strict sweeps a failed (crashed/timeout/error) cell
    holds ``float("nan")`` seconds and its cause is recorded in
    ``failures`` as ``(version, status, error-string)`` tuples.
    """

    __slots__ = ("name", "group", "versions", "seconds", "failures")

    def __init__(self, name, group, versions, seconds, failures=()):
        self.name = name
        self.group = group
        self.versions = tuple(versions)
        self.seconds = tuple(seconds)
        self.failures = tuple(failures)

    def speedups(self, baseline_index=0):
        """Speedup of each version relative to the baseline version.

        A failed cell (NaN seconds under a non-strict sweep) yields a
        NaN ratio for *that point only*.  When the baseline cell itself
        failed, the first usable cell stands in as baseline, so one bad
        version cannot poison every ratio in the series (or divide by
        zero); only with no usable cell at all is the whole series NaN.
        """
        base = self.seconds[baseline_index]
        if not _usable_seconds(base):
            base = next(
                (value for value in self.seconds if _usable_seconds(value)),
                float("nan"),
            )
        return tuple(
            base / value if _usable_seconds(value) else float("nan")
            for value in self.seconds
        )

    def __repr__(self):
        return "SweepSeries(%s, %d versions)" % (self.name, len(self.versions))


class VersionSweep:
    """Runs benchmarks/workloads across the QEMU version timeline."""

    def __init__(
        self,
        arch,
        platform,
        versions=QEMU_VERSIONS,
        harness=None,
        runner=None,
        dataset=None,
    ):
        self.arch = arch
        self.platform = platform
        self.versions = tuple(versions)
        if runner is None:
            harness = harness if harness is not None else Harness(timing=TimingPolicy.MODELED)
            runner = ExperimentRunner(harness=harness)
        if dataset is not None:
            # Resolve sweep cells from the experiment dataset first;
            # only missing structural groups execute (and get appended).
            runner.dataset = dataset
        self.runner = runner
        self.harness = runner.harness
        # One engine spec per version, built up front: the whole sweep
        # is described before anything executes.
        self.engine_specs = dict(version_axis(arch.name, self.versions))

    def axis(self):
        """The ordered ``(version, spec)`` steps of this sweep -- the
        bisection-ready view of the version timeline."""
        return tuple((version, self.engine_specs[version]) for version in self.versions)

    def spec_deltas(self):
        """Field-level changes at each version boundary.

        Returns ``((prev_version, version, {field: (before, after)}),
        ...)`` for every adjacent pair whose specs differ -- the "what
        did this release change" table behind a bisection verdict.
        """
        deltas = []
        for prev, current in zip(self.versions, self.versions[1:]):
            diff = self.engine_specs[prev].diff(self.engine_specs[current])
            if diff:
                deltas.append((prev, current, diff))
        return tuple(deltas)

    def _structural_groups(self):
        groups = {}
        for version in self.versions:
            key = self.engine_specs[version].structural_key()
            groups.setdefault(key, []).append(version)
        return groups

    def _specs(self, benchmark, iterations):
        return [
            JobSpec(
                benchmark,
                self.engine_specs[version],
                self.arch,
                self.platform,
                iterations=iterations,
            )
            for version in self.versions
        ]

    def run(self, benchmark, iterations=None, strict=True):
        """Sweep one benchmark; returns a :class:`SweepSeries`."""
        return self.run_many([benchmark], iterations=iterations, strict=strict)[
            benchmark.name
        ]

    def run_many(self, benchmarks, iterations=None, strict=True):
        """Sweep several benchmarks; returns ``{name: SweepSeries}``.

        All (benchmark, version) cells go to the runner as one grid, so
        with ``jobs=N`` the per-structural-group executions of *every*
        benchmark proceed in parallel.

        The grid always completes (the runner is fault-isolated); what
        ``strict`` controls is reporting.  ``strict=True`` raises
        ``RuntimeError`` on the first non-ok cell; ``strict=False``
        records failed cells as NaN seconds plus a ``failures`` entry
        on the series, so one bad version does not discard the rest of
        a completed sweep.
        """
        benchmarks = list(benchmarks)
        specs = []
        for benchmark in benchmarks:
            specs.extend(self._specs(benchmark, iterations))
        results = self.runner.run(specs)
        series = {}
        index = 0
        for benchmark in benchmarks:
            seconds = []
            failures = []
            for version in self.versions:
                result = results[index]
                index += 1
                if not result.ok:
                    if strict:
                        raise RuntimeError(
                            "sweep run failed for %s under %s: %s (%s)"
                            % (benchmark.name, version, result.status, result.error)
                        )
                    failures.append((version, result.status, str(result.error or "")))
                    seconds.append(float("nan"))
                    continue
                seconds.append(result.kernel_ns / 1e9)
            series[benchmark.name] = SweepSeries(
                benchmark.name, benchmark.group, self.versions, seconds, failures
            )
        return series
