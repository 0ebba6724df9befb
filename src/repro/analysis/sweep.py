"""The QEMU version-sweep driver (Figures 2, 6 and 8).

Running 20 engine versions naively would re-execute every guest program
20 times.  Versions that share the same *structural* configuration
(TLB geometry, chaining policy, block length) produce identical event
counts, so the sweep executes each benchmark once per structural group
and then prices the recorded kernel counter delta under every version's
cost table.  This keeps the sweep honest -- counts come from real runs
on the right structure -- while staying fast.

The grouping is the runner's: the sweep takes one
:class:`~repro.sim.spec.DBTSpec` per version from the shared
:func:`version_axis`, submits one job per (benchmark, version), and
the runner deduplicates the jobs by cell fingerprint -- versions with
equal structural fields share one -- then stores and parallelises the
executions.
"""

import math

from repro.core.runner import ExperimentRunner, JobSpec
from repro.sim.dbt.versions import QEMU_VERSIONS, dbt_spec_for_version


#: ``(arch_name, versions) -> axis``: every sweep and bisection over
#: the same timeline shares one tuple of specs, and with it each
#: spec's cached tokens and cost models.
_AXES = {}


def version_axis(arch_name, versions=None):
    """The ordered ``(version, DBTSpec)`` axis of the simulated QEMU
    release history -- the default input to
    :class:`repro.attrib.bisect.BisectAxis`.

    The tuple is built once per ``(arch_name, versions)`` and then
    returned as is; specs are immutable, so sharing them is safe."""
    versions = QEMU_VERSIONS if versions is None else tuple(versions)
    key = (arch_name, versions)
    axis = _AXES.get(key)
    if axis is None:
        axis = _AXES[key] = tuple(
            (version, dbt_spec_for_version(version, arch_name))
            for version in versions
        )
    return axis


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
        runner=None,
        dataset=None,
    ):
        self.arch = arch
        self.platform = platform
        self.versions = tuple(versions)
        if runner is None:
            runner = ExperimentRunner()
        if dataset is not None:
            # Resolve sweep cells from the experiment dataset first;
            # only missing structural groups execute (and get appended).
            runner.dataset = dataset
        self.runner = runner
        # One engine spec per version, described before anything
        # executes and shared with every sweep over the same timeline.
        self._axis = version_axis(arch.name, self.versions)
        self.engine_specs = dict(self._axis)

    def axis(self):
        """The ordered ``(version, spec)`` steps of this sweep -- the
        bisection-ready view of the version timeline."""
        return self._axis

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
        return self.run_many([(benchmark, iterations)], strict=strict)[benchmark.name]

    def run_many(self, cells, strict=True):
        """Sweep several benchmarks; returns ``{name: SweepSeries}``.

        ``cells`` is an iterable of ``(benchmark, iterations)`` pairs
        (``iterations=None`` is the benchmark's default), so benchmarks
        at different iteration counts -- a figure's whole grid -- go to
        the runner as one :meth:`~repro.core.runner.ExperimentRunner.run`
        call: with ``jobs=N`` the per-structural-group executions of
        *every* benchmark proceed in parallel, and a warm regeneration
        pays one dataset-totals fold, not one per iteration count.  The
        result keeps the order of ``cells``.

        The grid always completes (the runner is fault-isolated); what
        ``strict`` controls is reporting.  ``strict=True`` raises
        ``RuntimeError`` on the first non-ok cell; ``strict=False``
        records failed cells as NaN seconds plus a ``failures`` entry
        on the series, so one bad version does not discard the rest of
        a completed sweep.
        """
        cells = list(cells)
        specs = []
        for benchmark, iterations in cells:
            specs.extend(self._specs(benchmark, iterations))
        results = iter(self.runner.run(specs))
        series = {}
        for benchmark, _iterations in cells:
            seconds = []
            failures = []
            for version, result in zip(self.versions, results):
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
