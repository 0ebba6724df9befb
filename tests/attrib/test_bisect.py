"""Bisection-engine tests: axis model, metric parsing, the search
verdicts (found / no-change / non-monotonic / diffuse), O(log n) probe
counts, flaky-probe re-execution, and dataset-warm re-bisects.
"""

import math

import pytest

from repro.arch import ARM
from repro.attrib import (
    BisectAxis,
    BisectProbeError,
    Bisector,
    parse_metric,
)
from repro.core import get_benchmark
from repro.core.benchmark import Benchmark
from repro.core.harness import Harness, TimingPolicy
from repro.core.runner import ExperimentRunner, resolve_benchmark
from repro.exp import Dataset
from repro.platform import VEXPRESS
from repro.sim.spec import DBTSpec, InterpSpec

BENCH = resolve_benchmark("Attrib TLB Bits")


def modeled_runner(dataset=None):
    return ExperimentRunner(
        harness=Harness(timing=TimingPolicy.MODELED), dataset=dataset
    )


def priced_axis(n=16, overrides_at=None):
    """A pricing-only axis: one structural group, per-step cost tables.

    ``overrides_at`` maps step index -> cost_overrides; steps not named
    run the default table.
    """
    overrides_at = overrides_at or {}
    steps = []
    for index in range(n):
        spec = DBTSpec(cost_overrides=overrides_at.get(index, {}))
        steps.append(("step-%02d" % index, spec))
    return BisectAxis(steps)


def step_axis(n=16, bad_from=9, cost=40.0):
    """A single planted pricing regression at ``bad_from``."""
    return priced_axis(
        n, {index: {"loads": cost} for index in range(bad_from, n)}
    )


def run_bisect(runner, axis, metric="seconds", bench=BENCH, **kwargs):
    kwargs.setdefault("iterations", 4)
    return Bisector(runner, axis, bench, ARM, VEXPRESS, metric, **kwargs).run()


class TestParseMetric:
    def test_seconds(self):
        metric = parse_metric("seconds")
        assert metric.source == "seconds" and metric.op is None

    def test_counter(self):
        metric = parse_metric("fields.tlb_misses")
        assert metric.source == "counter"
        assert metric.counter == "tlb_misses"

    def test_predicate(self):
        metric = parse_metric("fields.tlb_misses >= 100")
        assert metric.op == ">=" and metric.rhs == 100.0

    def test_metric_instances_pass_through(self):
        metric = parse_metric("seconds")
        assert parse_metric(metric) is metric

    @pytest.mark.parametrize(
        "text", ["wallclock", "fields.", "bogus >= 1", "seconds >= fast"]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_metric(text)


class TestBisectAxis:
    def test_needs_two_steps(self):
        with pytest.raises(ValueError, match="two steps"):
            BisectAxis([("only", DBTSpec())])

    def test_rejects_mixed_engines(self):
        with pytest.raises(ValueError, match="mixes engines"):
            BisectAxis([("a", DBTSpec()), ("b", InterpSpec())])

    def test_qemu_axis_is_the_version_timeline(self):
        axis = BisectAxis.qemu_versions("arm")
        assert len(axis) == 20
        assert axis.labels[0] == "v1.7.0"
        assert axis.labels[-1] == "v2.5.0-rc2"
        assert axis.engine == "qemu-dbt"
        # Changelog notes ride along for the verdict.
        assert "TLB" in axis.notes["v2.0.0"]

    def test_from_payloads_round_trips_specs(self):
        axis = BisectAxis.from_payloads(
            [
                {"engine": "qemu-dbt", "fields": {}},
                {
                    "label": "bigger-tlb",
                    "spec": {"engine": "qemu-dbt", "fields": {"tlb_bits": 7}},
                },
            ]
        )
        assert axis.labels == ("step-0", "bigger-tlb")
        assert axis.delta(0, 1) == {"tlb_bits": (8, 7)}


class TestBisectorVerdicts:
    def test_finds_planted_regression(self):
        with modeled_runner() as runner:
            result = run_bisect(runner, step_axis(16, bad_from=9))
        assert result.status == "found"
        assert result.labels[result.last_good] == "step-08"
        assert result.labels[result.first_bad] == "step-09"
        assert result.delta == {"cost_overrides": ({}, {"loads": 40.0})}

    @pytest.mark.parametrize("n,bad_from", [(16, 1), (16, 15), (64, 37)])
    def test_probe_count_is_logarithmic(self, n, bad_from):
        with modeled_runner() as runner:
            result = run_bisect(runner, step_axis(n, bad_from=bad_from))
        assert result.status == "found"
        assert result.labels[result.first_bad] == "step-%02d" % bad_from
        # Two endpoints plus a true binary search over the interior.
        assert result.probes <= 2 + math.ceil(math.log2(n))

    def test_flat_axis_is_no_change(self):
        with modeled_runner() as runner:
            result = run_bisect(runner, priced_axis(16))
        assert result.status == "no-change"
        assert result.probes <= 5  # endpoints + interior spot checks

    def test_interior_bump_with_equal_endpoints_is_non_monotonic(self):
        # Endpoints agree; the regression appears and *recovers* in the
        # middle.  A naive endpoint comparison would call this quiet.
        axis = priced_axis(
            16, {index: {"loads": 40.0} for index in range(6, 11)}
        )
        with modeled_runner() as runner:
            result = run_bisect(runner, axis)
        assert result.status == "non-monotonic"
        assert 0 < result.suspect < 15

    def test_out_of_envelope_probe_is_non_monotonic(self):
        # Endpoints differ (a real step at 12), but a mid-search probe
        # lands far outside both endpoint envelopes: refuse to bisect.
        overrides = {index: {"loads": 40.0} for index in range(12, 16)}
        overrides[7] = {"loads": 400.0}
        with modeled_runner() as runner:
            result = run_bisect(runner, priced_axis(16, overrides))
        assert result.status == "non-monotonic"
        assert result.suspect == 7

    def test_gradual_ramp_is_diffuse_not_found(self):
        overrides = {
            index: {"loads": 4.0 + 4.0 * index} for index in range(16)
        }
        with modeled_runner() as runner:
            result = run_bisect(runner, priced_axis(16, overrides))
        assert result.status == "diffuse"

    def test_predicate_metric_bisects_the_flip_point(self):
        axis = step_axis(16, bad_from=11, cost=80.0)
        with modeled_runner() as runner:
            baseline = run_bisect(runner, axis)
            cut = (
                baseline.values[0] + baseline.values[15]
            ) / 2.0
            result = run_bisect(runner, axis, metric="seconds >= %r" % cut)
        assert result.status == "found"
        assert result.labels[result.first_bad] == "step-11"

    def test_structural_version_axis_names_the_release(self):
        # The headline workflow: the simulated QEMU timeline, a TLB
        # counter metric, and the structural v2.0.0 TLB change.
        axis = BisectAxis.qemu_versions("arm")
        with modeled_runner() as runner:
            result = run_bisect(runner, axis, metric="fields.tlb_misses")
        assert result.status == "found"
        assert result.labels[result.first_bad] == "v2.0.0"
        assert result.delta["tlb_bits"] == (7, 8)
        assert "TLB" in result.note


class TestDatasetReuse:
    def test_cold_bisect_executes_few_cells_and_warm_executes_none(
        self, tmp_path
    ):
        # 16 steps, one structural group: the cold bisect executes a
        # single cell (well under the <=5 budget) and every later probe
        # resolves from the dataset.  The warm re-bisect executes 0.
        dataset = Dataset(tmp_path / "ds")
        axis = step_axis(16, bad_from=9)
        with modeled_runner(dataset) as runner:
            cold = run_bisect(runner, axis)
            warm = run_bisect(runner, axis)
        assert cold.status == warm.status == "found"
        assert cold.first_bad == warm.first_bad
        assert 0 < cold.executed_cells <= 5
        assert warm.executed_cells == 0
        assert warm.dataset_hits == warm.probes
        assert len(dataset.rows()) > 0

    def test_warm_restart_resolves_across_processes(self, tmp_path):
        # A fresh runner over the same dataset directory -- the
        # "yesterday's probes" case -- still executes nothing.
        dataset_dir = tmp_path / "ds"
        axis = step_axis(16, bad_from=9)
        with modeled_runner(Dataset(dataset_dir)) as runner:
            run_bisect(runner, axis)
        with modeled_runner(Dataset(dataset_dir)) as runner:
            warm = run_bisect(runner, axis)
        assert warm.status == "found"
        assert warm.executed_cells == 0


_FLAKY = {"remaining": 0}


class FlakyBenchmark(Benchmark):
    """Crashes on the first N builds, then behaves -- the transient
    cell the bisector must re-execute rather than mis-classify."""

    name = "Flaky Bisect Probe"
    group = "Faults"
    default_iterations = 4

    def build(self, arch, platform):
        if _FLAKY["remaining"] > 0:
            _FLAKY["remaining"] -= 1
            raise RuntimeError("deliberate flaky boom")
        return get_benchmark("System Call").build(arch, platform)


class AlwaysCrashingBenchmark(Benchmark):
    name = "Doomed Bisect Probe"
    group = "Faults"
    default_iterations = 4

    def build(self, arch, platform):
        raise RuntimeError("deliberate permanent boom")


class TestFlakyProbes:
    def test_flaky_probe_is_reexecuted_not_misclassified(self, tmp_path):
        _FLAKY["remaining"] = 1
        dataset = Dataset(tmp_path / "ds")
        with modeled_runner(dataset) as runner:
            result = run_bisect(
                runner, priced_axis(8), bench=FlakyBenchmark()
            )
        assert result.status == "no-change"
        assert result.flaky_retries == 1
        # The failed attempt was never stored; every stored row is ok.
        assert all(row["status"] == "ok" for row in dataset.rows())

    def test_permanent_failure_aborts_with_probe_error(self):
        with modeled_runner() as runner:
            with pytest.raises(BisectProbeError, match="failed after retries"):
                run_bisect(
                    runner,
                    priced_axis(8),
                    bench=AlwaysCrashingBenchmark(),
                    probe_retries=1,
                )

    def test_probes_are_memoised_per_step(self):
        with modeled_runner() as runner:
            result = run_bisect(runner, step_axis(16, bad_from=9))
        assert result.probes == len(result.values)
