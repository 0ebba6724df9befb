"""Harness tests: timing policies, statuses, suite runs (through the
experiment runner, the one path cells run on)."""

import pytest

from repro.arch import ARM
from repro.core import ExperimentRunner, Harness, SUITE, TimingPolicy, get_benchmark
from repro.core.suite import GROUPS, benchmarks_in_group
from repro.platform import VEXPRESS
from repro.sim.dbt.versions import dbt_spec_for_version
from tests.runs import run_cell


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestSuiteRegistry:
    def test_eighteen_benchmarks(self):
        assert len(SUITE) == 18

    def test_five_groups(self):
        assert len(GROUPS) == 5
        grouped = sum(len(benchmarks_in_group(group)) for group in GROUPS)
        assert grouped == len(SUITE)

    def test_group_sizes_match_figure3(self):
        sizes = {group: len(benchmarks_in_group(group)) for group in GROUPS}
        assert sizes == {
            "Code Generation": 2,
            "Control Flow": 4,
            "Exception Handling": 5,
            "I/O": 2,
            "Memory System": 5,
        }

    def test_lookup_errors(self):
        with pytest.raises(KeyError):
            get_benchmark("No Such Benchmark")
        with pytest.raises(KeyError):
            benchmarks_in_group("No Such Group")

    def test_paper_iterations_recorded(self):
        # Spot-check Figure 3's iteration column.
        assert get_benchmark("Small Blocks").paper_iterations == 100_000
        assert get_benchmark("Intra-Page Direct").paper_iterations == 500_000_000
        assert get_benchmark("TLB Flush").paper_iterations == 4_000_000


class TestRunBenchmark:
    def test_reports_iterations_and_paper_iterations(self, runner):
        bench = get_benchmark("System Call")
        result = run_cell(runner, bench, "simit", ARM, VEXPRESS, iterations=12)
        assert result.iterations == 12
        assert result.paper_iterations == bench.paper_iterations
        assert result.kernel_ns > 0
        assert result.kernel_wall_ns > 0

    def test_modeled_timing_is_deterministic(self, runner):
        bench = get_benchmark("Hot Memory Access")
        first = run_cell(runner, bench, "simit", ARM, VEXPRESS, iterations=30)
        second = run_cell(runner, bench, "simit", ARM, VEXPRESS, iterations=30)
        assert first.kernel_ns == second.kernel_ns
        assert first.kernel_delta == second.kernel_delta

    def test_wallclock_policy(self):
        runner = ExperimentRunner(harness=Harness(timing=TimingPolicy.WALLCLOCK))
        bench = get_benchmark("Hot Memory Access")
        result = run_cell(runner, bench, "simit", ARM, VEXPRESS, iterations=30)
        assert result.kernel_ns == result.kernel_wall_ns

    def test_kernel_scales_with_iterations(self, runner):
        bench = get_benchmark("Undefined Instruction")
        small = run_cell(runner, bench, "simit", ARM, VEXPRESS, iterations=10)
        large = run_cell(runner, bench, "simit", ARM, VEXPRESS, iterations=100)
        assert large.kernel_ns > 5 * small.kernel_ns

    def test_program_cache_reused(self):
        harness = Harness()
        bench = get_benchmark("System Call")
        first = harness.build_program(bench, ARM, VEXPRESS)
        second = harness.build_program(bench, ARM, VEXPRESS)
        assert first is second

    def test_version_spec_applied(self, runner):
        bench = get_benchmark("Data Access Fault")
        base = run_cell(
            runner, bench, dbt_spec_for_version("v1.7.0"), ARM, VEXPRESS,
            iterations=50,
        )
        fast = run_cell(
            runner, bench, dbt_spec_for_version("v2.5.0-rc0"), ARM, VEXPRESS,
            iterations=50,
        )
        # The data-fault fast path makes this benchmark far faster.
        assert base.kernel_ns > 2 * fast.kernel_ns

    def test_error_status_on_runaway_guest(self):
        runner = ExperimentRunner(harness=Harness(max_insns=2_000))
        bench = get_benchmark("Cold Memory Access")
        result = run_cell(runner, bench, "simit", ARM, VEXPRESS, iterations=100000)
        assert result.status == "error"
        assert result.error is not None


class TestRunSuite:
    def test_full_suite(self, runner):
        suite_result = runner.run_suite("simit", ARM, VEXPRESS, scale=0.05)
        assert len(suite_result) == 18
        assert all(r.status == "ok" for r in suite_result)

    def test_scale_floors_at_one(self, runner):
        suite_result = runner.run_suite(
            "simit", ARM, VEXPRESS, benchmarks=[get_benchmark("System Call")], scale=1e-9
        )
        assert suite_result.results[0].iterations == 1

    def test_by_name(self, runner):
        suite_result = runner.run_suite(
            "simit", ARM, VEXPRESS,
            benchmarks=[get_benchmark("System Call"), get_benchmark("TLB Flush")],
            scale=0.05,
        )
        assert set(suite_result.by_name()) == {"System Call", "TLB Flush"}
