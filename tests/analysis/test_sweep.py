"""Version-sweep driver tests."""

import pytest

from repro.analysis.sweep import SweepSeries, VersionSweep
from repro.arch import ARM
from repro.core import get_benchmark
from repro.core.runner import ExperimentRunner
from repro.platform import VEXPRESS
from repro.sim.dbt.versions import QEMU_VERSIONS


@pytest.fixture(scope="module")
def sweep():
    return VersionSweep(ARM, VEXPRESS)


class TestSweepSeries:
    def test_speedups_baseline(self):
        series = SweepSeries("x", "g", ["a", "b"], [2.0, 1.0])
        assert series.speedups() == (1.0, 2.0)

    def test_speedups_other_baseline(self):
        series = SweepSeries("x", "g", ["a", "b"], [2.0, 1.0])
        assert series.speedups(baseline_index=1) == (0.5, 1.0)


class TestVersionSweep:
    def test_all_versions_covered(self, sweep):
        series = sweep.run(get_benchmark("System Call"), iterations=30)
        assert series.versions == tuple(QEMU_VERSIONS)
        assert len(series.seconds) == 20
        assert all(s > 0 for s in series.seconds)

    def test_structural_groups_share_runs(self, sweep):
        """Only two structural configurations exist in the timeline
        (v1.x with the small TLB, v2.x with the large one), so the sweep
        needs only two real executions."""
        groups = sweep._structural_groups()
        assert len(groups) == 2
        sizes = sorted(len(v) for v in groups.values())
        assert sizes == [3, 17]

    def test_exception_benchmark_declines(self, sweep):
        series = sweep.run(get_benchmark("System Call"), iterations=30)
        speedups = series.speedups()
        # Syscall handling regresses markedly by v2.5 (paper Figure 6).
        assert speedups[-1] < 0.75

    def test_data_fault_jumps_at_2_5(self, sweep):
        series = sweep.run(get_benchmark("Data Access Fault"), iterations=30)
        speedups = dict(zip(series.versions, series.speedups()))
        assert speedups["v2.5.0-rc0"] > 2.0 * speedups["v2.4.1"]

    def test_tlb_flush_improves(self, sweep):
        series = sweep.run(get_benchmark("TLB Flush"), iterations=30)
        speedups = series.speedups()
        assert speedups[-1] > 1.5

    def test_control_flow_declines(self, sweep):
        series = sweep.run(get_benchmark("Inter-Page Direct"), iterations=30)
        speedups = series.speedups()
        assert speedups[-1] < 0.85
        # And the decline is monotonic from v2.1.0 on.
        tail = speedups[6:]
        assert all(a >= b - 1e-9 for a, b in zip(tail, tail[1:]))

    def test_run_many(self, sweep):
        result = sweep.run_many(
            [(get_benchmark("System Call"), 10), (get_benchmark("TLB Flush"), 10)]
        )
        assert set(result) == {"System Call", "TLB Flush"}

    def test_run_many_mixes_iteration_counts_in_one_grid(self):
        calls = []
        runner = ExperimentRunner()
        real_run = runner.run
        runner.run = lambda specs: calls.append(len(specs)) or real_run(specs)
        sweep = VersionSweep(ARM, VEXPRESS, runner=runner)
        cells = [(get_benchmark("TLB Flush"), 12), (get_benchmark("System Call"), 10)]
        result = sweep.run_many(cells)
        assert calls == [2 * len(QEMU_VERSIONS)]
        assert list(result) == ["TLB Flush", "System Call"]
        for benchmark, iterations in cells:
            alone = VersionSweep(ARM, VEXPRESS).run(benchmark, iterations=iterations)
            assert result[benchmark.name].seconds == alone.seconds
