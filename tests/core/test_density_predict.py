"""Operation-density (Figure 3) and performance-prediction tests."""

import pytest

from repro.arch import ARM
from repro.core import ExperimentRunner, PerformanceModel, get_benchmark
from repro.core.density import density_table, measure_density, workload_density
from repro.core.predict import predict_workloads
from repro.platform import VEXPRESS
from repro.workloads import get_workload
from tests.runs import run_cell


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestDensity:
    def test_single_benchmark_density(self, runner):
        bench = get_benchmark("System Call")
        result, density = measure_density(bench, ARM, VEXPRESS, runner=runner, iterations=50)
        assert result.ok
        # One syscall per ~7-instruction iteration.
        assert 0.05 < density < 0.5

    def test_density_table_rows(self, runner):
        rows = density_table(ARM, VEXPRESS, runner=runner, scale=0.05)
        assert len(rows) == 18
        by_name = {row["benchmark"]: row for row in rows}
        # Spot-check magnitudes against Figure 3's ordering.
        hot = by_name["Hot Memory Access"]["simbench_density"]
        cold = by_name["Cold Memory Access"]["simbench_density"]
        assert hot > 0.5  # paper: 0.909
        assert 0.05 < cold < 0.5  # paper: 0.143
        # Every benchmark exercises its operation.
        for row in rows:
            assert row["simbench_density"] is None or row["simbench_density"] > 0

    def test_simbench_density_beats_spec(self, runner):
        """The table's headline claim: for every operation, SimBench's
        density exceeds the application suite's."""
        deltas = []
        for name in ("sjeng", "mcf", "gobmk"):
            result = run_cell(runner, get_workload(name), "simit", ARM, VEXPRESS, iterations=2)
            assert result.ok
            deltas.append(result.kernel_delta)
        rows = density_table(ARM, VEXPRESS, workload_deltas=deltas, runner=runner, scale=0.05)
        for row in rows:
            if row["simbench_density"] is None:
                continue
            assert row["simbench_density"] >= row["spec_density"], row

    def test_workload_density_helper(self):
        delta = {"instructions": 100, "syscalls": 3, "loads": 10}
        assert workload_density(("syscalls",), delta) == 0.03
        assert workload_density(("syscalls", "loads"), delta) == 0.13
        assert workload_density(("syscalls",), {"instructions": 0}) == 0.0


class TestPrediction:
    @pytest.fixture(scope="class")
    def model(self, runner):
        suite_result = runner.run_suite("qemu-dbt", ARM, VEXPRESS, scale=0.3)
        return PerformanceModel.fit(suite_result, ARM)

    def test_fit_produces_positive_base(self, model):
        assert model.base_ns_per_insn > 0
        assert model.extra_ns_per_op

    def test_expensive_ops_have_extra_cost(self, model):
        assert model.extra_ns_per_op.get("data_aborts", 0) > 0
        assert model.extra_ns_per_op.get("tlb_flushes", 0) > 0

    def test_prediction_in_right_ballpark(self, runner, model):
        """Predicted vs measured within a factor of ~3 for the proxies
        (the paper itself stresses this is a rough model)."""
        rows = predict_workloads(
            model, runner, [get_workload("sjeng"), get_workload("hmmer")], ARM, VEXPRESS,
            profile_simulator="qemu-dbt",
        )
        assert rows
        for _name, predicted, measured, error in rows:
            assert predicted > 0 and measured > 0
            assert abs(error) < 2.0, rows

    def test_prediction_error_helper(self, model):
        delta = {"instructions": 1000}
        predicted = model.predict_ns(delta)
        assert model.prediction_error(delta, predicted) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            model.prediction_error(delta, 0)

    def test_least_squares_fit_beats_heuristic(self, runner, model):
        suite_result = runner.run_suite("qemu-dbt", ARM, VEXPRESS, scale=0.3)
        lstsq = PerformanceModel.fit_least_squares(suite_result, ARM)
        assert lstsq.base_ns_per_insn >= 0
        workloads = [get_workload("sjeng"), get_workload("mcf"), get_workload("hmmer")]

        def mean_error(m):
            rows = predict_workloads(
                m, runner, workloads, ARM, VEXPRESS, profile_simulator="qemu-dbt"
            )
            return sum(abs(e) for *_x, e in rows) / len(rows)

        assert mean_error(lstsq) < mean_error(model)

    def test_least_squares_needs_enough_rows(self, runner):
        suite_result = runner.run_suite(
            "simit", ARM, VEXPRESS,
            benchmarks=[get_benchmark("System Call")], scale=0.1,
        )
        with pytest.raises(ValueError):
            PerformanceModel.fit_least_squares(suite_result, ARM)

    def test_fit_requires_base_benchmark(self, runner):
        suite_result = runner.run_suite(
            "simit", ARM, VEXPRESS, benchmarks=[get_benchmark("System Call")], scale=0.1
        )
        with pytest.raises(ValueError):
            PerformanceModel.fit(suite_result, ARM)
