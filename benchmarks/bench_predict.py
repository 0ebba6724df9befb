"""Contribution 3: modeling application performance from SimBench.

Fits the linear performance model from one SimBench suite run on the
DBT engine, then predicts every SPEC proxy's runtime from a single
profiling run and compares against the measured time.
"""

from repro.arch import ARM
from repro.core import ExperimentRunner, PerformanceModel
from repro.core.predict import predict_workloads
from repro.platform import VEXPRESS
from repro.workloads import SPEC_PROXIES


def test_predict_spec_from_simbench(benchmark, save_artifact):
    runner = ExperimentRunner()

    def run():
        suite_result = runner.run_suite("qemu-dbt", ARM, VEXPRESS, scale=0.5)
        model = PerformanceModel.fit(suite_result, ARM)
        rows = predict_workloads(
            model, runner, SPEC_PROXIES, ARM, VEXPRESS, profile_simulator="qemu-dbt"
        )
        return model, rows

    model, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Performance prediction from SimBench metrics (qemu-dbt)",
        "model: base = %.1f ns/insn, %d op classes" % (model.base_ns_per_insn, len(model.extra_ns_per_op)),
        "",
        "%-12s %14s %14s %10s" % ("workload", "predicted (ms)", "measured (ms)", "error"),
    ]
    for name, predicted, measured, error in rows:
        lines.append(
            "%-12s %14.4f %14.4f %9.1f%%" % (name, predicted / 1e6, measured / 1e6, 100 * error)
        )
    text = "\n".join(lines)
    save_artifact("prediction.txt", text)
    print()
    print(text)
    assert len(rows) == len(SPEC_PROXIES)
    # The model is rough (the paper claims trend-level fidelity, not
    # precision): every prediction within a factor of ~3.
    for _name, predicted, measured, error in rows:
        assert abs(error) < 2.0
