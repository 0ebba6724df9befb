#!/usr/bin/env python
"""Quickstart: run one SimBench micro-benchmark on two simulators.

This is the smallest end-to-end use of the library: build the System
Call benchmark for the ARM profile, run it on the QEMU-like DBT engine
and on the SimIt-like fast interpreter, and report the run time and
iteration count for each (the two numbers the methodology says must
always be reported together).
"""

from repro.arch import ARM
from repro.core import ExperimentRunner, JobSpec, get_benchmark
from repro.platform import VEXPRESS


def main():
    benchmark = get_benchmark("System Call")
    simulators = ("qemu-dbt", "simit")
    results = ExperimentRunner().run(
        [JobSpec(benchmark, simulator, ARM, VEXPRESS) for simulator in simulators]
    )

    print("SimBench quickstart: %r on two simulators" % benchmark.name)
    print("paper iteration count: %s" % format(benchmark.paper_iterations, ","))
    print()

    for simulator, result in zip(simulators, results):
        print("%-10s  status=%-4s  iterations=%-6d  kernel=%.6f s (modeled)"
              % (simulator, result.status, result.iterations, result.kernel_seconds))
        print("            kernel instructions=%d, syscalls observed=%d"
              % (result.kernel_instructions, result.operations))
        print("            ns/operation=%.1f, operation density=%.3f"
              % (result.ns_per_operation, result.operation_density))
        print()

    print("Both engines executed the identical bare-metal guest image;")
    print("only the simulation technology differs -- which is exactly the")
    print("quantity SimBench isolates.")


if __name__ == "__main__":
    main()
