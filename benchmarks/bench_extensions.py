"""Extension-suite benches (the paper's future-work benchmarks).

Regenerates a Figure 7-style table for the extension benchmarks
(Context Switch, FP Control Switch) across the engines, plus the
tagged-vs-untagged TLB comparison the Context Switch benchmark exists
to expose.
"""

from repro.arch import ARM
from repro.core import ExperimentRunner
from repro.core.benchmarks.extensions import EXTENSION_SUITE
from repro.platform import VEXPRESS

_SIMULATORS = ("qemu-dbt", "simit", "gem5", "qemu-kvm", "native")


def test_extension_suite_table(benchmark, save_artifact):
    runner = ExperimentRunner()

    def run():
        return {
            simulator: runner.run_suite(
                simulator, ARM, VEXPRESS, benchmarks=EXTENSION_SUITE
            ).by_name()
            for simulator in _SIMULATORS
        }

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Extension benchmarks (ARM guest, modeled seconds):"]
    lines.append("%-24s" % "Benchmark" + "".join("%14s" % s for s in _SIMULATORS))
    for bench in EXTENSION_SUITE:
        row = "%-24s" % bench.name
        for simulator in _SIMULATORS:
            result = table[simulator][bench.name]
            row += "%14.6f" % result.kernel_seconds if result.ok else "%14s" % result.status
        lines.append(row)
    text = "\n".join(lines)
    save_artifact("extensions_table.txt", text)
    print()
    print(text)
    for simulator in _SIMULATORS:
        for bench in EXTENSION_SUITE:
            assert table[simulator][bench.name].ok, (simulator, bench.name)
