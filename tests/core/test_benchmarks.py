"""Per-benchmark tests: each of the 18 must run and its tested
operation must be observed at the expected rate."""

import pytest

from repro.arch import ARM, X86
from repro.core import ExperimentRunner, SUITE, get_benchmark
from repro.platform import PCPLAT, VEXPRESS
from tests.runs import run_cell

ITERATIONS = 40


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


def run(runner, name, simulator="simit", arch=ARM, platform=VEXPRESS, iterations=ITERATIONS):
    return run_cell(
        runner, get_benchmark(name), simulator, arch, platform, iterations=iterations
    )


@pytest.mark.parametrize("bench", SUITE, ids=[b.name for b in SUITE])
@pytest.mark.parametrize(
    "arch,platform", [(ARM, VEXPRESS), (X86, PCPLAT)], ids=["arm", "x86"]
)
class TestAllBenchmarksRun:
    def test_runs_on_reference_engine(self, runner, bench, arch, platform):
        result = run_cell(runner, bench, "simit", arch, platform, iterations=20)
        if not bench.effective(arch):
            assert result.status == "not-applicable"
            return
        assert result.status == "ok", result.error
        assert result.kernel_instructions > 0
        assert result.operations > 0

    def test_runs_on_dbt(self, runner, bench, arch, platform):
        result = run_cell(runner, bench, "qemu-dbt", arch, platform, iterations=20)
        if not bench.effective(arch):
            assert result.status == "not-applicable"
            return
        assert result.status == "ok", result.error


class TestOperationRates:
    """The tested-operation count per iteration must match the
    benchmark's declared ops_per_iteration (within the one-off slack of
    warm-up effects)."""

    @pytest.mark.parametrize(
        "name",
        [
            "Inter-Page Direct",
            "Inter-Page Indirect",
            "Intra-Page Direct",
            "Intra-Page Indirect",
            "Data Access Fault",
            "Instruction Access Fault",
            "Undefined Instruction",
            "System Call",
            "External Software Interrupt",
            "Memory Mapped Device",
            "Coprocessor Access",
            "TLB Eviction",
            "TLB Flush",
        ],
    )
    def test_exact_rate(self, runner, name):
        bench = get_benchmark(name)
        result = run(runner, name)
        assert result.ok
        expected = ITERATIONS * bench.ops_per_iteration
        # Allow one iteration of slack for warm-up / final-iteration
        # effects (e.g. the loop's final branch is not taken).
        assert expected - bench.ops_per_iteration <= result.operations <= expected

    def test_code_generation_rates(self, runner):
        for name in ("Small Blocks", "Large Blocks"):
            bench = get_benchmark(name)
            result = run(runner, name)
            assert result.ok
            expected = ITERATIONS * bench.ops_per_iteration
            # First-iteration stores happen before the code was ever
            # executed, so they are not counted as code writes.
            assert expected - bench.ops_per_iteration <= result.operations <= expected

    def test_hot_memory_rate(self, runner):
        bench = get_benchmark("Hot Memory Access")
        result = run(runner, "Hot Memory Access")
        assert result.operations >= ITERATIONS * bench.ops_per_iteration

    def test_cold_memory_misses_every_iteration(self, runner):
        result = run(runner, "Cold Memory Access", iterations=100)
        assert result.ok
        # Every access walks a fresh page: every one misses the 64-entry TLB.
        assert result.operations >= 100

    def test_nonpriv_rate_on_arm(self, runner):
        bench = get_benchmark("Nonprivileged Access")
        result = run(runner, "Nonprivileged Access")
        assert result.ok
        assert result.operations == ITERATIONS * bench.ops_per_iteration


class TestArchSpecifics:
    def test_nonpriv_not_applicable_on_x86(self, runner):
        result = run(runner, "Nonprivileged Access", arch=X86, platform=PCPLAT)
        assert result.status == "not-applicable"

    def test_coproc_counter_differs_by_arch(self):
        bench = get_benchmark("Coprocessor Access")
        assert bench.operation_counters_for(ARM) == ("coproc_reads",)
        assert bench.operation_counters_for(X86) == ("coproc_writes",)

    def test_mmio_unsupported_on_gem5(self, runner):
        result = run(runner, "Memory Mapped Device", simulator="gem5")
        assert result.status == "unsupported"

    def test_swirq_unsupported_on_gem5(self, runner):
        result = run(runner, "External Software Interrupt", simulator="gem5", iterations=5)
        assert result.status == "unsupported"


class TestStructuralEffects:
    def test_small_blocks_forces_retranslation(self, runner):
        result = run(runner, "Small Blocks", simulator="qemu-dbt", iterations=30)
        assert result.ok
        delta = result.kernel_delta
        assert delta["smc_invalidations"] >= 29
        assert delta["translations"] >= 29

    def test_intra_page_direct_chains_on_dbt(self, runner):
        result = run(runner, "Intra-Page Direct", simulator="qemu-dbt", iterations=50)
        assert result.ok
        delta = result.kernel_delta
        assert delta["chain_follows"] > delta["slow_dispatches"]

    def test_inter_page_direct_does_not_chain(self, runner):
        result = run(runner, "Inter-Page Direct", simulator="qemu-dbt", iterations=50)
        assert result.ok
        delta = result.kernel_delta
        # Cross-page direct branches go through the block cache.
        assert delta["slow_dispatches"] >= delta["branches_direct_inter"]

    def test_tlb_flush_refills(self, runner):
        result = run(runner, "TLB Flush", iterations=50)
        delta = result.kernel_delta
        assert delta["tlb_flushes"] == 50
        # The flushed page must be re-walked every iteration.
        assert delta["tlb_misses"] >= 50

    def test_syscall_benchmark_returns_cleanly(self, runner):
        result = run(runner, "System Call", iterations=25)
        delta = result.kernel_delta
        assert delta["syscalls"] == 25
        assert delta["exception_returns"] == 25
