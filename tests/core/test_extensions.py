"""Extension benchmark tests: the ASID context-switch benchmark."""

import pytest

from repro.arch import ARM, X86
from repro.core import ExperimentRunner
from repro.core.benchmarks.extensions import (
    EXTENSION_SUITE,
    ContextSwitch,
    FPControlSwitch,
)
from repro.core.suite import SUITE
from repro.platform import PCPLAT, VEXPRESS
from repro.sim.spec import spec_for
from tests.runs import run_cell


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestRegistry:
    def test_extension_suite_is_separate(self):
        names = {bench.name for bench in SUITE}
        for bench in EXTENSION_SUITE:
            assert bench.name not in names
        assert len(SUITE) == 18  # the Figure 3 inventory is untouched


class TestFPControlSwitch:
    @pytest.mark.parametrize(
        "arch,platform", [(ARM, VEXPRESS), (X86, PCPLAT)], ids=["arm", "x86"]
    )
    def test_runs_everywhere(self, runner, arch, platform):
        bench = FPControlSwitch()
        for simulator in ("simit", "qemu-dbt", "native"):
            result = run_cell(runner, bench, simulator, arch, platform, iterations=40)
            assert result.status == "ok", (simulator, result.error)
            assert result.operations == 80  # two FPCR writes per iteration

    def test_fpcr_restored_after_run(self, runner):
        from repro.machine import Board
        from repro.sim import FastInterpreter

        bench = FPControlSwitch()
        built = runner.harness.build_program(bench, ARM, VEXPRESS)
        board = Board(VEXPRESS)
        board.load(built.program)
        board.set_iterations(10)
        engine = FastInterpreter(board, arch=ARM)
        result = engine.run(max_insns=1_000_000)
        assert result.halted_ok
        assert board.cops.cp1.fpcr == 0x037F  # the reset/default value

    def test_expensive_on_x86_kvm(self, runner):
        """FP control writes are coprocessor traps on the x86 KVM model."""
        kvm = run_cell(
            runner, FPControlSwitch(), "qemu-kvm", X86, PCPLAT, iterations=40
        )
        dbt = run_cell(
            runner, FPControlSwitch(), "qemu-dbt", X86, PCPLAT, iterations=40
        )
        assert kvm.kernel_ns > dbt.kernel_ns


class TestContextSwitch:
    @pytest.mark.parametrize(
        "arch,platform", [(ARM, VEXPRESS), (X86, PCPLAT)], ids=["arm", "x86"]
    )
    def test_runs_everywhere(self, runner, arch, platform):
        bench = ContextSwitch()
        for simulator in ("simit", "qemu-dbt", "qemu-kvm", "native"):
            result = run_cell(runner, bench, simulator, arch, platform, iterations=30)
            assert result.status == "ok", (simulator, result.error)
            assert result.operations == 60  # 2 switches per iteration

    def test_untagged_interpreter_flushes_per_switch(self, runner):
        bench = ContextSwitch()
        result = run_cell(
            runner, bench, spec_for("simit", asid_tagged=False), ARM, VEXPRESS,
            iterations=100,
        )
        delta = result.kernel_delta
        # Every access after a switch misses: 2 switches x 4 pages.
        assert delta["tlb_misses"] >= 100 * 2 * ContextSwitch.WORKING_SET_PAGES - 8

    def test_tagged_interpreter_stays_warm(self, runner):
        bench = ContextSwitch()
        result = run_cell(
            runner, bench, spec_for("simit", asid_tagged=True), ARM, VEXPRESS,
            iterations=100,
        )
        delta = result.kernel_delta
        # Only the first pass under each ASID misses.
        assert delta["tlb_misses"] <= 2 * ContextSwitch.WORKING_SET_PAGES + 4
        assert delta["context_switches"] == 200

    def test_tagging_is_faster(self, runner):
        bench = ContextSwitch()
        untagged = run_cell(
            runner, bench, spec_for("simit", asid_tagged=False), ARM, VEXPRESS,
            iterations=100,
        )
        tagged = run_cell(
            runner, bench, spec_for("simit", asid_tagged=True), ARM, VEXPRESS,
            iterations=100,
        )
        assert tagged.kernel_ns < untagged.kernel_ns

    def test_dbt_asid_tagging(self, runner):
        bench = ContextSwitch()
        untagged = run_cell(
            runner, bench, spec_for("qemu-dbt", asid_tagged=False), ARM, VEXPRESS,
            iterations=100,
        )
        tagged = run_cell(
            runner, bench, spec_for("qemu-dbt", asid_tagged=True), ARM, VEXPRESS,
            iterations=100,
        )
        assert tagged.kernel_delta["tlb_misses"] < untagged.kernel_delta["tlb_misses"]
        assert tagged.kernel_ns < untagged.kernel_ns

    def test_asid_isolation_correctness(self, runner):
        """Entries cached under one ASID must not leak stale physical
        mappings into another (the tagged TLB keys must include the
        ASID)."""
        from repro.isa.assembler import assemble
        from repro.machine import Board
        from repro.sim import FastInterpreter

        # With MMU off the test is about the TLB structure only; use
        # the engine-level ASID switch path with tagged TLB and verify
        # the dtlb holds distinct per-ASID entries after the benchmark.
        bench = ContextSwitch()
        built = runner.harness.build_program(bench, ARM, VEXPRESS)
        board = Board(VEXPRESS)
        board.load(built.program)
        board.set_iterations(5)
        engine = FastInterpreter(board, arch=ARM, asid_tagged=True)
        result = engine.run(max_insns=1_000_000)
        assert result.halted_ok
        assert engine._dtlb.entries_for_asid(1) >= ContextSwitch.WORKING_SET_PAGES
        assert engine._dtlb.entries_for_asid(2) >= ContextSwitch.WORKING_SET_PAGES
