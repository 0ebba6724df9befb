"""Bit-identical guest behaviour on every host fast path.

The fast-path subsystem (predecoded block replay in the functional
core, translation memoization and the peephole pass pipeline in the
DBT engine, the persistent cross-run code cache) buys host wallclock
only: guest-visible counter deltas and modeled results must be
bit-for-bit identical to the slow path it replaces, across the full
18-benchmark suite on both arch profiles.  None of them is an engine
option: replay is compared with per-instruction stepping forced by a
no-op ``_pre_execute`` hook, the memo with a cleared memo, the passes
with an emptied pipeline.  Self-modifying code must invalidate
predecoded block lists exactly as it invalidates the decode cache.
"""

import pytest

from repro.arch import ARM, get_arch
from repro.core import SUITE, Harness
from repro.exp.manifest import Manifest
from repro.machine import Board
from repro.obs.metrics import METRICS
from repro.platform import VEXPRESS, get_platform
from repro.sim import DBTSimulator, DetailedInterpreter, FastInterpreter, NativeMachine
from repro.sim.dbt import codestore
from repro.sim.dbt.translator import TRANSLATION_MEMO
from repro.sim.spec import spec_for
from tests.sim.util import (
    REPLAY_ENGINES,
    bare_program,
    reference_lowering,
    run_asm,
    stepping_engines,
)

ITERATIONS = 2
_PLATFORM = {"arm": "vexpress", "x86": "pcplat"}
ARCH_NAMES = ("arm", "x86")
BENCH_IDS = [bench.name for bench in SUITE]
#: Pass statistics that must be non-zero over the pipeline sweep, so
#: its equivalence cannot pass vacuously.
PASS_CENSUS = ("dbt.insns_folded", "dbt.stores_elided", "dbt.pairs_fused")


@pytest.fixture(scope="module")
def harness():
    # Shared across the module so benchmark programs build once.
    return Harness()


@pytest.fixture(scope="module")
def pipeline_sweep(harness):
    """Every benchmark on both arches on the DBT, lowered with the full
    pass pipeline and with it emptied (the reference lowering).

    Returns ``({(bench, arch): (optimized, reference)}, census)``; the
    census sums the pass statistics METRICS recorded while lowering
    the optimized runs.
    """
    spec = spec_for("qemu-dbt")
    observations = {}
    METRICS.reset()
    METRICS.enable()
    try:
        for bench in SUITE:
            for arch_name in ARCH_NAMES:
                TRANSLATION_MEMO.clear()
                optimized = _observe(harness, bench, arch_name, spec)
                with reference_lowering():
                    reference = _observe(harness, bench, arch_name, spec)
                observations[bench.name, arch_name] = (optimized, reference)
        counters = METRICS.snapshot()["counters"]
    finally:
        METRICS.enable(False)
        METRICS.reset()
    census = {name: counters.get(name, 0) for name in PASS_CENSUS}
    return observations, census


def _observe(harness, bench, arch_name, spec):
    """Everything guest-visible about one run: the execution record
    (minus host wallclock) and the modeled kernel time."""
    arch = get_arch(arch_name)
    platform = get_platform(_PLATFORM[arch_name])
    record = harness.execute_benchmark(
        bench, spec, arch, platform, iterations=ITERATIONS
    )
    payload = record.to_payload()
    payload.pop("kernel_wall_ns")
    result = harness.price_record(
        record, bench, spec, arch, platform, iterations=ITERATIONS
    )
    return payload, result.kernel_ns


@pytest.mark.parametrize("arch_name", ARCH_NAMES)
@pytest.mark.parametrize("bench", SUITE, ids=BENCH_IDS)
class TestToggleEquivalence:
    def test_interp_block_cache(self, harness, bench, arch_name):
        # Predecoded-block replay against per-instruction stepping on
        # every engine that replays.
        for sim in ("simit", "native", "qemu-kvm"):
            spec = spec_for(sim)
            replayed = _observe(harness, bench, arch_name, spec)
            with stepping_engines():
                stepped = _observe(harness, bench, arch_name, spec)
            assert replayed == stepped, sim

    def test_dbt_memoization(self, harness, bench, arch_name):
        spec = spec_for("qemu-dbt")
        TRANSLATION_MEMO.clear()
        cold = _observe(harness, bench, arch_name, spec)
        warm = _observe(harness, bench, arch_name, spec)  # memo hits
        assert warm == cold

    def test_dbt_pass_pipeline(self, pipeline_sweep, bench, arch_name):
        # The peephole passes rearrange host code only: every
        # guest-visible counter and the modeled time must be
        # bit-identical to the reference lowering.
        optimized, reference = pipeline_sweep[0][bench.name, arch_name]
        assert optimized == reference

    def test_metrics_toggle(self, harness, bench, arch_name):
        # The observability layer records host-side phases/counters
        # only: guest-visible counters and modeled time must be
        # bit-identical with metrics enabled vs disabled, on both the
        # interpreter and the DBT engine.
        for sim in ("simit", "qemu-dbt"):
            spec = spec_for(sim)
            METRICS.reset()
            METRICS.enable(False)
            off = _observe(harness, bench, arch_name, spec)
            try:
                METRICS.enable()
                on = _observe(harness, bench, arch_name, spec)
            finally:
                METRICS.enable(False)
                METRICS.reset()
            assert on == off

    def test_dbt_persistent_store(self, harness, bench, arch_name, tmp_path):
        # Clearing the memo before each pass sends every first
        # translate of a block through the disk store.
        spec = spec_for("qemu-dbt")
        TRANSLATION_MEMO.clear()
        baseline = _observe(harness, bench, arch_name, spec)
        try:
            codestore.configure(str(tmp_path / "code"))
            TRANSLATION_MEMO.clear()
            cold = _observe(harness, bench, arch_name, spec)  # fills the store
            TRANSLATION_MEMO.clear()
            warm = _observe(harness, bench, arch_name, spec)  # loads from it
        finally:
            codestore.configure(None)
        assert cold == baseline
        assert warm == baseline


class TestNoHostKnobs:
    """The host fast paths are not engine options: naming one is the
    same unknown-option error as any other misspelt field."""

    @pytest.mark.parametrize(
        "engine, option",
        [("simit", "use_block_cache"), ("qemu-dbt", "memoize")],
    )
    def test_spec_rejects_removed_option(self, engine, option):
        with pytest.raises(ValueError, match="unknown engine option"):
            spec_for(engine, **{option: False})

    def test_manifest_rejects_removed_option(self, tmp_path):
        path = tmp_path / "memo-off.toml"
        path.write_text(
            "[manifest]\nschema = 1\nname = \"memo-off\"\n\n"
            "[[grid]]\narch = \"arm\"\n"
            "engines = [{ engine = \"qemu-dbt\", fields = { memoize = false } }]\n"
            "benchmarks = [\"system-call\"]\n"
        )
        with pytest.raises(ValueError, match="unknown engine option"):
            Manifest.load(path)


class TestPassCensus:
    def test_every_pass_fires_over_the_sweep(self, pipeline_sweep):
        census = pipeline_sweep[1]
        for name in PASS_CENSUS:
            assert census[name] > 0, "%s never fired over the sweep" % name


SMC_BODY = """
    movi r5, 20
outer:
    li r0, patchme
    li r1, 0
    str r1, [r0]          ; rewrite the nop with a nop
    bl patchme
    subi r5, r5, 1
    cmpi r5, 0
    bne outer
    halt #0
.page
patchme:
    nop
    addi r4, r4, 1
    br lr
"""

PATCH_BODY = """
    bl f                   ; predecode the original
    mov r6, r4
    li r0, f
    li r1, 0x19400002      ; movi r4, 2
    str r1, [r0]
    bl f
    halt #0
.page
f:
    movi r4, 1
    br lr
"""


@pytest.mark.parametrize(
    "engine_cls", [FastInterpreter, NativeMachine], ids=["simit", "native"]
)
class TestPredecodedBlockInvalidation:
    def test_smc_counters_identical_with_blocks(self, engine_cls):
        runs = {}
        for step in (False, True):
            engine, board, res = run_asm(engine_cls, SMC_BODY, step=step)
            assert res.halted_ok
            assert board.cpu.regs[4] == 20
            runs[step] = engine.counters.snapshot()
        assert runs[False] == runs[True]
        assert runs[False]["smc_invalidations"] >= 19

    def test_modified_code_takes_effect_in_replay(self, engine_cls):
        # The store to `f` must drop the predecoded block so the
        # second call replays the *patched* instruction.
        for step in (False, True):
            engine, board, res = run_asm(engine_cls, PATCH_BODY, step=step)
            assert res.halted_ok
            assert board.cpu.regs[6] == 1
            assert board.cpu.regs[4] == 2


LOOP_BODY = """
    movi r1, 10
loop:
    addi r2, r2, 1
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
"""


class TestReplayCondition:
    """Replay runs exactly when the decode cache is on and nothing
    watches each instruction; there is no option to turn it off."""

    @pytest.mark.parametrize(
        "engine_cls", REPLAY_ENGINES, ids=[cls.name for cls in REPLAY_ENGINES]
    )
    def test_replays_unless_hooked(self, engine_cls):
        replayed, board, res = run_asm(engine_cls, LOOP_BODY)
        assert res.halted_ok and board.cpu.regs[2] == 10
        assert replayed._block_pages  # the loop body was recorded
        stepped, board, res = run_asm(engine_cls, LOOP_BODY, step=True)
        assert res.halted_ok and board.cpu.regs[2] == 10
        assert not stepped._block_pages
        assert stepped.counters.snapshot() == replayed.counters.snapshot()

    def test_gem5_steps(self):
        # No decode cache and a subclass _pre_execute: never replays.
        engine, board, res = run_asm(DetailedInterpreter, LOOP_BODY)
        assert res.halted_ok and board.cpu.regs[2] == 10
        assert engine._pre_execute_hooked()
        assert not engine._block_pages

    def test_hook_sees_each_instruction_after_the_bump(self):
        # _step calls the hook between the instructions bump and
        # dispatch: the count already includes the instruction, and
        # the pc has not moved on yet.
        board = Board(VEXPRESS)
        board.load(bare_program(LOOP_BODY))
        engine = FastInterpreter(board, arch=ARM)
        seen = []
        engine._pre_execute = lambda insn, pc: seen.append(
            (engine.counters.instructions, pc, engine.cpu.pc)
        )
        res = engine.run(max_insns=10_000)
        assert res.halted_ok and board.cpu.regs[2] == 10
        assert [count for count, _, _ in seen] == list(
            range(1, engine.counters.instructions + 1)
        )
        assert all(pc == cpu_pc for _, pc, cpu_pc in seen)


class TestRetranslationCounter:
    def test_smc_rewrite_counts_retranslations(self):
        # Rewriting a nop with a nop re-creates byte-identical blocks:
        # after the first translation every one is a retranslation.
        engine, board, res = run_asm(DBTSimulator, SMC_BODY)
        assert res.halted_ok
        assert engine.counters.translations >= 20
        assert engine.counters.retranslations >= 18
        assert engine.counters.retranslations < engine.counters.translations

    def test_patched_block_is_not_a_retranslation(self):
        # Here the rewritten block has *different* bytes, so the
        # second translation of `f` is fresh, not a retranslation.
        engine, board, res = run_asm(DBTSimulator, PATCH_BODY)
        assert res.halted_ok
        assert engine.counters.retranslations == 0
