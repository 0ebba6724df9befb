"""Bit-identical guest behaviour with every host fast path toggled.

The fast-path subsystem (predecoded block interpretation in the
interpreters, translation memoization and the peephole pass pipeline
in the DBT engine, the persistent cross-run code cache) buys host
wallclock only: guest-visible counter deltas and modeled results must
be bit-for-bit identical with each layer on vs off, across the full
18-benchmark suite on both arch profiles.  Self-modifying code must invalidate
predecoded block lists exactly as it invalidates the decode cache.
"""

import pytest

from repro.arch import get_arch
from repro.core import SUITE, Harness
from repro.obs.metrics import METRICS
from repro.platform import get_platform
from repro.sim import DBTSimulator, FastInterpreter
from repro.sim.dbt import codestore
from repro.sim.dbt.translator import TRANSLATION_MEMO
from repro.sim.spec import spec_for
from tests.sim.util import reference_lowering, run_asm

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
        on = _observe(
            harness, bench, arch_name, spec_for("simit", use_block_cache=True)
        )
        off = _observe(
            harness, bench, arch_name, spec_for("simit", use_block_cache=False)
        )
        assert on == off

    def test_dbt_memoization(self, harness, bench, arch_name):
        TRANSLATION_MEMO.clear()
        on = _observe(harness, bench, arch_name, spec_for("qemu-dbt", memoize=True))
        TRANSLATION_MEMO.clear()
        off = _observe(harness, bench, arch_name, spec_for("qemu-dbt", memoize=False))
        assert on == off

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
        # memoize off forces every translate through the disk store.
        spec = spec_for("qemu-dbt", memoize=False)
        baseline = _observe(harness, bench, arch_name, spec)
        try:
            codestore.configure(str(tmp_path / "code"))
            cold = _observe(harness, bench, arch_name, spec)  # fills the store
            warm = _observe(harness, bench, arch_name, spec)  # loads from it
        finally:
            codestore.configure(None)
        assert cold == baseline
        assert warm == baseline


class TestHostFieldNeutrality:
    """Host-only knobs must not move structural identity: toggling
    them cannot change cache keys or dedup groups."""

    def test_interp_block_cache_is_host_only(self):
        on = spec_for("simit", use_block_cache=True)
        off = spec_for("simit", use_block_cache=False)
        assert on.structural_key() == off.structural_key()
        assert on.cache_key_payload() == off.cache_key_payload()
        assert on != off  # identity still distinguishes them

    def test_dbt_memoize_is_host_only(self):
        on = spec_for("qemu-dbt", memoize=True)
        off = spec_for("qemu-dbt", memoize=False)
        assert on.structural_key() == off.structural_key()
        assert on.cache_key_payload() == off.cache_key_payload()


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


class TestPredecodedBlockInvalidation:
    def test_smc_counters_identical_with_blocks(self):
        runs = {}
        for flag in (False, True):
            engine, board, res = run_asm(
                FastInterpreter, SMC_BODY, use_block_cache=flag
            )
            assert res.halted_ok
            assert board.cpu.regs[4] == 20
            runs[flag] = engine.counters.snapshot()
        assert runs[True] == runs[False]
        assert runs[True]["smc_invalidations"] >= 19

    def test_modified_code_takes_effect_in_replay(self):
        # The store to `f` must drop the predecoded block so the
        # second call replays the *patched* instruction.
        for flag in (False, True):
            engine, board, res = run_asm(
                FastInterpreter, PATCH_BODY, use_block_cache=flag
            )
            assert res.halted_ok
            assert board.cpu.regs[6] == 1
            assert board.cpu.regs[4] == 2


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
