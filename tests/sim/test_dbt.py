"""DBT engine structural tests: translation, chaining, SMC, caching,
and the inline softmmu hit path."""

import hashlib
import json
import os

import pytest

from repro.arch import ARM, X86
from repro.core import SUITE, get_benchmark
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.machine.mmu import AP_KERNEL_RW, AP_USER_RW, PageTableBuilder, make_page_entry
from repro.platform import PCPLAT, VEXPRESS
from repro.sim import DBTSimulator
from repro.sim.dbt import DBTConfig, TranslationCache, TranslatedBlock
from repro.sim.dbt.translator import Translator
from repro.sim.spec import as_engine_spec


def run_dbt(body, config=None, max_insns=200_000):
    source = ".org 0x8000\n_start:\n    li sp, 0x100000\n%s\n" % body
    board = Board(VEXPRESS)
    board.load(assemble(source))
    engine = DBTSimulator(board, arch=ARM, config=config)
    result = engine.run(max_insns=max_insns)
    return engine, board, result


class TestTranslation:
    def test_blocks_translated_once_for_hot_loop(self):
        engine, _board, res = run_dbt(
            """
    movi r1, 100
loop:
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
"""
        )
        assert res.halted_ok
        # Prologue block, loop block, exit block: a handful at most.
        assert engine.counters.translations <= 4
        assert engine.counters.block_executions >= 100

    def test_block_never_crosses_page(self):
        board = Board(VEXPRESS)
        prog = assemble(".org 0x8ff8\n_start:\n" + "    nop\n" * 8 + "    halt #0\n")
        board.load(prog)
        engine = DBTSimulator(board, arch=ARM)
        translator = Translator(engine.config)
        block = translator.translate(board.memory, 0x8FF8, 0x8FF8)
        assert block.insn_count == 2  # stops at the 0x9000 boundary

    def test_max_block_insns(self):
        board = Board(VEXPRESS)
        prog = assemble(".org 0x8000\n_start:\n" + "    nop\n" * 100 + "    halt #0\n")
        board.load(prog)
        config = DBTConfig(max_block_insns=16)
        translator = Translator(config)
        block = translator.translate(board.memory, 0x8000, 0x8000)
        assert block.insn_count == 16

    def test_generated_source_recorded(self):
        engine, _board, _res = run_dbt("    halt #0\n")
        cache = engine.translation_cache
        assert len(cache) >= 1


class TestChaining:
    def test_intra_page_loop_chains(self):
        engine, _board, _res = run_dbt(
            """
    movi r1, 50
loop:
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
"""
        )
        assert engine.counters.chain_follows > 40
        # Chained transitions bypass the dispatcher.
        assert engine.counters.slow_dispatches < 10

    def test_chaining_disabled(self):
        config = DBTConfig(chain_enabled=False)
        engine, _board, _res = run_dbt(
            """
    movi r1, 50
loop:
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
""",
            config=config,
        )
        assert engine.counters.chain_follows == 0
        assert engine.counters.slow_dispatches > 50

    def test_cross_page_direct_branch_not_chained(self):
        engine, _board, res = run_dbt(
            """
    movi r1, 30
loop:
    b far
back:
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
.page
far:
    b back
"""
        )
        assert res.halted_ok
        # The loop <-> far transitions cross pages: all dispatched.
        assert engine.counters.branches_direct_inter == 60
        assert engine.counters.slow_dispatches >= 60

    def test_cross_page_chaining_opt_in(self):
        config = DBTConfig(chain_cross_page=True)
        engine, _board, res = run_dbt(
            """
    movi r1, 30
loop:
    b far
back:
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
.page
far:
    b back
""",
            config=config,
        )
        assert res.halted_ok
        assert engine.counters.chain_follows > 50


class TestSelfModifyingCode:
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

    def test_rewrite_forces_retranslation(self):
        engine, board, res = run_dbt(self.SMC_BODY)
        assert res.halted_ok
        assert board.cpu.regs[4] == 20
        # Every iteration invalidates and retranslates the patched page.
        assert engine.counters.smc_invalidations >= 19
        assert engine.counters.translations >= 20
        assert engine.counters.code_writes >= 19

    def test_modified_code_takes_effect(self):
        # Patch the first word of `f` from `movi r4, 1` to `movi r4, 2`.
        engine, board, res = run_dbt(
            """
    bl f                   ; translate the original
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
        )
        assert res.halted_ok
        assert board.cpu.regs[6] == 1
        assert board.cpu.regs[4] == 2


class TestTranslationCache:
    def test_insert_and_get(self):
        cache = TranslationCache()
        block = TranslatedBlock(0x1000, 0x1000, 4, fn=lambda s: None)
        cache.insert(block)
        assert cache.get(0x1000, 0x1000) is block
        assert cache.get(0x1000, 0x2000) is None

    def test_invalidate_page(self):
        cache = TranslationCache()
        a = TranslatedBlock(0x1000, 0x1000, 4, fn=None)
        b = TranslatedBlock(0x1010, 0x1010, 4, fn=None)
        c = TranslatedBlock(0x2000, 0x2000, 4, fn=None)
        for block in (a, b, c):
            cache.insert(block)
        assert cache.invalidate_page(0x1) == 2
        assert not a.valid and not b.valid and c.valid
        assert cache.get(0x1000, 0x1000) is None
        assert cache.get(0x2000, 0x2000) is c

    def test_invalidation_clears_chain_slots(self):
        a = TranslatedBlock(0x1000, 0x1000, 4, fn=None)
        b = TranslatedBlock(0x1010, 0x1010, 4, fn=None)
        a.set_succ(0, b)
        b.invalidate()
        assert b.succ_taken is None
        assert not b.valid

    def test_capacity_overflow_flushes_everything(self):
        cache = TranslationCache(capacity=2)
        blocks = [TranslatedBlock(0x1000 * i, 0x1000 * i, 1, fn=None) for i in range(1, 4)]
        for block in blocks:
            cache.insert(block)
        assert cache.full_flushes == 1
        assert len(cache) == 1

    def test_reinsert_invalidates_old(self):
        cache = TranslationCache()
        old = TranslatedBlock(0x1000, 0x1000, 4, fn=None)
        new = TranslatedBlock(0x1000, 0x1000, 4, fn=None)
        cache.insert(old)
        cache.insert(new)
        assert not old.valid
        assert cache.get(0x1000, 0x1000) is new


class TestSoftmmuTLB:
    def test_tlb_flush_resets_slots(self):
        engine, _board, _res = run_dbt(
            """
    li r1, 0x2000000
    ldr r0, [r1]
    mcr r0, p15, c7
    ldr r0, [r1]
    halt #0
"""
        )
        # MMU is off here, so no TLB traffic -- but the flush op counts.
        assert engine.counters.tlb_flushes == 1

    def test_direct_mapped_conflicts(self):
        # Two pages whose vpage indices collide in a tiny 4-slot TLB.
        config = DBTConfig(tlb_bits=2)
        engine, _board, res = run_dbt(
            """
    li r0, 0x4000
    mcr r0, p15, c6        ; VBAR (unused but harmless)
    ; build page tables: one section mapping RAM 0..1MB identity
    li r0, 0x1000000
    li r1, 0x21           ; section entry, AP user RW? (AP=2: 0x20|0x1)
    str r1, [r0]
    li r1, 0x2000021      ; map vaddr 2MB -> 32MB region? keep identity:
    li r0, 0x1000000      ; overwritten below
    ; map sections for 0x00000000 and the two test pages' megabytes
    li r0, 0x1000000
    li r1, 0x0000021
    str r1, [r0]
    li r0, 0x1000008      ; L1 slot for 0x00200000
    li r1, 0x0200021
    str r1, [r0]
    ; enable MMU
    li r0, 0x1000000
    mcr r0, p15, c2        ; TTBR
    movi r0, 1
    mcr r0, p15, c1        ; SCTLR
    ; alternate accesses to 0x200000 and 0x204000 (vpages 0x200, 0x204
    ; collide modulo 4)
    li r1, 0x200000
    li r2, 0x204000
    movi r5, 16
ping:
    ldr r3, [r1]
    ldr r3, [r2]
    subi r5, r5, 1
    cmpi r5, 0
    bne ping
    halt #0
""",
            config=config,
        )
        assert res.halted_ok
        assert engine.counters.tlb_evictions >= 30
        assert engine.counters.tlb_misses >= 31


class TestDBTFeatureSummary:
    def test_matches_figure4_row(self):
        board = Board(VEXPRESS)
        engine = DBTSimulator(board, arch=ARM)
        summary = engine.feature_summary()
        assert summary["Execution Model"] == "DBT"
        assert summary["Control Flow (Intra-Page)"] == "Block Chaining"
        assert summary["Control Flow (Inter-Page)"] == "Block Cache"
        assert summary["Synchronous Exceptions"] == "Side Exit"

    def test_chaining_off_changes_summary(self):
        board = Board(VEXPRESS)
        engine = DBTSimulator(board, arch=ARM, config=DBTConfig(chain_enabled=False))
        assert engine.feature_summary()["Control Flow (Intra-Page)"] == "Block Cache"


# ----------------------------------------------------------------------
# Inline softmmu: the edge cases of the translated TLB hit path
# ----------------------------------------------------------------------
# Translated LDR/STR/LDRB/STRB probe the softmmu slot themselves and call
# a helper only when the hit path cannot serve them.  Each program below
# steers accesses through a slot that is already hot into a case the
# hit path must refuse.  Its registers, RAM, UART output and full
# counter snapshot must equal those recorded (by
# ``tests/sim/record_dbt_counters.py``) on the helper-only lowering the
# inline path replaced.

EDGE_TTBR = 0x0100_0000
EDGE_L2_POOL = 0x0101_0000
KERNEL_PAGE = 0x0020_0000  # kernel-only data
USER_PAGE = 0x0020_1000  # user data; the next vpage maps elsewhere
REMAP_PAGE = 0x0020_3000  # remapped by the guest in the MCR cases
MMIO_PAGE = 0x0040_0000  # the UART, mapped through the page tables
LOG_BASE = 0x0009_0000  # the abort handler's log of faulting PCs

#: (RAM base, length) windows whose bytes the outcome digests.
EDGE_RAM_WINDOWS = (
    (0x0000_0000, 0x10_0000),
    (0x0030_0000, 0x3_0000),
    (EDGE_TTBR, 0x1_2000),
)

_EDGE_HEADER = """
.org 0x4000
    b _start
    b bad
    b bad
    b bad
    b dab
    b bad
.org 0x8000
_start:
    li sp, 0xf0000
    li r12, 0x%(log)08x
    li r0, 0x4000
    mcr r0, p15, c6
    li r0, 0x%(ttbr)08x
    mcr r0, p15, c2
    movi r0, 1
    mcr r0, p15, c1
""" % {"log": LOG_BASE, "ttbr": EDGE_TTBR}

_EDGE_FOOTER = """
    halt #0
bad:
    halt #0xE0
dab:
    mrc r7, p15, c10        ; ELR: the faulting instruction
    str r7, [r12]
    mrc r8, p15, c5         ; FAR
    str r8, [r12, #4]
    addi r12, r12, 8
    addi r7, r7, 4
    mcr r7, p15, c10        ; skip it
    addi r9, r9, 1
    sret
"""

_EDGE_BODIES = {
    # Kernel fills the slot; the same slot then refuses user accesses.
    "user-store-kernel-page": """
    li r1, 0x%(kernel)08x
    movi r2, 5
    str r2, [r1]
    ldr r3, [r1]
    cps #0
    movi r2, 6
    str r2, [r1, #4]        ; user store: data abort
    ldr r4, [r1]            ; user load: data abort
    ldrb r5, [r1]           ; user byte load: data abort
    halt #0
""",
    # A data slot for the code page is hot before the store patches it.
    "smc-through-hot-slot": """
    li r1, patch
    ldr r6, [r1]            ; data-side slot for the code page
    bl patch                ; translate and run the original
    mov r4, r5
    li r2, template
    ldr r6, [r2]
    str r6, [r1]            ; patch: code write + SMC invalidation
    bl patch                ; runs the patched instruction
    li r2, 0x19500007       ; movi r5, 7: patch the low bytes by strb
    strb r2, [r1]
    lsri r2, r2, 8
    strb r2, [r1, #1]
    bl patch
    halt #0
template:
    movi r5, 2
.page
patch:
    movi r5, 1
    br lr
""",
    # The UART through a mapped page: every access is MMIO, even hot.
    "mmio-through-tlb": """
    li r1, 0x%(mmio)08x
    movi r2, 72
    str r2, [r1]
    ldr r3, [r1, #4]
    movi r2, 105
    strb r2, [r1]
    ldrb r4, [r1, #4]
    movi r2, 33
    str r2, [r1]
    halt #0
""",
    # One block: stale hit, flush, invalidate, ASID switch, MMU off/on.
    "mcr-in-block": """
    li r1, 0x%(remap)08x
    ldr r3, [r1]            ; fill: PHYS_A
    li r0, 0x%(l2)08x
    li r2, 0x%(entry_b)08x
    str r2, [r0]            ; remap to PHYS_B, no maintenance yet
    ldr r4, [r1]            ; stale hit: PHYS_A
    mcr r0, p15, c7         ; flush
    ldr r5, [r1]            ; miss: PHYS_B
    li r2, 0x%(entry_a)08x
    str r2, [r0]
    mcr r1, p15, c8         ; invalidate the page
    ldr r6, [r1]            ; miss: PHYS_A
    str r3, [r1, #4]
    movi r2, 1
    mcr r2, p15, c9         ; ASID 1
    ldr r7, [r1]
    str r7, [r1, #8]
    movi r2, 0
    mcr r2, p15, c9         ; ASID 0
    ldr r8, [r1, #4]
    mcr r2, p15, c1         ; MMU off
    ldr r9, [r1]            ; physical REMAP_PAGE
    str r8, [r1, #12]
    movi r2, 1
    mcr r2, p15, c1         ; MMU on
    ldr r10, [r1, #8]       ; hot slot again
    ldrb r11, [r1]
    halt #0
""",
    # Bytes, and a word straddling the end of a page.
    "bytes-and-page-straddle": """
    li r1, 0x%(user)08x
    li r2, 0xa1b2c3d4
    strb r2, [r1]
    ldrb r3, [r1]
    ldr r4, [r1]
    li r1, 0x%(straddle)08x
    str r2, [r1]            ; offset 0xffe: spills past the page
    ldr r5, [r1]
    ldrb r6, [r1, #1]
    ldrb r7, [r1, #2]
    li r2, 0x%(next)08x
    ldr r8, [r2]
    cps #0
    ldrb r10, [r1]          ; user mode, hot slot
    strb r3, [r1]
    ldr r11, [r1]
    halt #0
""",
}

_REMAP_L2 = EDGE_L2_POOL + 4 * ((REMAP_PAGE >> 12) & 0xFF)
_EDGE_VALUES = {
    "kernel": KERNEL_PAGE,
    "mmio": MMIO_PAGE,
    "remap": REMAP_PAGE,
    "l2": _REMAP_L2,
    "entry_a": make_page_entry(0x0031_0000, AP_USER_RW, xn=True),
    "entry_b": make_page_entry(0x0032_0000, AP_USER_RW, xn=True),
    "user": USER_PAGE,
    "straddle": USER_PAGE + 0xFFE,
    "next": USER_PAGE + 0x1000,
}

#: name -> (guest source, DBTConfig field overrides).
EDGE_CASES = {
    name: (_EDGE_HEADER + body % _EDGE_VALUES + _EDGE_FOOTER, {})
    for name, body in _EDGE_BODIES.items()
}
EDGE_CASES["mcr-in-block-asid-tagged"] = (EDGE_CASES["mcr-in-block"][0], {"asid_tagged": True})


def _edge_board():
    board = Board(VEXPRESS)
    builder = PageTableBuilder(board.memory, EDGE_TTBR, EDGE_L2_POOL)
    builder.map_section(0x0, 0x0, ap=AP_USER_RW)  # code, vectors, stack, log
    builder.map_section(EDGE_TTBR, EDGE_TTBR, ap=AP_KERNEL_RW, xn=True)
    builder.map_page(KERNEL_PAGE, 0x0030_0000, ap=AP_KERNEL_RW, xn=True)
    builder.map_page(USER_PAGE, 0x0030_1000, ap=AP_USER_RW, xn=True)
    # Not physically adjacent to USER_PAGE's frame.
    builder.map_page(USER_PAGE + 0x1000, 0x0030_8000, ap=AP_USER_RW, xn=True)
    builder.map_page(REMAP_PAGE, 0x0031_0000, ap=AP_USER_RW, xn=True)
    builder.map_page(MMIO_PAGE, VEXPRESS.uart_base, ap=AP_USER_RW, xn=True)
    for paddr, value in (
        (0x0030_2000, 0x5EC0_0001),  # the byte past the straddle's frame
        (0x0030_8000, 0x0BAD_F00D),
        (0x0031_0000, 0xAAAA_1111),
        (0x0032_0000, 0xBBBB_2222),
        (REMAP_PAGE, 0xCCCC_3333),
    ):
        board.memory.write32(paddr, value)
    return board


def edge_outcome(name):
    """Run edge case ``name`` on qemu-dbt; return its JSON-able outcome."""
    source, fields = EDGE_CASES[name]
    board = _edge_board()
    board.load(assemble(source))
    engine = DBTSimulator(board, arch=ARM, config=DBTConfig(**fields))
    result = engine.run(max_insns=100_000)
    ram = hashlib.sha256()
    for base, length in EDGE_RAM_WINDOWS:
        ram.update(board.memory.read_bytes(base, length))
    return dict(_outcome(engine, board, result), ram_sha256=ram.hexdigest())


FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "dbt_counters.json")
FIXTURE_ITERATIONS = 20
_FIXTURE_ARCHES = {"arm": (ARM, VEXPRESS), "x86": (X86, PCPLAT)}


def benchmark_keys():
    """``arch/benchmark`` for every benchmark effective on each arch."""
    return [
        "%s/%s" % (arch_name, bench.name)
        for arch_name, (arch, _platform) in _FIXTURE_ARCHES.items()
        for bench in SUITE
        if bench.effective(arch)
    ]


def benchmark_outcome(key):
    """Run one benchmark for ``FIXTURE_ITERATIONS`` on qemu-dbt."""
    arch_name, name = key.split("/", 1)
    arch, platform = _FIXTURE_ARCHES[arch_name]
    board = Board(platform)
    board.load(get_benchmark(name).build(arch, platform).program)
    board.set_iterations(FIXTURE_ITERATIONS)
    engine = as_engine_spec("qemu-dbt").build(board, arch)
    result = engine.run(max_insns=50_000_000)
    return _outcome(engine, board, result)


def _outcome(engine, board, result):
    return {
        "exit": result.exit_reason.value,
        "halt_code": result.halt_code,
        "cpu": list(board.cpu.snapshot()),
        "uart": board.uart.text,
        "counters": engine.counters.snapshot(),
    }


def _recorded():
    with open(FIXTURE) as fh:
        return json.load(fh)


def _jsonable(outcome):
    return json.loads(json.dumps(outcome))


class TestInlineSoftmmuEdgeCases:
    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_matches_helper_lowering(self, name):
        outcome = _jsonable(edge_outcome(name))
        assert outcome["exit"] == "halt" and outcome["halt_code"] == 0
        assert outcome == _recorded()["edge_cases"][name]

    def test_user_store_to_hot_kernel_slot_aborts(self):
        outcome = edge_outcome("user-store-kernel-page")
        counters = outcome["counters"]
        assert counters["data_aborts"] == 3
        # One fill each for the kernel page and the handler's log: every
        # user access was refused by the hot kernel-page slot.
        assert counters["tlb_misses"] == 2
        regs = outcome["cpu"][0]
        assert regs[3] == 5
        assert regs[9] == 3

    def test_smc_through_hot_slot(self):
        outcome = edge_outcome("smc-through-hot-slot")
        counters = outcome["counters"]
        assert counters["code_writes"] == 3
        # The second byte store lands on a page already invalidated.
        assert counters["smc_invalidations"] == 2
        regs = outcome["cpu"][0]
        assert (regs[4], regs[5]) == (1, 7)

    def test_mmio_page_goes_through_helper(self):
        outcome = edge_outcome("mmio-through-tlb")
        counters = outcome["counters"]
        assert (counters["mmio_writes"], counters["mmio_reads"]) == (3, 2)
        assert outcome["uart"] == "Hi!"

    @pytest.mark.parametrize("name", ["mcr-in-block", "mcr-in-block-asid-tagged"])
    def test_mcr_in_block_retargets_next_load(self, name):
        regs = edge_outcome(name)["cpu"][0]
        assert regs[3:7] == (0xAAAA1111, 0xAAAA1111, 0xBBBB2222, 0xAAAA1111)
        assert regs[9] == 0xCCCC3333  # MMU off: physical
        assert regs[10] == regs[8] == 0xAAAA1111


class TestParentCounterIdentity:
    """qemu-dbt's full counter snapshot on every benchmark and arch is
    the one recorded for the fixture."""

    @pytest.mark.parametrize("key", benchmark_keys())
    def test_benchmark_counters(self, key):
        expected = _recorded()["benchmarks"][key]
        assert _jsonable(benchmark_outcome(key)) == expected
