"""TLB coherence under guest-driven remapping.

The guest rewrites its own page tables (mapping the same virtual page
to a different physical page), issues the architectural TLB
maintenance operation, and reads through the remapped address.  After
a flush/invalidate every engine must observe the *new* mapping --
stale-TLB reads past a maintenance operation would be a correctness
bug in any of the TLB structures (SoftTLB, set-associative, softmmu
array, ASID-tagged).
"""

import pytest

from repro.arch import ARM
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.machine.mmu import AP_USER_RW, PageTableBuilder, make_page_entry
from repro.platform import VEXPRESS
from tests.sim.util import ALL_ENGINES

TTBR = 0x0100_0000
L2_POOL = 0x0101_0000

VPAGE = 0x0020_0000  # the virtual page being remapped
PHYS_A = 0x0030_0000
PHYS_B = 0x0031_0000

_NEW_ENTRY = make_page_entry(PHYS_B, AP_USER_RW, xn=True)


def _program(maintenance_op):
    """Map VPAGE->PHYS_A, read, remap to PHYS_B, maintain, read again."""
    return """
.org 0x4000
    b _start
    b bad
    b bad
    b bad
    b bad
    b bad
.org 0x8000
_start:
    li sp, 0xf0000
    li r0, 0x4000
    mcr r0, p15, c6
    li r0, 0x%(ttbr)08x
    mcr r0, p15, c2
    movi r0, 1
    mcr r0, p15, c1
    li r11, 0x%(vpage)08x
    ldr r4, [r11]            ; reads PHYS_A's value (fills the TLB)
    ; rewrite the L2 entry to point at PHYS_B
    li r0, 0x%(l2_addr)08x
    li r1, 0x%(new_entry)08x
    str r1, [r0]
%(maintenance)s
    ldr r5, [r11]            ; must observe PHYS_B's value
    halt #0
bad:
    halt #0xE0
""" % {
        "ttbr": TTBR,
        "vpage": VPAGE,
        "l2_addr": L2_POOL + 4 * ((VPAGE >> 12) & 0xFF),
        "new_entry": _NEW_ENTRY,
        "maintenance": maintenance_op,
    }


def _board():
    board = Board(VEXPRESS)
    builder = PageTableBuilder(board.memory, TTBR, L2_POOL)
    # Identity-map low RAM (code/stack) and the page-table region so
    # the guest can edit its own tables.
    builder.map_section(0x0, 0x0, ap=AP_USER_RW)
    builder.map_section(0x0100_0000, 0x0100_0000, ap=AP_USER_RW, xn=True)
    builder.map_page(VPAGE, PHYS_A, ap=AP_USER_RW, xn=True)
    board.memory.write32(PHYS_A, 0xAAAA1111)
    board.memory.write32(PHYS_B, 0xBBBB2222)
    return board


@pytest.fixture(params=ALL_ENGINES, ids=[cls.name for cls in ALL_ENGINES])
def engine_cls(request):
    return request.param


class TestRemapCoherence:
    def test_full_flush_exposes_new_mapping(self, engine_cls):
        source = _program("    mcr r0, p15, c7    ; TLBFLUSH")
        board = _board()
        board.load(assemble(source))
        engine = engine_cls(board, arch=ARM)
        result = engine.run(max_insns=100_000)
        assert result.halted_ok
        assert board.cpu.regs[4] == 0xAAAA1111
        assert board.cpu.regs[5] == 0xBBBB2222

    def test_single_entry_invalidate_exposes_new_mapping(self, engine_cls):
        source = _program("    mcr r11, p15, c8   ; TLBIMVA on the page")
        board = _board()
        board.load(assemble(source))
        engine = engine_cls(board, arch=ARM)
        result = engine.run(max_insns=100_000)
        assert result.halted_ok
        assert board.cpu.regs[5] == 0xBBBB2222

    def test_asid_tagged_interpreter_flush(self):
        from repro.sim import FastInterpreter

        source = _program("    mcr r0, p15, c7")
        board = _board()
        board.load(assemble(source))
        engine = FastInterpreter(board, arch=ARM, asid_tagged=True)
        result = engine.run(max_insns=100_000)
        assert result.halted_ok
        assert board.cpu.regs[5] == 0xBBBB2222

    def test_dbt_asid_tagged_flush(self):
        from repro.sim import DBTSimulator
        from repro.sim.spec import DBTSpec

        source = _program("    mcr r0, p15, c7")
        board = _board()
        board.load(assemble(source))
        engine = DBTSimulator(board, arch=ARM, spec=DBTSpec(asid_tagged=True))
        result = engine.run(max_insns=100_000)
        assert result.halted_ok
        assert board.cpu.regs[5] == 0xBBBB2222


class TestWallclockOrdering:
    def test_detailed_engine_is_really_slower(self):
        """Wall-clock sanity: the detailed interpreter genuinely costs
        more host time than the fast interpreter on the same guest."""
        import time

        from repro.sim import DetailedInterpreter, FastInterpreter

        source = """
.org 0x8000
_start:
    li r1, 3000
loop:
    addi r2, r2, 1
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
"""
        program = assemble(source)
        times = {}
        for cls in (FastInterpreter, DetailedInterpreter):
            board = Board(VEXPRESS)
            board.load(program)
            engine = cls(board, arch=ARM)
            start = time.perf_counter()
            result = engine.run(max_insns=100_000)
            times[cls.name] = time.perf_counter() - start
            assert result.halted_ok
        assert times["gem5"] > 2 * times["simit"]
