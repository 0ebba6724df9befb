"""Debugger tests."""

import pytest

from repro.arch import ARM
from repro.errors import IncompatibleEngineError
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.platform import VEXPRESS
from repro.sim import DBTSimulator, FastInterpreter
from repro.sim.debug import (
    Debugger,
    STOP_BREAKPOINT,
    STOP_HALT,
    STOP_LIMIT,
    STOP_STEP,
    STOP_WATCHPOINT,
)

PROGRAM = """
.org 0x8000
_start:
    movi r1, 5
    li r6, 0x2000000
loop:
    addi r2, r2, 10
    str r2, [r6]
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
done:
    halt #0
"""


@pytest.fixture
def debugger():
    board = Board(VEXPRESS)
    program = assemble(PROGRAM)
    board.load(program)
    engine = FastInterpreter(board, arch=ARM)
    dbg = Debugger(engine)
    dbg.program = program
    return dbg


class TestBreakpoints:
    def test_stop_at_breakpoint(self, debugger):
        loop = debugger.program.symbol("loop")
        debugger.add_breakpoint(loop)
        assert debugger.cont() == STOP_BREAKPOINT
        assert debugger.engine.cpu.pc == loop
        # Nothing of the loop body ran yet.
        assert debugger.read_registers()["r2"] == 0

    def test_resume_skips_current_breakpoint(self, debugger):
        loop = debugger.program.symbol("loop")
        debugger.add_breakpoint(loop)
        assert debugger.cont() == STOP_BREAKPOINT
        # Each cont() runs one full loop iteration back to the head.
        assert debugger.cont() == STOP_BREAKPOINT
        assert debugger.read_registers()["r2"] == 10
        assert debugger.cont() == STOP_BREAKPOINT
        assert debugger.read_registers()["r2"] == 20

    def test_remove_breakpoint(self, debugger):
        loop = debugger.program.symbol("loop")
        debugger.add_breakpoint(loop)
        debugger.cont()
        debugger.remove_breakpoint(loop)
        assert debugger.cont() == STOP_HALT
        assert debugger.read_registers()["r2"] == 50

    def test_run_to_halt_without_breakpoints(self, debugger):
        assert debugger.cont() == STOP_HALT

    def test_limit(self, debugger):
        # No breakpoints, tiny budget.
        assert debugger.cont(max_insns=3) == STOP_LIMIT

    def test_hits_history(self, debugger):
        loop = debugger.program.symbol("loop")
        debugger.add_breakpoint(loop)
        debugger.cont()
        assert debugger.hits[0][0] == STOP_BREAKPOINT
        assert debugger.hits[0][1] == loop


class TestWatchpoints:
    def test_stop_after_watched_store(self, debugger):
        debugger.add_watchpoint(0x2000000)
        assert debugger.cont() == STOP_WATCHPOINT
        # The store completed (GDB semantics) ...
        assert debugger.read_memory(0x2000000, 1) == [10]
        # ... and we stopped at the instruction after it.
        assert "subi" in debugger.where()

    def test_watchpoint_detail(self, debugger):
        debugger.add_watchpoint(0x2000000)
        debugger.cont()
        reason, _pc, detail = debugger.hits[0]
        assert reason == STOP_WATCHPOINT
        assert detail == (0x2000000, 10)

    def test_repeated_watch_hits(self, debugger):
        debugger.add_watchpoint(0x2000000)
        count = 0
        while debugger.cont() == STOP_WATCHPOINT:
            count += 1
        assert count == 5


class TestStepping:
    def test_single_step(self, debugger):
        assert debugger.step() == STOP_STEP
        assert debugger.read_registers()["r1"] == 5
        assert debugger.engine.cpu.pc == 0x8004

    def test_step_counts(self, debugger):
        debugger.step(3)  # movi + li (2 words)
        assert debugger.read_registers()["r6"] == 0x2000000

    def test_step_through_breakpoint(self, debugger):
        debugger.add_breakpoint(0x8004)
        assert debugger.step(5) == STOP_STEP  # breakpoints ignored while stepping

    def test_step_to_halt(self, debugger):
        assert debugger.step(1000) == STOP_HALT


class TestInspection:
    def test_where_disassembles(self, debugger):
        assert debugger.where() == "0x00008000: movi r1, #5"

    def test_read_registers(self, debugger):
        registers = debugger.read_registers()
        assert registers["pc"] == 0x8000
        assert set(registers) >= {"r0", "r15", "pc", "psr", "elr", "spsr"}

    def test_write_register(self, debugger):
        debugger.write_register("r1", 123)
        assert debugger.read_registers()["r1"] == 123
        debugger.write_register("pc", 0x8004)
        assert debugger.engine.cpu.pc == 0x8004
        with pytest.raises(KeyError):
            debugger.write_register("cr3", 1)

    def test_counters_unskewed_by_breakpoint(self, debugger):
        """A breakpoint stop must not count the unexecuted instruction."""
        loop = debugger.program.symbol("loop")
        debugger.add_breakpoint(loop)
        debugger.cont()
        at_break = debugger.engine.counters.instructions
        debugger.remove_breakpoint(loop)
        debugger.cont()
        plain_board = Board(VEXPRESS)
        plain_board.load(debugger.program)
        plain = FastInterpreter(plain_board, arch=ARM)
        plain.run(max_insns=10_000)
        assert debugger.engine.counters.instructions == plain.counters.instructions
        assert at_break == 3  # movi + li (2 words)

    def test_rejects_dbt(self):
        board = Board(VEXPRESS)
        board.load(assemble(PROGRAM))
        with pytest.raises(IncompatibleEngineError, match="supports_insn_trace"):
            Debugger(DBTSimulator(board, arch=ARM))

    def test_detach_restores_hooks(self, debugger):
        engine = debugger.engine
        original_pre = engine._pre_execute
        original_write = engine._mem_write
        debugger.cont(max_insns=2)
        assert engine._pre_execute == original_pre
        assert engine._mem_write == original_write

    def test_detach_reenables_block_replay(self, debugger):
        # The hooks live on the engine only while the debugger runs it;
        # afterwards a plain engine.run replays predecoded blocks.
        engine = debugger.engine
        debugger.cont(max_insns=2)
        assert not engine._pre_execute_hooked()
        assert engine.run(max_insns=10_000).halted_ok
        assert engine._block_pages
