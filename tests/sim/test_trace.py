"""Execution-tracer tests."""

import pytest

from repro.arch import ARM
from repro.errors import IncompatibleEngineError
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.platform import VEXPRESS
from repro.sim import DBTSimulator, FastInterpreter
from repro.sim.trace import Tracer, trace_blocks

PROGRAM = """
.org 0x8000
_start:
    movi r1, 3
loop:
    addi r2, r2, 5
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
"""


def _engine(cls):
    board = Board(VEXPRESS)
    board.load(assemble(PROGRAM))
    return cls(board, arch=ARM)


class TestTracer:
    def test_records_every_instruction(self):
        engine = _engine(FastInterpreter)
        with Tracer(engine) as tracer:
            result = engine.run(max_insns=1000)
        assert result.halted_ok
        assert len(tracer.records) == engine.counters.instructions
        assert tracer.records[0].pc == 0x8000
        assert "movi r1, #3" in tracer.records[0].text

    def test_trace_follows_control_flow(self):
        engine = _engine(FastInterpreter)
        with Tracer(engine) as tracer:
            engine.run(max_insns=1000)
        pcs = tracer.pcs()
        # The loop head (0x8004) executes three times.
        assert pcs.count(0x8004) == 3

    def test_limit_and_truncation(self):
        engine = _engine(FastInterpreter)
        with Tracer(engine, limit=5) as tracer:
            engine.run(max_insns=1000)
        assert len(tracer.records) == 5
        assert tracer.truncated

    def test_detach_restores_engine(self):
        engine = _engine(FastInterpreter)
        tracer = Tracer(engine)
        original = engine._pre_execute
        tracer.attach()
        assert engine._pre_execute != original
        tracer.detach()
        assert engine._pre_execute == original

    def test_detach_reenables_block_replay(self):
        # An attached hook makes the engine step; after detach it must
        # count as unhooked again and replay predecoded blocks.
        engine = _engine(FastInterpreter)
        with Tracer(engine):
            assert engine._pre_execute_hooked()
        assert not engine._pre_execute_hooked()
        assert engine.run(max_insns=1000).halted_ok
        assert engine._block_pages

    def test_double_attach_rejected(self):
        engine = _engine(FastInterpreter)
        tracer = Tracer(engine).attach()
        with pytest.raises(RuntimeError):
            tracer.attach()
        tracer.detach()

    def test_summary_histogram(self):
        engine = _engine(FastInterpreter)
        with Tracer(engine) as tracer:
            engine.run(max_insns=1000)
        summary = tracer.summary()
        assert summary["addi"] == 3
        assert summary["halt"] == 1

    def test_rejects_dbt_engine(self):
        # IncompatibleEngineError subclasses TypeError, so legacy
        # callers that caught TypeError keep working.
        with pytest.raises(IncompatibleEngineError, match="supports_insn_trace"):
            Tracer(_engine(DBTSimulator))

    def test_text_rendering(self):
        engine = _engine(FastInterpreter)
        with Tracer(engine) as tracer:
            engine.run(max_insns=1000)
        text = tracer.text()
        assert "0x00008000" in text


class TestBlockTrace:
    def test_block_stream(self):
        engine = _engine(DBTSimulator)
        records, result = trace_blocks(engine, run_kwargs={"max_insns": 1000})
        assert result.halted_ok
        # The first iteration runs inside the entry block (0x8000...),
        # the remaining two via the loop-head block at 0x8004.
        loop_blocks = [r for r in records if r.vaddr == 0x8004]
        assert len(loop_blocks) == 2
        assert sum(r.insn_count for r in records) >= engine.counters.instructions

    def test_rejects_interpreter(self):
        with pytest.raises(IncompatibleEngineError, match="supports_block_trace"):
            trace_blocks(_engine(FastInterpreter))
