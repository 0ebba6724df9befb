"""Shared helpers for engine tests."""

import contextlib

import pytest

from repro.arch import ARM
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.platform import VEXPRESS
from repro.sim import (
    DBTSimulator,
    DetailedInterpreter,
    FastInterpreter,
    NativeMachine,
    VirtSimulator,
)
from repro.sim.dbt import codestore, passes
from repro.sim.dbt.translator import TRANSLATION_MEMO

ALL_ENGINES = (
    FastInterpreter,
    DBTSimulator,
    DetailedInterpreter,
    VirtSimulator,
    NativeMachine,
)

CODE_BASE = 0x8000


def bare_program(body):
    """Assemble a bare program (MMU off): ``body`` runs at 0x8000 with
    sp preset; it must end with ``halt``."""
    return assemble(".org 0x%x\n_start:\n    li sp, 0x100000\n%s\n" % (CODE_BASE, body))


def run_asm(engine_cls, body, platform=VEXPRESS, arch=ARM, max_insns=200_000, **kwargs):
    """Run :func:`bare_program` of ``body`` on an engine.

    Returns (engine, board, run_result).
    """
    board = Board(platform)
    board.load(bare_program(body))
    engine = engine_cls(board, arch=arch, **kwargs)
    result = engine.run(max_insns=max_insns)
    return engine, board, result


def run_on_all(body, **kwargs):
    """Run the same program on every engine; returns {name: (engine, board, result)}."""
    return {cls.name: run_asm(cls, body, **kwargs) for cls in ALL_ENGINES}


@contextlib.contextmanager
def reference_lowering():
    """Lower DBT blocks with the peephole ``PIPELINE`` emptied.

    The lifted IR emitted without passes is the reference the passes
    are checked against.  Neither the translation memo nor the code
    store keys on the pipeline, so the memo is cleared on entry and
    exit and the code store is bypassed while the reference is active.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(passes, "PIPELINE", ())
        patch.setattr(codestore, "active", lambda: None)
        TRANSLATION_MEMO.clear()
        try:
            yield
        finally:
            TRANSLATION_MEMO.clear()


def _dbt_outcome(program, platform, arch, max_insns):
    board = Board(platform)
    board.load(program)
    engine = DBTSimulator(board, arch=arch)
    result = engine.run(max_insns=max_insns)
    outcome = (
        result.exit_reason,
        result.halt_code,
        board.cpu.snapshot(),
        board.uart.text,
        engine.counters.snapshot(),
    )
    return outcome, board


def ram_equal(a, b):
    """Whether two RAM regions hold the same bytes.

    Compares 64 KiB slices at a time, so neither 64 MiB image is ever
    copied whole.
    """
    chunk = 1 << 16
    if len(a.data) != len(b.data):
        return False
    return all(
        a.data[i : i + chunk] == b.data[i : i + chunk]
        for i in range(0, len(a.data), chunk)
    )


def assert_pipeline_neutral(program, platform=VEXPRESS, arch=ARM, max_insns=100_000):
    """Run ``program`` on the DBT with the full pass pipeline and with
    it emptied: registers, RAM, UART output and every counter must be
    identical."""
    optimized, opt_board = _dbt_outcome(program, platform, arch, max_insns)
    with reference_lowering():
        reference, ref_board = _dbt_outcome(program, platform, arch, max_insns)
    diverged = [
        "0x%08x" % opt_ram.base
        for opt_ram, ref_ram in zip(
            opt_board.memory.ram_regions, ref_board.memory.ram_regions
        )
        if not ram_equal(opt_ram, ref_ram)
    ]
    # Drop the boards before asserting: a failure's traceback would
    # otherwise pin both RAM images while Hypothesis shrinks.
    del opt_board, ref_board
    assert optimized == reference
    assert not diverged, "RAM diverged in the regions at %s" % ", ".join(diverged)
