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
from repro.sim.spec import EngineSpec

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


#: The functional-core engines that replay predecoded blocks unless a
#: per-instruction hook is attached.
REPLAY_ENGINES = (FastInterpreter, NativeMachine, VirtSimulator)


def force_stepping(engine):
    """Attach a no-op instance ``_pre_execute`` hook, as the Tracer
    does, so :meth:`FunctionalCore.run` steps one instruction at a time
    instead of replaying predecoded blocks.  Returns ``engine``."""
    engine._pre_execute = lambda insn, pc: None
    return engine


@contextlib.contextmanager
def stepping_engines():
    """Every engine an :class:`EngineSpec` builds while active gets
    :func:`force_stepping` -- for runs that go through the harness."""
    build = EngineSpec.build

    def build_stepping(spec, board, arch=None):
        return force_stepping(build(spec, board, arch))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EngineSpec, "build", build_stepping)
        yield


def run_asm(
    engine_cls,
    body,
    platform=VEXPRESS,
    arch=ARM,
    max_insns=200_000,
    step=False,
    **kwargs,
):
    """Run :func:`bare_program` of ``body`` on an engine; ``step``
    forces per-instruction stepping (:func:`force_stepping`).

    Returns (engine, board, run_result).
    """
    board = Board(platform)
    board.load(bare_program(body))
    engine = engine_cls(board, arch=arch, **kwargs)
    if step:
        force_stepping(engine)
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


def _outcome(engine_cls, program, platform, arch, max_insns, step=False):
    board = Board(platform)
    board.load(program)
    engine = engine_cls(board, arch=arch)
    if step:
        force_stepping(engine)
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


def _assert_same_run(run, reference, what):
    """Compare two ``(outcome, board)`` pairs: exit, registers, UART,
    every counter, and RAM."""
    (outcome, board), (ref_outcome, ref_board) = run, reference
    diverged = [
        "0x%08x" % ram.base
        for ram, ref_ram in zip(board.memory.ram_regions, ref_board.memory.ram_regions)
        if not ram_equal(ram, ref_ram)
    ]
    assert outcome == ref_outcome, what
    assert not diverged, "%s: RAM diverged in the regions at %s" % (
        what,
        ", ".join(diverged),
    )


def assert_pipeline_neutral(program, platform=VEXPRESS, arch=ARM, max_insns=100_000):
    """Run ``program`` on the DBT with the full pass pipeline and with
    it emptied: registers, RAM, UART output and every counter must be
    identical."""
    optimized = _outcome(DBTSimulator, program, platform, arch, max_insns)
    with reference_lowering():
        reference = _outcome(DBTSimulator, program, platform, arch, max_insns)
    _assert_same_run(optimized, reference, "qemu-dbt passes")


def assert_replay_neutral(program, platform=VEXPRESS, arch=ARM, max_insns=100_000):
    """Run ``program`` on every replaying engine with predecoded-block
    replay and with per-instruction stepping: registers, RAM, UART
    output and every counter must be identical."""
    for engine_cls in REPLAY_ENGINES:
        replayed = _outcome(engine_cls, program, platform, arch, max_insns)
        stepped = _outcome(engine_cls, program, platform, arch, max_insns, step=True)
        _assert_same_run(replayed, stepped, "%s replay" % engine_cls.name)
