"""Helpers for compiling and executing MiniC in tests."""

from repro.arch import ARM
from repro.isa.assembler import assemble
from repro.lang import compile_minic
from repro.machine import Board
from repro.platform import VEXPRESS
from repro.sim import FastInterpreter

RESULT_ADDR = 0x0200_0000


def minic_image(source, args=()):
    """Compile MiniC and assemble it bare-metal behind a stub that calls
    ``main`` once with ``args`` (at most 4) and stores its return value
    to ``RESULT_ADDR``."""
    unit = compile_minic(source)
    lines = [".org 0x8000", "_start:", "    li sp, 0x100000"]
    if "init" in unit.functions:
        lines.append("    bl %s" % unit.entry_label("init"))
    for index, value in enumerate(args):
        lines.append("    li r%d, 0x%08x" % (index, value & 0xFFFFFFFF))
    lines.append("    bl %s" % unit.entry_label("main"))
    lines.append("    li r1, 0x%08x" % RESULT_ADDR)
    lines.append("    str r0, [r1]")
    lines.append("    halt #0")
    return assemble("\n".join(lines) + "\n" + unit.text_asm + unit.data_asm)


def run_minic(source, args=(), engine_cls=FastInterpreter, max_insns=2_000_000):
    """Compile and run MiniC bare-metal; returns (main's result, board)."""
    board = Board(VEXPRESS)
    board.load(minic_image(source, args))
    engine = engine_cls(board, arch=ARM)
    result = engine.run(max_insns=max_insns)
    if not result.halted_ok:
        raise AssertionError("MiniC program did not halt cleanly: %r" % result)
    return board.memory.read32(RESULT_ADDR), board


def read_global(board, unit_or_source, name, count=None):
    """Read a compiled global back from guest memory."""
    unit = (
        unit_or_source
        if hasattr(unit_or_source, "globals_map")
        else compile_minic(unit_or_source)
    )
    addr, size = unit.globals_map[name]
    if count is None and size is None:
        return board.memory.read32(addr)
    n = count if count is not None else size
    return [board.memory.read32(addr + 4 * i) for i in range(n)]
