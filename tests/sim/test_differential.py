"""Differential testing: all engines must implement identical
architectural semantics.

Hypothesis generates random guest programs (straight-line ALU work,
memory traffic, branches, and small loops) and asserts that every
engine produces the same final register file, memory contents and UART
output.  A DBT arm also runs every program with the peephole pass
pipeline on and emptied, and asserts the full counter snapshot matches
too: random shapes hit constant folding and pair fusion far harder
than the fixed benchmarks do.  A replay arm runs every program on the
replaying functional-core engines with predecoded-block replay and with
per-instruction stepping, and asserts the same.
"""

from hypothesis import given, settings, strategies as st

from repro.arch import ARM
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.platform import VEXPRESS
from tests.sim.util import (
    ALL_ENGINES,
    assert_pipeline_neutral,
    assert_replay_neutral,
)

_WORK_REGS = ("r1", "r2", "r3", "r4", "r5")

_reg = st.sampled_from(_WORK_REGS)
_imm = st.integers(min_value=0, max_value=0xFFFF)
_shift = st.integers(min_value=0, max_value=31)

_alu3 = st.sampled_from(["add", "sub", "and", "orr", "eor", "mul", "udiv", "urem"])
_alui = st.sampled_from(["addi", "subi", "andi", "orri", "eori", "muli"])


@st.composite
def straight_line_insn(draw):
    kind = draw(st.integers(min_value=0, max_value=5))
    if kind == 0:
        return "    %s %s, %s, %s" % (draw(_alu3), draw(_reg), draw(_reg), draw(_reg))
    if kind == 1:
        return "    %s %s, %s, %d" % (draw(_alui), draw(_reg), draw(_reg), draw(_imm))
    if kind == 2:
        return "    movi %s, %d" % (draw(_reg), draw(_imm))
    if kind == 3:
        return "    movt %s, %d" % (draw(_reg), draw(_imm))
    if kind == 4:
        return "    %s %s, %s, %d" % (
            draw(st.sampled_from(["lsli", "lsri", "asri"])),
            draw(_reg),
            draw(_reg),
            draw(_shift),
        )
    return "    mvn %s, %s" % (draw(_reg), draw(_reg))


@st.composite
def memory_insn(draw):
    slot = draw(st.integers(min_value=0, max_value=15))
    reg = draw(_reg)
    if draw(st.booleans()):
        return "    str %s, [r6, #%d]" % (reg, 4 * slot)
    return "    ldr %s, [r6, #%d]" % (reg, 4 * slot)


@st.composite
def address_pair(draw):
    """An ADDI computing a base right before the access that uses it:
    the shape the DBT's address-pair fusion targets."""
    base = draw(_reg)
    offset = 4 * draw(st.integers(min_value=0, max_value=15))
    access = draw(st.sampled_from(["ldr", "str"]))
    return "    addi %s, r6, %d\n    %s %s, [%s]" % (
        base,
        offset,
        access,
        draw(_reg),
        base,
    )


_branch = st.sampled_from(
    ["beq", "bne", "blt", "bge", "ble", "bgt", "blo", "bhs", "bmi", "bpl"]
)


@st.composite
def compare_insn(draw):
    if draw(st.booleans()):
        return "    cmp %s, %s" % (draw(_reg), draw(_reg))
    return "    cmpi %s, %d" % (draw(_reg), draw(_imm))


@st.composite
def pass_shaped_program(draw):
    """A program shaped for the DBT's peephole passes: registers seeded
    with constants for folding, overwritten defs and flags for dead
    code elimination, address pairs and compare+branch pairs for
    fusion, and flags that stay live across a block boundary."""
    lines = [".org 0x8000", "_start:", "    li r6, 0x2000000"]
    for reg in draw(st.lists(_reg, unique=True)):
        lines.append("    movi %s, %d" % (reg, draw(_imm)))
    lines += draw(
        st.lists(
            st.one_of(
                straight_line_insn(), memory_insn(), address_pair(), compare_insn()
            ),
            min_size=8,
            max_size=40,
        )
    )
    lines.append(draw(compare_insn()))
    lines.append("    %s skip" % draw(_branch))
    lines += draw(st.lists(straight_line_insn(), max_size=3))
    lines += ["skip:", "    %s done" % draw(_branch), "    movi r5, 7", "done:"]
    lines.append("    halt #0")
    return "\n".join(lines) + "\n"


def _run_everywhere(source):
    outcomes = {}
    for engine_cls in ALL_ENGINES:
        board = Board(VEXPRESS)
        board.load(assemble(source))
        engine = engine_cls(board, arch=ARM)
        result = engine.run(max_insns=100_000)
        data = board.memory.read_bytes(0x0200_0000, 64)
        outcomes[engine_cls.name] = (
            result.exit_reason,
            result.halt_code,
            board.cpu.snapshot(),
            data,
            board.uart.text,
        )
    return outcomes


def _assert_agreement(outcomes):
    reference_name = next(iter(outcomes))
    reference = outcomes[reference_name]
    for name, outcome in outcomes.items():
        assert outcome == reference, "%s diverged from %s" % (name, reference_name)


def _check(source):
    """Every engine agrees, the DBT's passes change nothing, and
    neither does predecoded-block replay."""
    _assert_agreement(_run_everywhere(source))
    program = assemble(source)
    assert_pipeline_neutral(program)
    assert_replay_neutral(program)


class TestStraightLine:
    @settings(max_examples=30, deadline=None)
    @given(insns=st.lists(straight_line_insn(), min_size=1, max_size=40))
    def test_alu_programs_agree(self, insns):
        source = ".org 0x8000\n_start:\n" + "\n".join(insns) + "\n    halt #0\n"
        _check(source)

    @settings(max_examples=20, deadline=None)
    @given(
        insns=st.lists(
            st.one_of(straight_line_insn(), memory_insn(), address_pair()),
            min_size=1,
            max_size=30,
        )
    )
    def test_memory_programs_agree(self, insns):
        source = (
            ".org 0x8000\n_start:\n    li r6, 0x2000000\n"
            + "\n".join(insns)
            + "\n    halt #0\n"
        )
        _check(source)


class TestPassShapes:
    @settings(max_examples=40, deadline=None)
    @given(source=pass_shaped_program())
    def test_pass_shaped_programs_agree(self, source):
        _check(source)


class TestLoops:
    @settings(max_examples=15, deadline=None)
    @given(
        body=st.lists(straight_line_insn(), min_size=1, max_size=10),
        count=st.integers(min_value=1, max_value=30),
    )
    def test_counted_loops_agree(self, body, count):
        source = (
            ".org 0x8000\n_start:\n    movi r7, %d\nloop:\n" % count
            + "\n".join(body)
            + "\n    subi r7, r7, 1\n    cmpi r7, 0\n    bne loop\n    halt #0\n"
        )
        _check(source)

    @settings(max_examples=10, deadline=None)
    @given(
        selector=st.integers(min_value=0, max_value=0xFFFF),
        cond=st.sampled_from(["beq", "bne", "blt", "bge", "blo", "bhs"]),
    )
    def test_conditional_paths_agree(self, selector, cond):
        source = """
.org 0x8000
_start:
    movi r1, %d
    cmpi r1, 0x8000
    %s taken
    movi r2, 111
    halt #0
taken:
    movi r2, 222
    halt #0
""" % (selector, cond)
        _check(source)


class TestInstructionCountsAgree:
    @settings(max_examples=10, deadline=None)
    @given(insns=st.lists(straight_line_insn(), min_size=1, max_size=20))
    def test_retired_instruction_counts_match(self, insns):
        source = ".org 0x8000\n_start:\n" + "\n".join(insns) + "\n    halt #0\n"
        counts = {}
        for engine_cls in ALL_ENGINES:
            board = Board(VEXPRESS)
            board.load(assemble(source))
            engine = engine_cls(board, arch=ARM)
            engine.run(max_insns=100_000)
            counts[engine_cls.name] = engine.counters.instructions
        values = set(counts.values())
        assert len(values) == 1, counts
