"""The RAM word path on every engine, with the MMU off and on.

Engines read and write aligned guest words through each RAM region's
native word view and take byte slices only for unaligned words (see
:class:`~repro.machine.memory.RamRegion`).  The programs below put
words where the two paths meet: at byte offsets 1-3, at page offsets
0xFFC and 0xFFE (the latter spilling into the next page), and at the
last word of the RAM region, each with LDRB/STRB beside it.

Every engine must agree on registers, RAM and UART output, and each
engine's full outcome -- counter snapshot included -- must equal the
one ``tests/sim/record_word_access.py`` recorded before the word view
replaced byte slices.
"""

import hashlib
import json
import os

import pytest

from repro.arch import ARM
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.machine.mmu import AP_USER_RW, PageTableBuilder
from repro.platform import VEXPRESS
from tests.sim.util import ALL_ENGINES, ram_equal

TTBR = 0x0100_0000
L2_POOL = 0x0101_0000
DATA = 0x0020_0000  # virtual data page; the next vpage maps elsewhere
DATA_FRAME = 0x0030_1000
NEXT_FRAME = 0x0030_8000
RAM_END = VEXPRESS.ram_base + VEXPRESS.ram_size
LAST_SECTION = RAM_END - 0x10_0000

#: (RAM base, length) windows whose bytes the outcome digests.
RAM_WINDOWS = (
    (0x0000_0000, 0x10_0000),
    (0x0030_0000, 0x1_0000),
    (RAM_END - 0x1000, 0x1000),
)

_HEADER = """
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
    li r0, 0x4000
    mcr r0, p15, c6
"""

#: Appended to the header when the case runs with the MMU on.
_MMU_ON = """
    li r0, 0x%08x
    mcr r0, p15, c2
    movi r0, 1
    mcr r0, p15, c1
""" % TTBR

_FOOTER = """
    halt #0
bad:
    halt #0xE0
dab:
    mrc r11, p15, c10       ; ELR: the faulting instruction
    addi r11, r11, 4
    mcr r11, p15, c10       ; skip it
    addi r12, r12, 1
    sret
"""

_BODIES = {
    # Words at byte offsets 1, 2 and 3 of a word, bytes beside them.
    "unaligned": """
    li r1, 0x%(data)08x
    li r2, 0xa1b2c3d4
    li r3, 0x11223344
    str r3, [r1]
    str r3, [r1, #4]
    str r3, [r1, #8]
    str r2, [r1, #1]
    ldr r4, [r1, #1]
    ldrb r5, [r1, #2]
    str r2, [r1, #6]
    ldr r6, [r1, #6]
    strb r3, [r1, #7]
    ldr r7, [r1, #5]
    str r2, [r1, #11]
    ldr r8, [r1, #11]
    ldrb r9, [r1, #12]
    strb r2, [r1, #9]
    ldr r10, [r1, #8]
""",
    # The last words of a page; the one at 0xffe spills into the
    # physically next frame.
    "page-end": """
    li r1, 0x%(page_end)08x
    li r2, 0xa1b2c3d4
    li r3, 0x11223344
    str r2, [r1]
    ldr r4, [r1]
    ldrb r5, [r1, #3]
    strb r3, [r1, #1]
    ldr r6, [r1]
    str r3, [r1, #2]
    ldr r7, [r1, #2]
    ldrb r8, [r1, #4]
    strb r2, [r1, #5]
    ldr r9, [r1, #4]
    ldr r10, [r1, #3]
""",
    # The last word of the RAM region.
    "ram-end": """
    li r1, 0x%(ram_end)08x
    li r2, 0xa1b2c3d4
    li r3, 0x11223344
    str r2, [r1]
    ldr r4, [r1]
    strb r3, [r1, #3]
    ldrb r5, [r1, #3]
    ldr r6, [r1]
    ldrb r7, [r1]
    str r3, [r1, #-4]
    ldr r8, [r1, #-2]
    ldrb r9, [r1, #-1]
""",
}

_VALUES = {"data": DATA, "page_end": DATA + 0xFFC, "ram_end": RAM_END - 4}

CASES = sorted(_BODIES)
MMU = ("mmu-off", "mmu-on")


def _board(mmu):
    board = Board(VEXPRESS)
    if mmu == "mmu-on":
        builder = PageTableBuilder(board.memory, TTBR, L2_POOL)
        builder.map_section(0x0, 0x0, ap=AP_USER_RW)  # code, vectors, stack
        builder.map_page(DATA, DATA_FRAME, ap=AP_USER_RW, xn=True)
        # Not physically adjacent to DATA's frame.
        builder.map_page(DATA + 0x1000, NEXT_FRAME, ap=AP_USER_RW, xn=True)
        builder.map_section(LAST_SECTION, LAST_SECTION, ap=AP_USER_RW, xn=True)
    for paddr, value in (
        (DATA_FRAME + 0x1000, 0x5EC0_0001),  # the word past DATA's frame
        (NEXT_FRAME, 0x0BAD_F00D),
        (DATA + 0x1000, 0x0DDB_A11D),  # the frame past DATA with the MMU off
    ):
        board.memory.write32(paddr, value)
    return board


def source(case, mmu, bodies=_BODIES):
    header = _HEADER + (_MMU_ON if mmu == "mmu-on" else "")
    return header + bodies[case] % _VALUES + _FOOTER


def run_case(engine_cls, case, mmu, bodies=_BODIES):
    """Run one case; returns ``(board, JSON-able outcome)``."""
    board = _board(mmu)
    board.load(assemble(source(case, mmu, bodies)))
    engine = engine_cls(board, arch=ARM)
    result = engine.run(max_insns=100_000)
    ram = hashlib.sha256()
    for base, length in RAM_WINDOWS:
        ram.update(board.memory.read_bytes(base, length))
    outcome = {
        "exit": result.exit_reason.value,
        "halt_code": result.halt_code,
        "cpu": list(board.cpu.snapshot()),
        "uart": board.uart.text,
        "counters": engine.counters.snapshot(),
        "ram_sha256": ram.hexdigest(),
    }
    return board, json.loads(json.dumps(outcome))


FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "word_access.json")


def fixture_key(engine_cls, case, mmu):
    return "%s/%s/%s" % (engine_cls.name, case, mmu)


def _recorded():
    with open(FIXTURE) as fh:
        return json.load(fh)


def _assert_engines_agree(case, mmu, bodies=_BODIES):
    runs = {cls.name: run_case(cls, case, mmu, bodies) for cls in ALL_ENGINES}
    (ref_name, (ref_board, ref)), *others = runs.items()
    for name, (board, outcome) in others:
        what = "%s vs %s on %s/%s" % (name, ref_name, case, mmu)
        assert outcome["exit"] == ref["exit"], what
        assert outcome["halt_code"] == ref["halt_code"], what
        assert outcome["cpu"] == ref["cpu"], what
        assert outcome["uart"] == ref["uart"], what
        (ram,), (ref_ram,) = board.memory.ram_regions, ref_board.memory.ram_regions
        assert ram_equal(ram, ref_ram), what
    return runs


@pytest.mark.parametrize("mmu", MMU)
@pytest.mark.parametrize("case", CASES)
def test_engines_agree(case, mmu):
    runs = _assert_engines_agree(case, mmu)
    outcome = next(iter(runs.values()))[1]
    assert outcome["exit"] == "halt" and outcome["halt_code"] == 0
    # No access faulted: the abort handler never ran.
    assert outcome["cpu"][0][12] == 0


@pytest.mark.parametrize("mmu", MMU)
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("engine_cls", ALL_ENGINES, ids=lambda cls: cls.name)
def test_matches_recorded_outcome(engine_cls, case, mmu):
    _board, outcome = run_case(engine_cls, case, mmu)
    assert outcome == _recorded()[fixture_key(engine_cls, case, mmu)]


#: Words that straddle the end of the RAM region: each faults (bus
#: error) on every engine, and the bytes and word beside them do not.
_STRADDLE = {
    "ram-end-straddle": """
    li r1, 0x%(ram_end)08x
    li r2, 0xa1b2c3d4
    str r2, [r1]
    ldr r4, [r1, #2]
    str r2, [r1, #1]
    ldrb r5, [r1, #3]
    ldr r6, [r1, #3]
    strb r2, [r1, #3]
    ldr r7, [r1]
""",
}


@pytest.mark.parametrize("mmu", MMU)
def test_word_past_the_end_of_ram_faults(mmu):
    runs = _assert_engines_agree("ram-end-straddle", mmu, _STRADDLE)
    for name, (_board, outcome) in runs.items():
        regs = outcome["cpu"][0]
        assert outcome["halt_code"] == 0, name
        assert regs[12] == 3, name  # three bus faults, skipped
        assert outcome["counters"]["data_aborts"] == 3, name
        assert (regs[4], regs[6]) == (0, 0), name
        assert (regs[5], regs[7]) == (0xA1, 0xD4B2C3D4), name
