"""MMU-enabled differential tests across all engines.

Page tables are prepared host-side via PageTableBuilder, the MMU is
enabled through CP15, and randomised guest programs then hit mapped
and unmapped pages with a skip-on-fault handler installed.  All five
engines must agree on the final architectural state, and the walker's
view must match the mapping we constructed.
"""

from hypothesis import given, settings, strategies as st

from repro.arch import ARM
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.machine.mmu import (
    AP_USER_RW,
    AccessType,
    Fault,
    PageTableBuilder,
    PageTableWalker,
)
from repro.platform import VEXPRESS
from repro.sim import DBTSimulator
from tests.sim.util import ALL_ENGINES

TTBR = 0x0100_0000
L2_POOL = 0x0101_0000

_HEADER = """
.org 0x4000
    b _start
    b skip
    b skip
    b skip
    b dab
    b skip
.org 0x8000
_start:
    li sp, 0xf0000
    li r0, 0x4000
    mcr r0, p15, c6
    li r0, 0x%08x
    mcr r0, p15, c2
    movi r0, 1
    mcr r0, p15, c1
""" % TTBR

_FOOTER = """
    halt #0
skip:
    halt #0xE9
dab:
    mrc r8, p15, c10
    addi r8, r8, 4
    mcr r8, p15, c10
    addi r9, r9, 1
    sret
"""


def _prepare_board():
    """A board with identity-mapped low RAM plus a sparse data window."""
    board = Board(VEXPRESS)
    builder = PageTableBuilder(board.memory, TTBR, L2_POOL)
    builder.map_section(0x0, 0x0, ap=AP_USER_RW)  # code, vectors, stack
    return board, builder

# Eight candidate data pages at 0x02000000 + k*4KiB; a subset is mapped.
DATA_BASE = 0x0200_0000


#: Byte offsets into a data page: aligned and unaligned words at its
#: start, and the last words, whose unaligned forms spill into the
#: next page.
OFFSETS = (0, 1, 2, 3, 0x7FE, 0xFFC, 0xFFD, 0xFFE, 0xFFF)

#: Access kinds: mnemonic and whether it stores.
KINDS = (("ldr", False), ("str", True), ("ldrb", False), ("strb", True))


def _body_for(accesses):
    lines = []
    for index, (page, kind, offset) in enumerate(accesses):
        mnemonic, is_store = KINDS[kind]
        addr = DATA_BASE + page * 0x1000 + offset
        lines.append("    li r1, 0x%08x" % addr)
        if is_store:
            lines.append("    li r2, 0x%08x" % (0x01010101 * (index + 1) ^ 0x80402010))
            lines.append("    %s r2, [r1]" % mnemonic)
        else:
            lines.append("    %s r3, [r1]" % mnemonic)
            lines.append("    add r4, r4, r3")
    return "\n".join(lines)


@settings(max_examples=15, deadline=None)
@given(
    mapped=st.sets(st.integers(min_value=0, max_value=7), max_size=8),
    accesses=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=len(KINDS) - 1),
            st.sampled_from(OFFSETS),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_engines_agree_under_mmu(mapped, accesses):
    source = _HEADER + _body_for(accesses) + _FOOTER
    program = assemble(source)
    outcomes = {}
    for engine_cls in ALL_ENGINES:
        board, builder = _prepare_board()
        for page in mapped:
            builder.map_page(DATA_BASE + page * 0x1000, DATA_BASE + page * 0x1000,
                             ap=AP_USER_RW, xn=True)
        board.load(program)
        engine = engine_cls(board, arch=ARM)
        result = engine.run(max_insns=100_000)
        if engine_cls is DBTSimulator:
            # Every access runs with the MMU on, so each one is exactly
            # one softmmu hit or one miss, inline or in a helper.
            c = engine.counters
            assert c.loads + c.stores == c.tlb_hits + c.tlb_misses
        data = board.memory.read_bytes(DATA_BASE, 8 * 0x1000)
        outcomes[engine_cls.name] = (
            result.exit_reason,
            result.halt_code,
            board.cpu.snapshot(),
            engine.counters.data_aborts,
            data,
        )
    reference = next(iter(outcomes.values()))
    for name, outcome in outcomes.items():
        assert outcome == reference, "engine %s diverged" % name
    # Sanity: the abort count equals the number of unmapped accesses.
    unmapped_accesses = sum(1 for page, _k, _o in accesses if page not in mapped)
    assert reference[3] == unmapped_accesses


@settings(max_examples=30, deadline=None)
@given(
    pages=st.dictionaries(
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
        max_size=16,
    ),
    probe=st.integers(min_value=0, max_value=31),
)
def test_walker_matches_constructed_mapping(pages, probe):
    """Property: the walker translates exactly the mapping the builder
    constructed, and faults everywhere else."""
    board, builder = _prepare_board()
    walker = PageTableWalker(board.memory)
    for vpage, ppage in pages.items():
        builder.map_page(DATA_BASE + vpage * 0x1000, DATA_BASE + ppage * 0x1000)
    vaddr = DATA_BASE + probe * 0x1000 + 0x123
    if probe in pages:
        result = walker.walk(TTBR, vaddr, AccessType.READ, True)
        assert result.paddr == DATA_BASE + pages[probe] * 0x1000 + 0x123
        assert result.levels == 2
    else:
        try:
            walker.walk(TTBR, vaddr, AccessType.READ, True)
        except Fault:
            pass
        else:
            raise AssertionError("expected a translation fault")
