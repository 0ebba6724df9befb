"""Engine edge cases: execute-from-device, XN/permission faults through
the full fetch path, privilege interactions, cross arch/platform combos.
"""

import pytest

from repro.arch import ARM, X86
from repro.core import ExperimentRunner, get_benchmark
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.machine.mmu import AP_KERNEL_RW, AP_USER_RW, PageTableBuilder
from repro.platform import PCPLAT, VEXPRESS
from repro.sim import DBTSimulator, FastInterpreter
from tests.runs import run_cell
from tests.sim.util import ALL_ENGINES, run_asm

TTBR = 0x0100_0000
L2_POOL = 0x0101_0000


def _mmu_program(extra_setup="", body="    halt #0", data_region=""):
    return """
.org 0x4000
    b _start
    b bad
    b bad
    b pab
    b dab
    b bad
.org 0x8000
_start:
    li sp, 0xf0000
    li r0, 0x4000
    mcr r0, p15, c6
    li r0, 0x%08x
    mcr r0, p15, c2
    movi r0, 1
    mcr r0, p15, c1
%s
%s
bad:
    halt #0xE0
pab:
    halt #0xE1
dab:
    halt #0xE2
%s
""" % (TTBR, extra_setup, body, data_region)


def _run_with_tables(engine_cls, source, table_setup, max_insns=100_000):
    board = Board(VEXPRESS)
    builder = PageTableBuilder(board.memory, TTBR, L2_POOL)
    table_setup(builder)
    board.load(assemble(source))
    engine = engine_cls(board, arch=ARM)
    return engine, board, engine.run(max_insns=max_insns)


@pytest.fixture(params=ALL_ENGINES, ids=[cls.name for cls in ALL_ENGINES])
def engine_cls(request):
    return request.param


class TestFetchEdgeCases:
    def test_execute_from_device_is_prefetch_abort(self, engine_cls):
        # MMU off: jump straight at the UART.
        _e, _b, res = run_asm(
            engine_cls,
            """
    li r0, 0x4000
    mcr r0, p15, c6
    li r1, 0xf0000000
    blr r1
    halt #0xBB
.org 0x4000
    b _start
    b h
    b h
    b p
    b h
    b h
h:
    halt #0xE0
p:
    halt #0xAA
""",
        )
        assert res.halt_code == 0xAA

    def test_execute_from_xn_page_faults(self, engine_cls):
        source = _mmu_program(
            body="""
    li r1, 0x00200000
    blr r1
    halt #0xBB
"""
        )

        def tables(builder):
            builder.map_section(0x0, 0x0, ap=AP_USER_RW)
            builder.map_page(0x0020_0000, 0x0020_0000, ap=AP_USER_RW, xn=True)

        _e, _b, res = _run_with_tables(engine_cls, source, tables)
        assert res.halt_code == 0xE1  # prefetch abort handler

    def test_user_access_to_kernel_page_faults(self, engine_cls):
        source = _mmu_program(
            body="""
    li r11, 0x00200000
    cps #0               ; drop to user mode
    ldr r1, [r11]        ; kernel-only page: permission fault
    halt #0xBB
"""
        )

        def tables(builder):
            builder.map_section(0x0, 0x0, ap=AP_USER_RW)
            builder.map_page(0x0020_0000, 0x0020_0000, ap=AP_KERNEL_RW, xn=True)

        _e, _b, res = _run_with_tables(engine_cls, source, tables)
        assert res.halt_code == 0xE2  # data abort handler

    def test_nonpriv_load_faults_on_kernel_page_even_in_kernel_mode(self, engine_cls):
        source = _mmu_program(
            body="""
    li r11, 0x00200000
    ldr r1, [r11]        ; kernel access: fine
    ldrt r2, [r11]       ; user-privilege access: faults
    halt #0xBB
"""
        )

        def tables(builder):
            builder.map_section(0x0, 0x0, ap=AP_USER_RW)
            builder.map_page(0x0020_0000, 0x0020_0000, ap=AP_KERNEL_RW, xn=True)

        _e, _b, res = _run_with_tables(engine_cls, source, tables)
        assert res.halt_code == 0xE2


class TestCrossCombos:
    """Arch profiles and platforms are orthogonal: the ARM profile on
    the PC-style platform (and vice versa) must work unchanged."""

    @pytest.mark.parametrize(
        "arch,platform",
        [(ARM, PCPLAT), (X86, VEXPRESS)],
        ids=["arm-on-pcplat", "x86-on-vexpress"],
    )
    def test_cross_combo_suite_sample(self, arch, platform):
        runner = ExperimentRunner()
        for name in ("System Call", "Hot Memory Access", "TLB Flush"):
            result = run_cell(
                runner, get_benchmark(name), "simit", arch, platform, iterations=20
            )
            assert result.status == "ok", (name, result.error)


class TestStorePaths:
    def test_store_to_translated_page_under_mmu(self):
        """DBT: SMC invalidation must work through the softmmu path
        (store via a *virtual* address into translated code)."""
        source = _mmu_program(
            body="""
    bl f
    mov r6, r4
    li r0, f
    li r1, 0x19400002    ; movi r4, 2
    str r1, [r0]
    bl f
    halt #0
""",
            data_region="""
.page
f:
    movi r4, 1
    br lr
""",
        )

        def tables(builder):
            builder.map_section(0x0, 0x0, ap=AP_USER_RW)

        engine, board, res = _run_with_tables(DBTSimulator, source, tables)
        assert res.halted_ok
        assert board.cpu.regs[6] == 1
        assert board.cpu.regs[4] == 2
        assert engine.counters.smc_invalidations >= 1

    def test_interpreter_matches(self):
        source = _mmu_program(
            body="""
    bl f
    mov r6, r4
    li r0, f
    li r1, 0x19400002
    str r1, [r0]
    bl f
    halt #0
""",
            data_region="""
.page
f:
    movi r4, 1
    br lr
""",
        )

        def tables(builder):
            builder.map_section(0x0, 0x0, ap=AP_USER_RW)

        _e, board, res = _run_with_tables(FastInterpreter, source, tables)
        assert res.halted_ok
        assert (board.cpu.regs[6], board.cpu.regs[4]) == (1, 2)
