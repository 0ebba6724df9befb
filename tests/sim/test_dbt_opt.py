"""DBT lowering tests: IR passes, emission, key hygiene.

Three kinds of guarantees live here:

- each peephole pass fires on its golden shape and provably does NOT
  fire when its safety precondition fails;
- every config field that changes generated code is part of the
  translation key, and so of the memo and code-store identity;
- the passes never change guest counters relative to the reference
  lowering (the lifted IR emitted with the pipeline emptied), even
  through self-modifying code and run limits.
"""

import ast

import pytest

from repro.isa.assembler import assemble
from repro.isa.decoder import decode
from repro.isa.encoding import Cond, Op, encode
from repro.machine import Board
from repro.machine.memory import PhysicalMemory
from repro.platform import VEXPRESS
from repro.sim.dbt import codestore
from repro.sim.dbt.ir import lift_block
from repro.sim.dbt.passes import (
    eliminate_dead_stores,
    fold_constants,
    fuse_pairs,
)
from repro.sim.dbt.translator import TRANSLATION_MEMO, Translator
from repro.sim.spec import DBTSpec
from tests.sim.util import (
    assert_pipeline_neutral,
    bare_program,
    ram_equal,
    reference_lowering,
)


def lift(words, vaddr=0x8000):
    """Hand-built IR: encoded words -> lifted nodes."""
    return lift_block([decode(word) for word in words], vaddr)


class TestFoldConstants:
    def test_movi_chain_folds_alu(self):
        nodes = lift(
            [
                encode(Op.MOVI, rd=0, imm=6),
                encode(Op.MOVI, rd=1, imm=7),
                encode(Op.ADD, rd=2, rn=0, rm=1),
                encode(Op.HALT),
            ]
        )
        assert fold_constants(nodes) == 3
        assert nodes[2].const_value == 13

    def test_movt_extends_known_immediate(self):
        nodes = lift(
            [
                encode(Op.MOVI, rd=0, imm=0x1234),
                encode(Op.MOVT, rd=0, imm=0xDEAD),
                encode(Op.HALT),
            ]
        )
        fold_constants(nodes)
        assert nodes[1].const_value == 0xDEAD1234

    def test_unknown_operand_must_not_fold(self):
        # A load's result is runtime data: nothing downstream may fold.
        nodes = lift(
            [
                encode(Op.LDR, rd=0, rn=1),
                encode(Op.ADDI, rd=2, rn=0, imm=1),
                encode(Op.HALT),
            ]
        )
        assert fold_constants(nodes) == 0
        assert all(node.const_value is None for node in nodes)

    def test_fold_mirrors_runtime_semantics(self):
        # Shift amounts are masked to 5 bits and division by zero
        # yields 0, exactly as the emitted Python computes them.
        nodes = lift(
            [
                encode(Op.MOVI, rd=0, imm=1),
                encode(Op.LSLI, rd=1, rn=0, imm=33),  # shift amount & 31
                encode(Op.MOVI, rd=2, imm=0),
                encode(Op.UDIV, rd=3, rn=0, rm=2),  # div by zero -> 0
                encode(Op.HALT),
            ]
        )
        fold_constants(nodes)
        assert nodes[1].const_value == 2
        assert nodes[3].const_value == 0


class TestDeadStoreElimination:
    def test_overwritten_def_dies(self):
        nodes = lift(
            [
                encode(Op.MOVI, rd=0, imm=1),
                encode(Op.MOVI, rd=0, imm=2),
                encode(Op.HALT),
            ]
        )
        assert eliminate_dead_stores(nodes) == 1
        assert nodes[0].dead
        assert not nodes[1].dead

    def test_read_before_overwrite_must_not_die(self):
        nodes = lift(
            [
                encode(Op.MOVI, rd=0, imm=1),
                encode(Op.STR, rd=0, rn=1),  # reads r0 (and may fault)
                encode(Op.MOVI, rd=0, imm=2),
                encode(Op.HALT),
            ]
        )
        assert eliminate_dead_stores(nodes) == 0


class TestPairFusion:
    def test_addi_feeding_load_fuses(self):
        nodes = lift(
            [
                encode(Op.ADDI, rd=1, rn=1, imm=4),
                encode(Op.LDR, rd=0, rn=1),
                encode(Op.HALT),
            ]
        )
        assert fuse_pairs(nodes) == 1
        assert nodes[0].addr_temp
        assert nodes[1].addr_from is nodes[0]

    def test_base_mismatch_must_not_fuse(self):
        nodes = lift(
            [
                encode(Op.ADDI, rd=1, rn=2, imm=4),
                encode(Op.LDR, rd=0, rn=3),  # base is not the ADDI's def
                encode(Op.HALT),
            ]
        )
        assert fuse_pairs(nodes) == 0

    def test_cmp_feeding_conditional_branch_fuses(self):
        nodes = lift(
            [
                encode(Op.CMPI, rn=0, imm=0),
                encode(Op.B, imm=2, cond=Cond.EQ),
            ]
        )
        assert fuse_pairs(nodes) == 1
        assert nodes[0].fuse_branch
        assert nodes[1].fused_cmp is nodes[0]

    def test_unconditional_branch_must_not_fuse(self):
        # An AL branch never reads the comparison; fusing it would
        # change nothing but the annotation must not appear.
        nodes = lift(
            [
                encode(Op.CMP, rn=0, rm=1),
                encode(Op.B, imm=2, cond=Cond.AL),
            ]
        )
        assert fuse_pairs(nodes) == 0

    def test_folded_addi_must_not_fuse(self):
        # Once the ADDI folds to a literal the access address is a
        # constant too; the `_a` temp would be dead weight.
        nodes = lift(
            [
                encode(Op.MOVI, rd=1, imm=0x100),
                encode(Op.ADDI, rd=1, rn=1, imm=4),
                encode(Op.LDR, rd=0, rn=1),
                encode(Op.HALT),
            ]
        )
        fold_constants(nodes)
        assert fuse_pairs(nodes) == 0


def _block_sources(asm_body, vaddrs=(0x8000,), **fields):
    """Translate the given block starts under a spec and return
    their concatenated generated source."""
    board = Board(VEXPRESS)
    board.load(assemble(".org 0x8000\n_start:\n%s\n" % asm_body))
    translator = Translator(DBTSpec(**fields))
    return "\n".join(
        translator.translate(board.memory, vaddr, vaddr).source for vaddr in vaddrs
    )


#: One block exercising every codegen-sensitive shape on one page:
#: foldable constants, an address pair over a runtime-unknown base (the
#: load's result), a fusible compare+branch, and a same-page chainable
#: conditional terminal.
_PEEPHOLE_BODY = """
    movi r0, 6
    movi r1, 7
    add r2, r0, r1
    ldr r4, [sp]
    addi r4, r4, 4
    ldr r3, [r4]
    cmpi r3, 0
    bne _start
"""

#: ... and one whose terminal branches across a page boundary.
_CROSS_PAGE_BODY = """
    nop
    nop
    nop
    nop
    b far
.page
far:
    halt #0
"""


class TestOptimizedEmission:
    def test_passes_reshape_emitted_source(self):
        with reference_lowering():
            reference = _block_sources(_PEEPHOLE_BODY)
        optimized = _block_sources(_PEEPHOLE_BODY)
        assert "_a = (r[4] + 4)" in optimized  # fused address pair
        assert "_a = " not in reference
        # bne: the reference tests Z in the PSR the CMPI wrote; the
        # fused pair compares the CMPI operands instead.
        assert "if not cpu.psr & 1073741824:" in reference
        assert "if not cpu.psr" not in optimized
        assert "if _x != 0:" in optimized
        assert "if _x" not in reference
        # Flags are written and tested inline on both paths.
        for source in (reference, optimized):
            assert "condition_holds" not in source
            assert "set_flags_sub" not in source
        assert "r[2] = 13" in optimized  # folded constant chain
        assert "r[2] = 13" not in reference


#: A block with every inline-softmmu access and the unprivileged pair.
_SOFTMMU_BODY = """
    li r1, 0x20000
    movi r2, 7
    str r2, [r1]
    ldr r3, [r1, #4]
    strb r2, [r1, #8]
    ldrb r4, [r1, #8]
    ldrt r5, [r1]
    strt r5, [r1, #12]
    halt #0
"""


class TestSoftmmuEmission:
    #: (helper, access size) of each probe's fallback.
    FALLBACKS = [("mem_read", 1), ("mem_read", 4), ("mem_write", 1), ("mem_write", 4)]

    @staticmethod
    def _helper_calls(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "s"
        ]

    def test_helpers_called_only_on_fallback(self):
        source = _block_sources(_SOFTMMU_BODY)
        assert source.count("_e = _tlb[") == 4
        tree = ast.parse(source)
        probes = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.If) and "_e is not None" in ast.unparse(node.test)
        ]
        assert len(probes) == 4
        fallback = set()
        for probe in probes:
            # The hit path calls nothing and counts nothing.
            hit = ast.Module(probe.body, [])
            assert not self._helper_calls(hit)
            assert "c." not in ast.unparse(hit)
            orelse = ast.Module(probe.orelse, [])
            fallback.update(id(call) for call in self._helper_calls(orelse))
        calls = [
            call
            for call in self._helper_calls(tree)
            if call.func.attr in {name for name, _size in self.FALLBACKS}
        ]
        size_arg = {"mem_read": 1, "mem_write": 2}
        assert sorted(
            (call.func.attr, call.args[size_arg[call.func.attr]].value) for call in calls
        ) == self.FALLBACKS
        assert all(id(call) in fallback for call in calls)
        # The unprivileged accesses stay on their helpers, unguarded.
        assert "s.mem_read32_user(" in source
        assert "s.mem_write32_user(" in source

    def test_hit_path_never_tests_allows(self):
        assert "allows" not in _block_sources(_SOFTMMU_BODY)


class TestKeyCompleteness:
    """Every spec field that changes generated code must be part of
    the translation key (and therefore of the code-store address)."""

    #: Fields whose toggling must change the generated source for the
    #: probe programs below.  A new DBTSpec field that affects
    #: codegen must be added here AND to translation_key().
    CODEGEN_FIELDS = {"chain_enabled", "chain_cross_page", "max_block_insns"}

    VARIANTS = {
        "chain_enabled": False,
        "chain_cross_page": True,
        "max_block_insns": 3,
        "tlb_bits": 9,
        "tcache_capacity": 5,
        "cost_overrides": {"instructions": 123.0},
        "version": "v9.9.9",
        "asid_tagged": True,
    }

    def test_variant_table_covers_every_field(self):
        assert set(self.VARIANTS) == {field.name for field in DBTSpec.fields}

    def test_translation_key_is_the_codegen_fields(self):
        spec = DBTSpec(chain_cross_page=True, max_block_insns=7)
        assert spec.translation_key() == (True, True, 7)

    def test_default_keys_are_pinned(self, monkeypatch):
        """Memo and code-store keys of the default engine are fixed
        values: a change here orphans every stored block and needs a
        ``CODEGEN_VERSION`` bump.  The interpreter's bytecode magic is
        pinned too, so the digest holds on any Python version."""
        assert DBTSpec().translation_key() == (True, False, 64)
        monkeypatch.setattr(codestore.importlib.util, "MAGIC_NUMBER", b"\x00\x00\r\n")
        assert codestore.block_key(
            DBTSpec().translation_key(), 0x8000, bytes(range(8))
        ) == "b3b106b68bd1bad23153ea453ea303a32647b4c2e3f59498d172a0c8c213be76"

    @pytest.mark.parametrize("field", sorted(VARIANTS))
    def test_codegen_sensitive_fields_are_keyed(self, field):
        def sources(**fields):
            TRANSLATION_MEMO.clear()
            return _block_sources(_PEEPHOLE_BODY, **fields) + _block_sources(
                _CROSS_PAGE_BODY, **fields
            )

        base = DBTSpec()
        variant = DBTSpec(**{field: self.VARIANTS[field]})
        differs = sources() != sources(**{field: self.VARIANTS[field]})
        assert differs == (field in self.CODEGEN_FIELDS)
        if differs:
            assert base.translation_key() != variant.translation_key()
            word_bytes = b"\x00\x00\x00\x00"
            assert codestore.block_key(
                base.translation_key(), 0x8000, word_bytes
            ) != codestore.block_key(
                variant.translation_key(), 0x8000, word_bytes
            )


#: A counted loop whose body rewrites one of its own instructions (with
#: identical bytes) every iteration, invalidating the block mid-run.
_SMC_LOOP_BODY = """
    li r5, 10
    li r6, tgt
    li r1, 0
head:
    cmpi r5, 0
    beq done
    subi r5, r5, 1
    str r1, [r6]
tgt:
    nop
    b head
done:
    halt #0
"""


class TestPipelineNeutrality:
    @pytest.mark.parametrize("size", [VEXPRESS.ram_size, 0x11000])
    def test_ram_compare_flags_one_byte_at_the_last_address(self, size):
        # The final slice is the one a short or off-by-one chunked
        # compare would skip; 0x11000 also ends mid-chunk.
        left, right = PhysicalMemory(), PhysicalMemory()
        left_ram, right_ram = left.add_ram(0, size), right.add_ram(0, size)
        assert ram_equal(left_ram, right_ram)
        right.write8(size - 1, 1)
        assert not ram_equal(left_ram, right_ram)
        left.write8(size - 1, 1)
        assert ram_equal(left_ram, right_ram)

    def test_smc_loop(self):
        assert_pipeline_neutral(bare_program(_SMC_LOOP_BODY))

    # Shrunk counterexamples the random-program suites produced against
    # deliberately broken passes, pinned so those breakages stay caught.
    def test_def_read_back_through_both_operands(self):
        # Dead-store elimination must see r1 read by the second ADD.
        assert_pipeline_neutral(
            bare_program("add r1, r1, r1\naddi r1, r1, 1\nadd r1, r1, r1\nhalt #0")
        )

    def test_eor_fold_of_a_wide_constant(self):
        assert_pipeline_neutral(bare_program("movi r1, 0x1234\neori r2, r1, 0\nhalt #0"))

    @pytest.mark.parametrize("max_insns", [7, 101])
    def test_run_limit_mid_loop(self, max_insns):
        # The instruction limit stops the run between blocks; the
        # optimized and reference lowerings must stop at the same point.
        assert_pipeline_neutral(bare_program(_SMC_LOOP_BODY), max_insns=max_insns)
