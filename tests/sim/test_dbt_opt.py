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

import inspect

import pytest

from repro.isa.assembler import assemble
from repro.isa.decoder import decode
from repro.isa.encoding import Cond, Op, encode
from repro.machine import Board
from repro.platform import VEXPRESS
from repro.sim.dbt import DBTConfig
from repro.sim.dbt import codestore
from repro.sim.dbt.ir import lift_block
from repro.sim.dbt.passes import (
    eliminate_dead_flags,
    eliminate_dead_stores,
    fold_constants,
    fuse_pairs,
)
from repro.sim.dbt.translator import TRANSLATION_MEMO, Translator
from tests.sim.util import assert_pipeline_neutral, bare_program, reference_lowering


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


class TestDeadFlagElimination:
    def test_overwritten_cmp_dies(self):
        nodes = lift(
            [
                encode(Op.CMP, rn=0, rm=1),
                encode(Op.CMPI, rn=2, imm=0),
                encode(Op.B, imm=2, cond=Cond.EQ),
            ]
        )
        assert eliminate_dead_flags(nodes) == 1
        assert nodes[0].dead
        assert not nodes[1].dead

    def test_read_flags_must_not_die(self):
        nodes = lift(
            [
                encode(Op.CMP, rn=0, rm=1),
                encode(Op.B, imm=2, cond=Cond.NE),
            ]
        )
        assert eliminate_dead_flags(nodes) == 0

    def test_observation_point_keeps_flags_live(self):
        # The store may fault; the fault handler observes the flags the
        # first CMP wrote, so it must survive the overwrite after it.
        nodes = lift(
            [
                encode(Op.CMP, rn=0, rm=1),
                encode(Op.STR, rd=2, rn=3),
                encode(Op.CMPI, rn=2, imm=0),
                encode(Op.B, imm=2, cond=Cond.EQ),
            ]
        )
        assert eliminate_dead_flags(nodes) == 0


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
    """Translate the given block starts under a config and return
    their concatenated generated source."""
    board = Board(VEXPRESS)
    board.load(assemble(".org 0x8000\n_start:\n%s\n" % asm_body))
    translator = Translator(DBTConfig(**fields))
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
        assert "_a" not in reference
        assert "condition_holds" in reference
        assert "condition_holds" not in optimized  # inlined branch cond
        assert "r[2] = 13" in optimized  # folded constant chain
        assert "r[2] = 13" not in reference


class TestKeyCompleteness:
    """Every config field that changes generated code must be part of
    the translation key (and therefore of the code-store address)."""

    #: Fields whose toggling must change the generated source for the
    #: probe programs below.  A new DBTConfig field that affects
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
        "memoize": False,
    }

    def test_variant_table_covers_every_field(self):
        params = set(inspect.signature(DBTConfig.__init__).parameters) - {"self"}
        assert set(self.VARIANTS) == params

    def test_translation_key_is_the_codegen_fields(self):
        config = DBTConfig(chain_cross_page=True, max_block_insns=7)
        assert config.translation_key() == (True, True, 7)

    @pytest.mark.parametrize("field", sorted(VARIANTS))
    def test_codegen_sensitive_fields_are_keyed(self, field):
        def sources(**fields):
            TRANSLATION_MEMO.clear()
            return _block_sources(_PEEPHOLE_BODY, **fields) + _block_sources(
                _CROSS_PAGE_BODY, **fields
            )

        base_cfg = DBTConfig()
        variant_cfg = DBTConfig(**{field: self.VARIANTS[field]})
        differs = sources() != sources(**{field: self.VARIANTS[field]})
        assert differs == (field in self.CODEGEN_FIELDS)
        if differs:
            assert base_cfg.translation_key() != variant_cfg.translation_key()
            word_bytes = b"\x00\x00\x00\x00"
            assert codestore.block_key(
                base_cfg.translation_key(), 0x8000, word_bytes
            ) != codestore.block_key(
                variant_cfg.translation_key(), 0x8000, word_bytes
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
