"""Explicit intermediate representation of one DBT block.

The translator lifts every decoded block into a typed IR between decode
and codegen so the peephole passes (:mod:`repro.sim.dbt.passes`) can
reason about the block before anything is emitted:

- every :class:`IRNode` mirrors one decoded instruction (op, operand
  fields, absolute ``pc``, ``idx`` within the block)
  and precomputes its **def/use register sets**, whether it **reads or
  writes the NZCV flags**, whether it has a **side effect** (calls an
  engine helper that may fault, count an event, or touch a device --
  the points where the whole guest state becomes observable), and
  whether it is a **terminal** (ends the block);
- passes communicate with the emitter through annotations only:
  ``dead`` (emit nothing), ``const_value`` (the def is a known 32-bit
  constant), ``reg_consts`` (operand registers with known constant
  values), and the fusion links (``addr_from``/``addr_temp``,
  ``fused_cmp``/``fuse_branch``).

Instruction accounting never moves with optimization: the
``c.instructions`` increments are derived from node *indices*, so a
dead or folded node is still counted exactly as an unoptimized block
counts it.  Passes may only change *how* a guest-visible effect is
computed, never *whether* it happens.
"""

from repro.isa.encoding import (
    ALU_IMM_OPS,
    ALU_REG_OPS,
    BLOCK_END_OPS,
    LOAD_OPS,
    MEM_OPS,
    NUM_REGS,
    Op,
    STORE_OPS,
)

MASK32 = 0xFFFFFFFF

#: Registers defined/used by no instruction (shared empty set).
NO_REGS = frozenset()

#: Every guest register, the conservative live set at observation points.
ALL_REGS = frozenset(range(NUM_REGS))

#: Straight-line ops whose emission calls an engine helper: memory
#: accesses (may fault, count loads/stores), coprocessor moves (may
#: UNDEF, count coproc events) and CPS (privilege check).  At these
#: points the full register file and flags are architecturally
#: observable (a fault snapshots them), so passes treat them as
#: barriers.
SIDE_EFFECT_OPS = frozenset(MEM_OPS | {Op.MRC, Op.MCR, Op.CPS})

#: Ops that write the NZCV flags (this ISA's only flag writers).
FLAG_WRITE_OPS = frozenset({Op.CMP, Op.CMPI})


class IRNode:
    """One guest instruction in IR form.

    Carries the decoded fields (``op``/``rd``/``rn``/``rm``/``imm``/
    ``cond``) plus the analysis sets and pass annotations documented in
    the module docstring.
    """

    __slots__ = (
        # decoded fields
        "op",
        "rd",
        "rn",
        "rm",
        "imm",
        "cond",
        # position
        "pc",
        "idx",
        # analysis (filled by lift)
        "defs",
        "uses",
        "rd_def",
        "writes_flags",
        "reads_flags",
        "side_effect",
        "terminal",
        # pass annotations
        "dead",
        "const_value",
        "reg_consts",
        "addr_temp",
        "addr_from",
        "fuse_branch",
        "fused_cmp",
    )

    def __init__(self, insn, pc, idx):
        if insn is None:  # undecodable word: UNDEF terminal
            self.op = None
            self.rd = self.rn = self.rm = self.imm = self.cond = 0
        else:
            self.op = insn.op
            self.rd = insn.rd
            self.rn = insn.rn
            self.rm = insn.rm
            self.imm = insn.imm
            self.cond = getattr(insn, "cond", 0)
        self.pc = pc
        self.idx = idx
        self.defs, self.uses = _def_use(self.op, self.rd, self.rn, self.rm)
        self.rd_def = next(iter(self.defs)) if self.defs else None
        self.writes_flags = self.op in FLAG_WRITE_OPS
        self.reads_flags = self.op in (Op.B, Op.BL) and self.cond != 0
        self.side_effect = self.op in SIDE_EFFECT_OPS or self.op is None
        self.terminal = self.op is None or self.op in BLOCK_END_OPS
        self.dead = False
        self.const_value = None
        self.reg_consts = None
        self.addr_temp = False
        self.addr_from = None
        self.fuse_branch = False
        self.fused_cmp = None

    # -- views used by the passes -------------------------------------
    def live_uses(self):
        """Registers this node will actually *read* when emitted: uses
        minus operands already substituted by a known constant."""
        if not self.reg_consts:
            return self.uses
        return self.uses - frozenset(self.reg_consts)

    def sub(self, reg):
        """The substituted constant for an operand register, or None."""
        if self.reg_consts is None:
            return None
        return self.reg_consts.get(reg)

    def __repr__(self):
        label = "und" if self.op is None else self.op.name
        notes = []
        if self.dead:
            notes.append("dead")
        if self.const_value is not None:
            notes.append("const=%d" % self.const_value)
        if self.reg_consts:
            notes.append("subs=%r" % (self.reg_consts,))
        return "IRNode(%s pc=0x%x idx=%d%s)" % (
            label,
            self.pc,
            self.idx,
            (" " + " ".join(notes)) if notes else "",
        )


def _def_use(op, rd, rn, rm):
    """The (defs, uses) register sets for one decoded instruction.

    Only *register* operands count: MRC/MCR's ``rn`` and ``imm`` are
    coprocessor/register numbers baked into the generated call, not
    guest register reads.
    """
    if op is None:
        return NO_REGS, NO_REGS
    if op in ALU_REG_OPS:
        return frozenset((rd,)), frozenset((rn, rm))
    if op in ALU_IMM_OPS:
        return frozenset((rd,)), frozenset((rn,))
    if op in (Op.MOV, Op.MVN):
        return frozenset((rd,)), frozenset((rm,))
    if op == Op.MOVI:
        return frozenset((rd,)), NO_REGS
    if op == Op.MOVT:
        return frozenset((rd,)), frozenset((rd,))
    if op == Op.CMP:
        return NO_REGS, frozenset((rn, rm))
    if op == Op.CMPI:
        return NO_REGS, frozenset((rn,))
    if op in LOAD_OPS:
        return frozenset((rd,)), frozenset((rn,))
    if op in STORE_OPS:
        return NO_REGS, frozenset((rn, rd))
    if op == Op.MRC:
        return frozenset((rd,)), NO_REGS
    if op == Op.MCR:
        return NO_REGS, frozenset((rd,))
    if op == Op.BL:
        return frozenset((14,)), NO_REGS
    if op in (Op.BR,):
        return NO_REGS, frozenset((rn,))
    if op == Op.BLR:
        return frozenset((14,)), frozenset((rn,))
    # NOP, B, SWI, SRET, HALT, WFI, CPS, UND
    return NO_REGS, NO_REGS


def lift_block(insns, vaddr):
    """Lift one decoded block into IR nodes; ``vaddr`` is the guest
    address of the first instruction."""
    return [IRNode(insn, vaddr + 4 * idx, idx) for idx, insn in enumerate(insns)]
