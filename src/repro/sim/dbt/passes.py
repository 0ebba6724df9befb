"""The DBT peephole pass pipeline.

Three conservative peephole passes over the IR of one block
(:mod:`repro.sim.dbt.ir`), in a fixed order chosen so each pass feeds
the next:

1. :func:`fold_constants` -- forward dataflow of known register values
   (MOVI/MOVT/ALU chains).  Nodes whose result is fully known get
   ``const_value`` (emitted as one literal assignment); nodes with
   some known operands get ``reg_consts`` (operands emitted as
   literals).
2. :func:`eliminate_dead_stores` -- backward register liveness; a pure
   register def overwritten before any read or observation point is
   dropped (the classic MOVI+MOVT pair collapses to the MOVT literal).
3. :func:`fuse_pairs` -- adjacent-pair fusion: ADDI/SUBI feeding the
   next instruction's memory base becomes one shared address
   computation, and CMP/CMPI feeding a conditional branch inlines the
   comparison (no ``condition_holds`` dispatch).

Safety discipline (what keeps guest counters bit-identical):

- **Observation points are barriers.**  Any node that may fault,
  deliver work to a device, or end the block (``side_effect``,
  ``terminal``) makes every register and the flags live: a fault
  handler or interrupt can observe all of them.
- **Accounting is positional.**  ``c.instructions`` increments are
  derived from node indices; a dead node still occupies its index, so
  the increments the emitter produces are unchanged.
- **Flags are always architecturally current at observation points.**
  No pass removes a flag write: a fused CMP still emits
  ``set_flags_sub`` (its flags are live-out through the branch).
"""

from repro.isa.encoding import ALU_IMM_OPS, ALU_REG_OPS, MEM_OPS, Op
from repro.sim.dbt.ir import ALL_REGS, MASK32


def _sext32(value):
    return value - 0x100000000 if value & 0x80000000 else value


def _shift_amount(value):
    return value & 31


# Transfer functions mirroring the emitted Python exactly (operands
# and results are unsigned 32-bit).
_ALU_REG_FOLD = {
    Op.ADD: lambda a, b: (a + b) & MASK32,
    Op.SUB: lambda a, b: (a - b) & MASK32,
    Op.AND: lambda a, b: a & b,
    Op.ORR: lambda a, b: a | b,
    Op.EOR: lambda a, b: a ^ b,
    Op.LSL: lambda a, b: (a << _shift_amount(b)) & MASK32,
    Op.LSR: lambda a, b: a >> _shift_amount(b),
    Op.ASR: lambda a, b: (_sext32(a) >> _shift_amount(b)) & MASK32,
    Op.MUL: lambda a, b: (a * b) & MASK32,
    Op.UDIV: lambda a, b: a // b if b else 0,
    Op.UREM: lambda a, b: a % b if b else 0,
}

_ALU_IMM_FOLD = {
    Op.ADDI: _ALU_REG_FOLD[Op.ADD],
    Op.SUBI: _ALU_REG_FOLD[Op.SUB],
    Op.ANDI: _ALU_REG_FOLD[Op.AND],
    Op.ORRI: _ALU_REG_FOLD[Op.ORR],
    Op.EORI: _ALU_REG_FOLD[Op.EOR],
    Op.LSLI: _ALU_REG_FOLD[Op.LSL],
    Op.LSRI: _ALU_REG_FOLD[Op.LSR],
    Op.ASRI: _ALU_REG_FOLD[Op.ASR],
    Op.MULI: _ALU_REG_FOLD[Op.MUL],
}

#: Pairs whose def feeds the next instruction's address computation.
_ADDR_ALU_OPS = frozenset({Op.ADDI, Op.SUBI})


def fold_constants(nodes):
    """Forward constant propagation.  Returns the number of nodes whose
    result folded to a literal.

    The ``known`` map tracks registers holding compile-time-known
    values.  Engine helpers never write ``cpu.regs`` (loads assign in
    generated code), so knowledge survives side-effect nodes except for
    the register they define; a fault abandons the block entirely, so
    downstream substitutions never run with stale assumptions.
    """
    known = {}
    folded = 0
    for node in nodes:
        op = node.op
        # Record operand substitutions before the def updates `known`.
        if node.uses:
            subs = {reg: known[reg] for reg in node.uses if reg in known}
            if subs:
                node.reg_consts = subs
        value = None
        if op == Op.MOVI:
            value = node.imm
        elif op == Op.MOVT:
            old = known.get(node.rd)
            if old is not None:
                value = (old & 0xFFFF) | ((node.imm << 16) & MASK32)
        elif op == Op.MOV:
            value = known.get(node.rm)
        elif op == Op.MVN:
            old = known.get(node.rm)
            if old is not None:
                value = old ^ MASK32
        elif op in ALU_REG_OPS:
            a = known.get(node.rn)
            b = known.get(node.rm)
            if a is not None and b is not None:
                value = _ALU_REG_FOLD[op](a, b)
        elif op in ALU_IMM_OPS:
            a = known.get(node.rn)
            if a is not None:
                value = _ALU_IMM_FOLD[op](a, node.imm)
        if node.rd_def is not None:
            if value is not None:
                node.const_value = value
                known[node.rd_def] = value
                folded += 1
            else:
                known.pop(node.rd_def, None)
    return folded


def eliminate_dead_stores(nodes):
    """Backward register liveness; kills pure register defs that are
    overwritten before any read or observation point.  Returns the
    number of nodes killed."""
    elided = 0
    live = set(ALL_REGS)  # conservative live-out at the block's end
    for node in reversed(nodes):
        if node.dead:
            continue
        if node.side_effect or node.terminal:
            live = set(ALL_REGS)
            continue
        rd = node.rd_def
        if rd is not None and rd not in live and not node.writes_flags:
            node.dead = True
            elided += 1
            continue
        if rd is not None:
            live.discard(rd)
        if node.const_value is None:
            live |= node.live_uses()
    return elided


def fuse_pairs(nodes):
    """Adjacent-pair fusion over the post-elimination emission order.
    Returns the number of pairs fused.

    - ``ADDI/SUBI rd, rn, #imm`` immediately followed by a memory op
      whose base is ``rd``: the address sum is computed once into a
      local, stored to ``rd``, and reused as the access address.
    - ``CMP/CMPI`` immediately followed by a conditional ``B``/``BL``:
      the comparison operands are latched into locals, flags are still
      set (they are live-out through the branch), and the branch tests
      the operands directly instead of calling ``condition_holds``.
    """
    fused = 0
    emitted = [node for node in nodes if not node.dead]
    for first, second in zip(emitted, emitted[1:]):
        if (
            first.op in _ADDR_ALU_OPS
            and first.const_value is None
            and second.op in MEM_OPS
            and second.rn == first.rd
            and second.sub(second.rn) is None
        ):
            first.addr_temp = True
            second.addr_from = first
            fused += 1
        elif (
            first.op in (Op.CMP, Op.CMPI)
            and second.op in (Op.B, Op.BL)
            and second.cond != 0
        ):
            first.fuse_branch = True
            second.fused_cmp = first
            fused += 1
    return fused


#: The peephole passes in order; each returns the count the stats
#: report under its name.  Emptying it (tests monkeypatch it to ``()``)
#: emits the lifted IR unchanged -- the reference the passes are
#: checked against.
PIPELINE = (
    ("insns_folded", fold_constants),
    ("stores_elided", eliminate_dead_stores),
    ("pairs_fused", fuse_pairs),
)


def run_pipeline(nodes):
    """Run every pass of :data:`PIPELINE` over one block's IR.

    Returns a ``{stat name: count}`` dict for host-side observability.
    """
    return {name: run(nodes) for name, run in PIPELINE}
