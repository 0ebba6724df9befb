"""The translator: guest basic blocks -> compiled Python functions.

This is the reproduction's "TCG": each guest basic block is decoded
once, lowered to Python source, and compiled with :func:`compile`.
Executing a block therefore runs host (CPython) bytecode -- genuinely
fast compared to interpretation -- while translation itself genuinely
costs time, which is exactly the trade-off the Code Generation
benchmarks probe.

Lowering has one path: the decoded block is lifted into the explicit
IR (:mod:`repro.sim.dbt.ir`), the peephole pipeline
(:mod:`repro.sim.dbt.passes`) annotates it -- constant folding, dead
flag/store elimination, adjacent-pair fusion -- and the emitter turns
each node into Python statements.

Generated blocks follow the contract documented on
:class:`~repro.sim.dbt.blockcache.TranslatedBlock`.
"""

import collections

from repro.errors import DecodeError
from repro.isa.decoder import decode
from repro.isa.encoding import BLOCK_END_OPS, MEM_OPS, Op
from repro.obs.metrics import METRICS
from repro.sim.dbt import codestore
from repro.sim.dbt.blockcache import TranslatedBlock
from repro.sim.dbt.ir import lift_block
from repro.sim.dbt.passes import run_pipeline

MASK = "4294967295"
PAGE_SHIFT = 12

#: Inline branch-condition expressions over ``_x``/``_y`` (the latched
#: unsigned 32-bit CMP operands), equivalent to ``set_flags_sub(x, y)``
#: followed by ``condition_holds(cond)``.  Signed comparisons bias both
#: sides by 2**31; MI/PL test bit 31 of the difference (Python ints are
#: two's-complement under ``&``).
_COND_EXPR = {
    1: "_x == _y",  # EQ: Z
    2: "_x != _y",  # NE: !Z
    3: "(_x ^ 2147483648) < (_y ^ 2147483648)",  # LT: N != V
    4: "(_x ^ 2147483648) >= (_y ^ 2147483648)",  # GE: N == V
    5: "(_x ^ 2147483648) <= (_y ^ 2147483648)",  # LE: Z or N != V
    6: "(_x ^ 2147483648) > (_y ^ 2147483648)",  # GT: !Z and N == V
    7: "_x < _y",  # LO: !C
    8: "_x >= _y",  # HS: C
    9: "(_x - _y) & 2147483648",  # MI: N
    10: "not (_x - _y) & 2147483648",  # PL: !N
}


class _MemoEntry:
    """Reusable product of one lowering: everything except the block
    object itself, which carries per-engine chain state and must stay
    private to its translation cache.
    """

    __slots__ = ("word_bytes", "insn_count", "source", "make")

    def __init__(self, word_bytes, insn_count, source, make):
        self.word_bytes = word_bytes
        self.insn_count = insn_count
        self.source = source
        self.make = make


class TranslationMemo:
    """Process-wide bounded LRU of lowered+compiled blocks.

    Keyed by ``(vaddr, DBTConfig.translation_key())``; generated source
    embeds absolute PCs, so the start address is part of the identity.
    Hits are verified against the live instruction bytes before reuse,
    which makes entries safe across self-modifying code and across the
    many engines of a sweep.
    """

    def __init__(self, capacity=16384):
        self.capacity = capacity
        self._entries = collections.OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def insert(self, key, entry):
        entries = self._entries
        if key in entries:
            # Refresh both the entry and its LRU position; without the
            # move a re-inserted key kept its stale position and could
            # be evicted as if cold.
            entries[key] = entry
            entries.move_to_end(key)
            return
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
        entries[key] = entry

    def clear(self):
        self._entries.clear()

    def __len__(self):
        return len(self._entries)


#: Shared across every engine in the process: a 20-version sweep
#: lowers and compiles each distinct block once, not twenty times.
TRANSLATION_MEMO = TranslationMemo()


class _EmitCtx:
    """Per-lowering emission state.

    ``accounted`` is the number of instructions already covered by an
    emitted ``c.instructions`` increment.  A fresh context per
    ``_generate`` call keeps the translator reentrant (no mutable
    instance state threads across emitter calls) and makes the
    incremental-accounting invariant explicit.
    """

    __slots__ = ("accounted",)

    def __init__(self):
        self.accounted = 0


class Translator:
    """Translates basic blocks under a given :class:`DBTConfig`."""

    def __init__(self, config):
        self.config = config

    # ------------------------------------------------------------------
    def translate(self, memory, vaddr, paddr):
        """Translate the block starting at ``vaddr`` (physical
        ``paddr``) and return a :class:`TranslatedBlock`.

        Hot path: a memo (or persistent code-store) hit binds an
        already-compiled ``make`` factory to a fresh block -- no
        lowering, no ``compile``, no ``exec`` (memo) / one ``exec``
        (disk).  Accounting is the caller's and does not change with
        the cache level that served the block.
        """
        cfg = self.config
        cfg_key = cfg.translation_key()
        memo_key = (vaddr, cfg_key)
        if cfg.memoize:
            entry = TRANSLATION_MEMO.get(memo_key)
            if entry is not None and self._entry_matches(memory, paddr, entry):
                return self._bind(entry, vaddr, paddr)
        insns, word_bytes = self._decode_block(memory, paddr)
        entry = None
        store = codestore.active()
        key = None
        if store is not None:
            key = codestore.block_key(cfg_key, vaddr, word_bytes)
            payload = store.get(key)
            if payload is not None and payload[0] == word_bytes:
                _wb, insn_count, source, code = payload
                namespace = {}
                exec(code, namespace)
                entry = _MemoEntry(word_bytes, insn_count, source, namespace["make"])
        if entry is None:
            source = self._generate(insns, vaddr)
            code = compile(source, "<dbt block 0x%08x>" % vaddr, "exec")
            namespace = {}
            exec(code, namespace)
            entry = _MemoEntry(word_bytes, len(insns), source, namespace["make"])
            if key is not None:
                store.put(key, (word_bytes, entry.insn_count, source, code))
        if cfg.memoize:
            TRANSLATION_MEMO.insert(memo_key, entry)
        return self._bind(entry, vaddr, paddr)

    @staticmethod
    def _entry_matches(memory, paddr, entry):
        """True when the live bytes at ``paddr`` still spell the memoized
        block.  Compared straight out of the RAM region (no ``read32``,
        so no chance of device side effects); anything not fully
        RAM-backed simply misses and takes the full path."""
        region = memory.find_ram(paddr, 4)
        if region is None:
            return False
        word_bytes = entry.word_bytes
        if not region.contains(paddr, len(word_bytes)):
            return False
        off = paddr - region.base
        return region.data[off : off + len(word_bytes)] == word_bytes

    @staticmethod
    def _bind(entry, vaddr, paddr):
        block = TranslatedBlock(
            vaddr, paddr, entry.insn_count, fn=None, source=entry.source
        )
        block.word_bytes = entry.word_bytes
        block.fn = entry.make(block)
        return block

    def _decode_block(self, memory, paddr):
        """Decode instructions until a block-ending op, the page end, or
        the configured length limit.  Undecodable words terminate the
        block with an UNDEF terminal (handled in codegen via op=None).
        Returns ``(insns, word_bytes)``; the raw bytes are the block's
        content identity for memoization and SMC verification."""
        insns = []
        words = bytearray()
        addr = paddr
        page_end = (paddr | ((1 << PAGE_SHIFT) - 1)) + 1
        max_insns = self.config.max_block_insns
        while addr < page_end and len(insns) < max_insns:
            word = memory.read32(addr)
            words += word.to_bytes(4, "little")
            try:
                insn = decode(word)
            except DecodeError:
                insns.append(None)  # undefined encoding terminal
                break
            insns.append(insn)
            if insn.op in BLOCK_END_OPS:
                break
            addr += 4
        return insns, bytes(words)

    # ------------------------------------------------------------------
    # Code generation
    # ------------------------------------------------------------------
    def _generate(self, insns, vaddr):
        """Lift ``insns`` to IR, run the pass pipeline, and emit the
        block's Python source."""
        nodes = lift_block(insns, vaddr)
        if METRICS.enabled:
            with METRICS.phase("translate.opt"):
                stats = run_pipeline(nodes)
            for name, count in stats.items():
                if count:
                    METRICS.inc("dbt." + name, count)
        else:
            run_pipeline(nodes)
        lines = [
            "def make(blk):",
            "    def block(s):",
            "        cpu = s.cpu",
            "        r = cpu.regs",
            "        c = s.counters",
        ]
        body = []
        # Instructions are accounted incrementally: before every helper
        # call that might fault or touch a device (so counters are exact
        # at side exits and at device-observed snapshot points), and the
        # remainder at the terminal.
        ctx = _EmitCtx()
        for node in nodes:
            if node.terminal:
                self._emit_terminal(ctx, body, node)
                break
            self._emit_insn(ctx, body, node)
        else:
            # Fall off the end of the block (length/page limit).
            last_pc = nodes[-1].pc
            self._emit_account(ctx, body, len(nodes))
            body.append("cpu.pc = %d" % (last_pc + 4))
            self._emit_chain_exit(body, last_pc, last_pc + 4, slot=0)
        lines.extend("        " + line for line in body)
        lines.append("    return block")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _emit_account(ctx, body, through):
        """Emit 'instructions += k' covering insns up to index ``through``
        (exclusive count), relative to what is already accounted."""
        pending = through - ctx.accounted
        if pending > 0:
            body.append("c.instructions += %d" % pending)
            ctx.accounted = through

    @staticmethod
    def _rx(node, reg):
        """The operand expression for ``reg``: a literal when the fold
        pass proved its value, else the register read."""
        value = node.sub(reg)
        return "r[%d]" % reg if value is None else str(value)

    def _addr_expr(self, node):
        """The memory-address expression for a load/store node."""
        imm = node.imm
        if node.addr_from is not None:
            # Fused with the preceding ADDI/SUBI: the base is the `_a`
            # local that was just computed (and stored to the base reg).
            if imm == 0:
                return "_a"
            return "(_a + %d) & %s" % (imm, MASK)
        base = node.sub(node.rn)
        if base is not None:
            return str((base + imm) & 0xFFFFFFFF)
        if imm == 0:
            return "r[%d]" % node.rn  # regs are invariantly masked
        return "(r[%d] + %d) & %s" % (node.rn, imm, MASK)

    # -- straight-line instructions --------------------------------------
    def _emit_insn(self, ctx, body, node):
        if node.dead:
            return  # accounting is positional; nothing to emit
        op = node.op
        rd, rn, rm, imm = node.rd, node.rn, node.rm, node.imm
        if op == Op.NOP:
            return
        if node.const_value is not None:
            body.append("r[%d] = %d" % (rd, node.const_value))
            return
        if node.addr_temp:
            sign = "+" if op == Op.ADDI else "-"
            body.append("_a = (r[%d] %s %d) & %s" % (rn, sign, imm, MASK))
            body.append("r[%d] = _a" % rd)
            return
        if op in MEM_OPS:
            self._emit_account(ctx, body, node.idx + 1)
            body.append("s.fault_state = (%d, %d)" % (node.pc, node.idx))
            addr = self._addr_expr(node)
            if op == Op.LDR:
                body.append("r[%d] = s.mem_read32(%s)" % (rd, addr))
            elif op == Op.STR:
                body.append("s.mem_write32(%s, %s)" % (addr, self._rx(node, rd)))
            elif op == Op.LDRB:
                body.append("r[%d] = s.mem_read8(%s)" % (rd, addr))
            elif op == Op.STRB:
                value = node.sub(rd)
                data = "r[%d] & 255" % rd if value is None else str(value & 255)
                body.append("s.mem_write8(%s, %s)" % (addr, data))
            elif op == Op.LDRT:
                body.append("r[%d] = s.mem_read32_user(%s)" % (rd, addr))
            else:  # STRT
                body.append("s.mem_write32_user(%s, %s)" % (addr, self._rx(node, rd)))
            return
        if op in (Op.CMP, Op.CMPI):
            x = self._rx(node, rn)
            y = str(imm) if op == Op.CMPI else self._rx(node, rm)
            if node.fuse_branch:
                # The following branch tests _x/_y directly; flags are
                # still set because they are live-out through it.
                body.append("_x = %s" % x)
                body.append("_y = %s" % y)
                body.append("cpu.set_flags_sub(_x, _y)")
            else:
                body.append("cpu.set_flags_sub(%s, %s)" % (x, y))
            return
        a = self._rx(node, rn)
        b = self._rx(node, rm)
        if op == Op.ADD:
            body.append("r[%d] = (%s + %s) & %s" % (rd, a, b, MASK))
        elif op == Op.SUB:
            body.append("r[%d] = (%s - %s) & %s" % (rd, a, b, MASK))
        elif op == Op.AND:
            body.append("r[%d] = %s & %s" % (rd, a, b))
        elif op == Op.ORR:
            body.append("r[%d] = %s | %s" % (rd, a, b))
        elif op == Op.EOR:
            body.append("r[%d] = %s ^ %s" % (rd, a, b))
        elif op in (Op.LSL, Op.LSR, Op.ASR):
            shift_const = node.sub(rm)
            shift = (
                "(r[%d] & 31)" % rm if shift_const is None else "%d" % (shift_const & 31)
            )
            if op == Op.LSL:
                body.append("r[%d] = (%s << %s) & %s" % (rd, a, shift, MASK))
            elif op == Op.LSR:
                body.append("r[%d] = %s >> %s" % (rd, a, shift))
            else:
                body.append("_t = %s" % a)
                body.append("if _t & 2147483648: _t -= 4294967296")
                body.append("r[%d] = (_t >> %s) & %s" % (rd, shift, MASK))
        elif op in (Op.UDIV, Op.UREM):
            oper = "//" if op == Op.UDIV else "%"
            divisor = node.sub(rm)
            if divisor is not None:
                if divisor:
                    body.append("r[%d] = %s %s %d" % (rd, a, oper, divisor))
                else:
                    body.append("r[%d] = 0" % rd)
            else:
                body.append("_d = r[%d]" % rm)
                body.append("r[%d] = %s %s _d if _d else 0" % (rd, a, oper))
        elif op == Op.MUL:
            body.append("r[%d] = (%s * %s) & %s" % (rd, a, b, MASK))
        elif op == Op.MOV:
            body.append("r[%d] = %s" % (rd, self._rx(node, rm)))
        elif op == Op.MVN:
            body.append("r[%d] = %s ^ %s" % (rd, self._rx(node, rm), MASK))
        elif op == Op.ADDI:
            body.append("r[%d] = (%s + %d) & %s" % (rd, a, imm, MASK))
        elif op == Op.SUBI:
            body.append("r[%d] = (%s - %d) & %s" % (rd, a, imm, MASK))
        elif op == Op.ANDI:
            body.append("r[%d] = %s & %d" % (rd, a, imm))
        elif op == Op.ORRI:
            body.append("r[%d] = %s | %d" % (rd, a, imm))
        elif op == Op.EORI:
            body.append("r[%d] = %s ^ %d" % (rd, a, imm))
        elif op == Op.LSLI:
            body.append("r[%d] = (%s << %d) & %s" % (rd, a, imm & 31, MASK))
        elif op == Op.LSRI:
            body.append("r[%d] = %s >> %d" % (rd, a, imm & 31))
        elif op == Op.ASRI:
            body.append("_t = %s" % a)
            body.append("if _t & 2147483648: _t -= 4294967296")
            body.append("r[%d] = (_t >> %d) & %s" % (rd, imm & 31, MASK))
        elif op == Op.MULI:
            body.append("r[%d] = (%s * %d) & %s" % (rd, a, imm, MASK))
        elif op == Op.MOVI:
            body.append("r[%d] = %d" % (rd, imm))
        elif op == Op.MOVT:
            body.append("r[%d] = (r[%d] & 65535) | %d" % (rd, rd, imm << 16))
        elif op == Op.MRC:
            self._emit_account(ctx, body, node.idx + 1)
            body.append("s.fault_state = (%d, %d)" % (node.pc, node.idx))
            body.append("r[%d] = s.cop_read(%d, %d)" % (rd, rn, imm & 0xFF))
        elif op == Op.MCR:
            self._emit_account(ctx, body, node.idx + 1)
            body.append("s.fault_state = (%d, %d)" % (node.pc, node.idx))
            body.append("s.cop_write(%d, %d, %s)" % (rn, imm & 0xFF, self._rx(node, rd)))
        else:  # pragma: no cover - terminals handled elsewhere
            raise AssertionError("unexpected op in straight-line emitter: %r" % op)

    # -- terminals ---------------------------------------------------------
    def _chainable(self, from_pc, to_pc):
        if not self.config.chain_enabled:
            return False
        if (from_pc >> PAGE_SHIFT) == (to_pc >> PAGE_SHIFT):
            return True
        return self.config.chain_cross_page

    def _emit_chain_exit(self, body, from_pc, target, slot):
        """Emit the block exit for a statically-known target."""
        attr = "succ_taken" if slot == 0 else "succ_not"
        if self._chainable(from_pc, target):
            body.append("nb = blk.%s" % attr)
            body.append("if nb is not None and nb.valid:")
            body.append("    c.chain_follows += 1")
            body.append("    return nb")
            body.append("blk.%s = None" % attr)
            body.append("s.pending_chain = (blk, %d)" % slot)
        body.append("return %d" % target)

    @staticmethod
    def _branch_counter(from_pc, target):
        """The counter a direct branch from ``from_pc`` charges."""
        same = (from_pc >> PAGE_SHIFT) == (target >> PAGE_SHIFT)
        return "branches_direct_intra" if same else "branches_direct_inter"

    def _emit_terminal(self, ctx, body, node):
        op = node.op
        pc = node.pc
        next_pc = pc + 4
        self._emit_account(ctx, body, node.idx + 1)
        if op in (Op.B, Op.BL):
            target = (pc + 4 + 4 * node.imm) & 0xFFFFFFFF
            taken = []
            if op == Op.BL:
                taken.append("r[14] = %d" % next_pc)
                taken.append("c.calls += 1")
            taken.append("c.%s += 1" % self._branch_counter(pc, target))
            taken.append("cpu.pc = %d" % target)
            self._emit_chain_exit(taken, pc, target, slot=0)
            if node.cond == 0:
                body.extend(taken)
                return
            if node.fused_cmp is not None and node.cond in _COND_EXPR:
                body.append("if %s:" % _COND_EXPR[node.cond])
            else:
                body.append("if cpu.condition_holds(%d):" % node.cond)
            body.extend("    " + line for line in taken)
            body.append("c.branches_not_taken += 1")
            body.append("cpu.pc = %d" % next_pc)
            self._emit_chain_exit(body, pc, next_pc, slot=1)
            return
        if op in (Op.BR, Op.BLR):
            body.append("_t = %s" % self._rx(node, node.rn))
            if op == Op.BLR:
                body.append("r[14] = %d" % next_pc)
                body.append("c.calls += 1")
            body.append("if (_t >> 12) == %d:" % (pc >> PAGE_SHIFT))
            body.append("    c.branches_indirect_intra += 1")
            body.append("else:")
            body.append("    c.branches_indirect_inter += 1")
            body.append("cpu.pc = _t")
            body.append("return _t")
            return
        if op is None or op == Op.UND:  # undecodable word or UND
            body.append("c.undefs += 1")
            body.append("s.do_undef(%d)" % next_pc)
            body.append("return None")
            return
        if op == Op.SWI:
            body.append("c.syscalls += 1")
            body.append("s.do_swi(%d)" % next_pc)
            body.append("return None")
            return
        if op == Op.SRET:
            body.append("s.fault_state = (%d, %d)" % (pc, node.idx))
            body.append("s.do_sret()")
            body.append("return None")
            return
        if op == Op.HALT:
            body.append("cpu.halted = True")
            body.append("cpu.halt_code = %d" % node.imm)
            body.append("cpu.pc = %d" % next_pc)
            body.append("return None")
            return
        if op == Op.WFI:
            body.append("cpu.waiting = True")
            body.append("cpu.pc = %d" % next_pc)
            body.append("return None")
            return
        if op == Op.CPS:
            # Mode/interrupt-mask changes take effect at the boundary;
            # never chained, so the dispatcher re-checks state.
            body.append("s.fault_state = (%d, %d)" % (pc, node.idx))
            body.append("s.do_cps(%d)" % node.imm)
            body.append("cpu.pc = %d" % next_pc)
            body.append("return %d" % next_pc)
            return
        raise AssertionError("unexpected terminal op: %r" % op)  # pragma: no cover
