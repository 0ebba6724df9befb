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
store elimination, adjacent-pair fusion -- and the emitter turns
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

#: Inline branch-condition expressions over ``_x`` and ``{y}`` (the
#: latched unsigned 32-bit CMP operands; ``{y}`` is ``_y`` or a
#: literal), equivalent to ``set_flags_sub(x, y)`` followed by
#: ``condition_holds(cond)``.  Signed comparisons bias both sides by
#: 2**31; MI/PL test bit 31 of the masked difference ``_d``.
_COND_EXPR = {
    1: "_x == {y}",  # EQ: Z
    2: "_x != {y}",  # NE: !Z
    3: "(_x ^ 2147483648) < ({y} ^ 2147483648)",  # LT: N != V
    4: "(_x ^ 2147483648) >= ({y} ^ 2147483648)",  # GE: N == V
    5: "(_x ^ 2147483648) <= ({y} ^ 2147483648)",  # LE: Z or N != V
    6: "(_x ^ 2147483648) > ({y} ^ 2147483648)",  # GT: !Z and N == V
    7: "_x < {y}",  # LO: !C
    8: "_x >= {y}",  # HS: C
    9: "_d & 2147483648",  # MI: N
    10: "not _d & 2147483648",  # PL: !N
}


#: Inline branch conditions over the flags in ``cpu.psr`` (``{f}``),
#: equivalent to ``condition_holds(cond)``: Z is bit 30, C bit 29, N
#: bit 31 and V bit 28, so ``f ^ f << 3`` holds N != V in bit 31.
_PSR_COND = {
    1: "{f} & 1073741824",  # EQ: Z
    2: "not {f} & 1073741824",  # NE: !Z
    3: "({f} ^ {f} << 3) & 2147483648",  # LT: N != V
    4: "not ({f} ^ {f} << 3) & 2147483648",  # GE: N == V
    5: "{f} & 1073741824 or ({f} ^ {f} << 3) & 2147483648",  # LE
    6: "not {f} & 1073741824 and not ({f} ^ {f} << 3) & 2147483648",  # GT
    7: "not {f} & 536870912",  # LO: !C
    8: "{f} & 536870912",  # HS: C
    9: "{f} & 2147483648",  # MI: N
    10: "not {f} & 2147483648",  # PL: !N
}

#: NZCV of ``_x - {y}`` (``_d``, masked) written into ``cpu.psr``,
#: equivalent to ``set_flags_sub(x, y)``: N is bit 31 of ``_d``, Z its
#: zero test, C the unsigned ``_x >= {y}`` and V the signed overflow
#: (bit 31 of ``(_x ^ {y}) & (_x ^ _d)``) moved to bit 28.
_SET_NZCV = (
    "cpu.psr = cpu.psr & 268435455 | _d & 2147483648 | (not _d) << 30"
    " | (_x >= {y}) << 29 | ((_x ^ {y}) & (_x ^ _d) & 2147483648) >> 3"
)

#: Accesses whose softmmu TLB hit is emitted inline; the unprivileged
#: LDRT/STRT always call their helpers.
_SOFTMMU_INLINE = frozenset((Op.LDR, Op.STR, Op.LDRB, Op.STRB))

#: Engine state the inline hit path reads, loaded into locals once per
#: block.  ``_rk``/``_wk`` are the slot-mask bits a load/store needs
#: (``access << 1 | kernel``, see ``DBTSimulator._tlb``), or 0 while the
#: MMU is off, which sends every access to its helper.  An MCR can
#: flush the array, switch the ASID or turn the MMU off, so the locals
#: are reloaded after every helper a block calls unconditionally (MRC,
#: MCR, LDRT, STRT).  The softmmu fallbacks only refill a slot in
#: place, and the mode changes only at block-ending instructions.
_HOIST_LOADS = (
    "_tlb = s._tlb",
    "_tm = s._tlb_mask",
    "_at = s._asid_tag",
    "_rk = (s._cp15.sctlr & 1) << (cpu.psr & 1)",
)
_HOIST_STORES = ("_wk = _rk << 2", "_xp = s._exec_pages")


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


#: Byte-verified lowerings kept per memo key.  Programs that share a
#: start address (the SPEC proxies all load at one base) each keep
#: their block instead of evicting one another when a sweep
#: interleaves them; the bound stops code that rewrites itself in a
#: loop from growing one key without limit.
MEMO_WAYS = 16


class TranslationMemo:
    """Process-wide bounded LRU of lowered+compiled blocks.

    Keyed by ``(vaddr, DBTSpec.translation_key())``; generated source
    embeds absolute PCs, so the start address is part of the identity.
    A key holds up to :data:`MEMO_WAYS` entries, most recently used
    first, and :meth:`lookup` returns only one whose bytes match the
    live instructions, which makes entries safe across self-modifying
    code and across the many programs and engines of a sweep.
    ``capacity`` bounds the entries of all keys together; overflow
    drops the least recently used key.
    """

    def __init__(self, capacity=16384):
        self.capacity = capacity
        self._entries = collections.OrderedDict()
        self._size = 0
        self.hits = 0
        self.misses = 0

    def lookup(self, key, matches):
        """The entry under ``key`` for which ``matches(entry)`` holds,
        or ``None``; a hit becomes the key's first way."""
        ways = self._entries.get(key)
        if ways is not None:
            for index, entry in enumerate(ways):
                if matches(entry):
                    if index:
                        del ways[index]
                        ways.insert(0, entry)
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry
        self.misses += 1
        return None

    def insert(self, key, entry):
        entries = self._entries
        ways = entries.get(key)
        if ways is None:
            ways = entries[key] = []
        else:
            entries.move_to_end(key)
        ways.insert(0, entry)
        self._size += 1
        if len(ways) > MEMO_WAYS:
            ways.pop()
            self._size -= 1
        while self._size > self.capacity:
            _key, evicted = entries.popitem(last=False)
            self._size -= len(evicted)

    def clear(self):
        self._entries.clear()
        self._size = 0

    def __len__(self):
        return self._size


#: Shared across every engine in the process: a 20-version sweep
#: lowers and compiles each distinct block once, not twenty times.
TRANSLATION_MEMO = TranslationMemo()


#: The counters an inline softmmu hit would bump, in the order of the
#: ``pending`` tuple its fallback helper takes.
_ACCESS_COUNTERS = ("loads", "stores", "tlb_hits")


class _EmitCtx:
    """Per-lowering emission state.

    ``accounted`` is the number of instructions already covered by an
    emitted ``c.instructions`` increment, and ``pending`` the accesses
    counted since the last flush (``loads``/``stores``/``tlb_hits``,
    each inline access counted as a hit).  A fresh context per
    ``_generate`` call keeps the translator reentrant (no mutable
    instance state threads across emitter calls) and makes the
    incremental-accounting invariant explicit.
    """

    __slots__ = ("accounted", "pending", "hoisted", "last_inline")

    def __init__(self, nodes):
        self.accounted = 0
        self.pending = dict.fromkeys(_ACCESS_COUNTERS, 0)
        #: Index of the last inline softmmu access (-1: none), and the
        #: prologue lines that load what the hit paths read.
        inline = [node.idx for node in nodes if node.op in _SOFTMMU_INLINE]
        self.last_inline = inline[-1] if inline else -1
        stores = any(node.op in (Op.STR, Op.STRB) for node in nodes)
        if not inline:
            self.hoisted = ()
        else:
            self.hoisted = _HOIST_LOADS + (_HOIST_STORES if stores else ())

    def reload(self, body, idx):
        """Re-read the hoisted state after the helper of node ``idx``
        when an inline access follows it."""
        if self.last_inline > idx:
            body.extend(self.hoisted)


class Translator:
    """Translates basic blocks under a given :class:`~repro.sim.spec.DBTSpec`."""

    def __init__(self, spec):
        self.spec = spec

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
        cfg_key = self.spec.translation_key()
        memo_key = (vaddr, cfg_key)
        entry = TRANSLATION_MEMO.lookup(
            memo_key, lambda entry: self._entry_matches(memory, paddr, entry)
        )
        if entry is not None:
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
        max_insns = self.spec.max_block_insns
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
            with METRICS.phase("translate.passes"):
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
        # Instructions and inline accesses are counted statically and
        # flushed before every helper call that might fault or touch a
        # device (so counters are exact at side exits and at
        # device-observed snapshot points), and the remainder at each
        # block exit.
        ctx = _EmitCtx(nodes)
        body = list(ctx.hoisted)
        for node in nodes:
            if node.terminal:
                self._emit_terminal(ctx, body, node)
                break
            self._emit_insn(ctx, body, node)
        else:
            # Fall off the end of the block (length/page limit).
            last_pc = nodes[-1].pc
            self._emit_flush(ctx, body, len(nodes))
            body.append("cpu.pc = %d" % (last_pc + 4))
            self._emit_chain_exit(body, last_pc, last_pc + 4, slot=0)
        lines.extend("        " + line for line in body)
        lines.append("    return block")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _emit_flush(ctx, body, through):
        """Emit the increments covering insns up to index ``through``
        (exclusive count) and the pending accesses, relative to what is
        already flushed."""
        pending = through - ctx.accounted
        if pending > 0:
            body.append("c.instructions += %d" % pending)
            ctx.accounted = through
        for name, count in ctx.pending.items():
            if count:
                body.append("c.%s += %d" % (name, count))
                ctx.pending[name] = 0

    @staticmethod
    def _rx(node, reg):
        """The operand expression for ``reg``: a literal when the fold
        pass proved its value, else the register read."""
        value = node.sub(reg)
        return "r[%d]" % reg if value is None else str(value)

    @staticmethod
    def _cmp_rhs(node):
        """The second operand of a CMP/CMPI node: a literal when it is
        known, else ``_y`` (which the CMP's emission assigns)."""
        value = node.imm if node.op == Op.CMPI else node.sub(node.rm)
        return "_y" if value is None else str(value)

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
            if op in _SOFTMMU_INLINE:
                self._emit_softmmu(ctx, body, node)
                return
            self._emit_flush(ctx, body, node.idx + 1)
            body.append("s.fault_state = (%d, %d)" % (node.pc, node.idx))
            addr = self._addr_expr(node)
            if op == Op.LDRT:
                body.append("r[%d] = s.mem_read32_user(%s)" % (rd, addr))
            else:  # STRT
                body.append("s.mem_write32_user(%s, %s)" % (addr, self._rx(node, rd)))
            ctx.reload(body, node.idx)
            return
        if op in (Op.CMP, Op.CMPI):
            # A fused branch tests _x/_y directly; flags are still set
            # because they are live-out through it.
            body.append("_x = %s" % self._rx(node, rn))
            y = self._cmp_rhs(node)
            if y == "_y":
                body.append("_y = r[%d]" % rm)
            body.append("_d = (_x - %s) & %s" % (y, MASK))
            body.append(_SET_NZCV.format(y=y))
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
            self._emit_flush(ctx, body, node.idx + 1)
            body.append("s.fault_state = (%d, %d)" % (node.pc, node.idx))
            body.append("r[%d] = s.cop_read(%d, %d)" % (rd, rn, imm & 0xFF))
            ctx.reload(body, node.idx)
        elif op == Op.MCR:
            self._emit_flush(ctx, body, node.idx + 1)
            body.append("s.fault_state = (%d, %d)" % (node.pc, node.idx))
            body.append("s.cop_write(%d, %d, %s)" % (rn, imm & 0xFF, self._rx(node, rd)))
            ctx.reload(body, node.idx)
        else:  # pragma: no cover - terminals handled elsewhere
            raise AssertionError("unexpected op in straight-line emitter: %r" % op)

    def _emit_softmmu(self, ctx, body, node):
        """Emit an LDR/STR/LDRB/STRB whose softmmu hit runs inline.

        The hit path probes the engine's direct-mapped TLB slot and
        touches the RAM buffer itself; it counts nothing, because the
        access is added to ``ctx.pending`` as a hit.  Anything else --
        a miss, the MMU off, a device page, a permission the slot's
        mask does not grant, an unaligned word, or a store to a page
        that has held translated code -- calls the helper with the
        counts not yet flushed, so it counts, faults and invalidates
        translated code exactly (see ``DBTSimulator.mem_read``).  A
        hit cannot fault, so only the fallback records ``fault_state``.
        """
        op, rd = node.op, node.rd
        store = op in (Op.STR, Op.STRB)
        size = 4 if op in (Op.LDR, Op.STR) else 1
        body.append("_v = %s" % self._addr_expr(node))
        body.append("_e = _tlb[_v >> 12 & _tm]")
        hit = "_e is not None and _e[0] == _v >> 12 | _at and _e[1] & %s" % (
            "_wk" if store else "_rk"
        )
        if store:
            hit += " and _e[4] not in _xp"
        if size == 4:
            # Unaligned words take the helper, which slices the bytes.
            hit += " and not _v & 3"
        body.append("if %s:" % hit)
        value = node.sub(rd)
        if op == Op.LDR:
            body.append("    r[%d] = _e[6][(_v & 4095) >> 2]" % rd)
        elif op == Op.LDRB:
            body.append("    r[%d] = _e[2][_e[3] + (_v & 4095)]" % rd)
        elif op == Op.STR:
            data = self._rx(node, rd)
            body.append("    _e[6][(_v & 4095) >> 2] = %s" % data)
        else:  # STRB
            data = "r[%d] & 255" % rd if value is None else str(value & 255)
            body.append("    _e[2][_e[3] + (_v & 4095)] = %s" % data)
        pending = (node.idx + 1 - ctx.accounted,) + tuple(ctx.pending.values())
        where = "(%d, %d), %r" % (node.pc, node.idx, pending)
        body.append("else:")
        if store:
            body.append("    s.mem_write(_v, %s, %d, %s)" % (data, size, where))
        else:
            body.append("    r[%d] = s.mem_read(_v, %d, %s)" % (rd, size, where))
        ctx.pending["stores" if store else "loads"] += 1
        ctx.pending["tlb_hits"] += 1

    # -- terminals ---------------------------------------------------------
    def _chainable(self, from_pc, to_pc):
        if not self.spec.chain_enabled:
            return False
        if (from_pc >> PAGE_SHIFT) == (to_pc >> PAGE_SHIFT):
            return True
        return self.spec.chain_cross_page

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
        self._emit_flush(ctx, body, node.idx + 1)
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
            if node.fused_cmp is not None:
                rhs = self._cmp_rhs(node.fused_cmp)
                body.append("if %s:" % _COND_EXPR[node.cond].format(y=rhs))
            elif "{f} ^" in _PSR_COND[node.cond]:
                body.append("_f = cpu.psr")
                body.append("if %s:" % _PSR_COND[node.cond].format(f="_f"))
            else:
                body.append("if %s:" % _PSR_COND[node.cond].format(f="cpu.psr"))
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
