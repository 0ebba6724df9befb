"""The functional execution core shared by the interpreter-style engines.

:class:`FunctionalCore` implements complete SRV32 semantics against a
board: MMU translation through a pluggable data TLB, decode caching,
exception and interrupt delivery, device access, and full event
accounting.  The fast interpreter, the detailed interpreter and the
direct-execution models all specialise it; the DBT engine has its own
execution path but reuses the same delivery and translation rules.
"""

from repro.errors import DecodeError, UnsupportedFeatureError
from repro.isa.decoder import decode
from repro.isa.encoding import BLOCK_END_OPS, Op
from repro.machine.coprocessor import UndefinedCoprocessorAccess
from repro.machine.cpu import ExceptionVector, PSR_FLAGS_MASK, PSR_IRQ_ENABLE, PSR_MODE_KERNEL
from repro.machine.mmu import AccessType, Fault, FaultType
from repro.machine.tlb import SoftTLB
from repro.obs.metrics import METRICS
from repro.sim.base import ExitReason, RunResult, Simulator

MASK32 = 0xFFFFFFFF
PAGE_SHIFT = 12

#: Ops that end a predecoded straight-line run.  Everything in the
#: ISA's block-end set, plus MCR: a coprocessor write can toggle the
#: MMU or perform TLB maintenance, and stepping re-fetches
#: through the updated translation regime on the very next instruction.
#: (MRC is read-only and safe mid-run.)
_BLOCK_TERMINALS = frozenset(BLOCK_END_OPS) | {Op.MCR}


class GuestUndef(Exception):
    """Internal signal: the current instruction raises UNDEF."""


class FunctionalCore(Simulator):
    """Interpreter-style engine with pluggable caching structures.

    Parameters
    ----------
    board:
        The machine to execute.
    arch:
        Architecture profile (used for reporting only).
    dtlb:
        Data-TLB structure (``lookup``/``insert``/``flush``/...).  The
        TLB maintenance coprocessor operations act on this structure.
    itlb:
        Instruction-TLB structure.
    use_decode_cache:
        Cache decoded instructions by physical address (invalidated on
        stores into cached pages, i.e. self-modifying code is handled).
        With the decode cache on and no per-instruction ``_pre_execute``
        hook attached (tracer, debugger, detailed model), :meth:`run`
        also records *predecoded straight-line runs* per physical page
        and replays them with one fetch check per run; guest-visible
        counters are bit-identical to stepping one instruction at a
        time.
    asid_tagged:
        Model an ASID-tagged data TLB: address-space switches retag
        instead of flushing.  Engines without tagging must flush the
        data TLB on every ASID write to stay correct (the conservative
        design the paper notes real simulators take).
    """

    name = "funccore"
    execution_model = "interpreter"
    #: Attaching a ``_pre_execute`` hook makes :meth:`run` step one
    #: instruction at a time, so the hook sees every retired
    #: instruction -- Tracer/Debugger can attach.
    supports_insn_trace = True

    def __init__(
        self,
        board,
        arch=None,
        dtlb=None,
        itlb=None,
        use_decode_cache=True,
        asid_tagged=False,
    ):
        super().__init__(board, arch)
        self.asid_tagged = asid_tagged
        self._memory = board.memory
        self._cp15 = board.cp15
        self._cops = board.cops
        self._intc = board.intc
        self._walker = board.walker
        self._dtlb = dtlb if dtlb is not None else SoftTLB(capacity=64)
        self._itlb = itlb if itlb is not None else SoftTLB(capacity=32)
        self._use_decode_cache = use_decode_cache
        #: Decoded-instruction cache, one dict per physical page
        #: (``ppage -> {paddr: (word, insn)}``) so an SMC invalidation
        #: drops the whole page in O(1) instead of probing every
        #: word-aligned address in it.
        self._decode_pages = {}
        self._code_pages = set()
        #: Pages that ever contained executed code (never pruned); used
        #: to account ``code_writes`` -- the tested operation of the
        #: Code Generation benchmarks.
        self._exec_pages = set()
        #: Last-page fetch fast path: ``(vpage, kernel, mmu_on, data,
        #: page_off, ppage)`` for the most recently fetched code page.
        #: ``data``/``page_off`` index the page's RAM region directly.
        #: Invalidated on TLB maintenance and address-space switches;
        #: SCTLR.M and the privilege mode are part of the key, so mode
        #: or translation-regime changes miss naturally.
        self._fetch_state = None
        #: Last-page *data* fast path, mirroring the fetch one:
        #: ``(vpage, sctlr_bit, perms_or_None, data, page_off, ppage)``.
        #: ``perms`` is the live data-TLB entry's
        #: :meth:`~repro.machine.mmu.TranslationResult.perm_mask` when
        #: the MMU was on at arm time (each access tests its bit,
        #: ``access << 1 | kernel``) and ``None`` for a physical
        #: (MMU-off) page.  Armed only for RAM pages
        #: fully inside their region, and -- with the MMU on -- only for
        #: TLBs whose ``lookup`` is side-effect-free beyond its own
        #: tallies (the SoftTLB family; the set-associative model
        #: mutates LRU order on lookup and must keep the slow path).
        self._data_state = None
        self._data_fast_ok = isinstance(self._dtlb, SoftTLB)
        #: Predecoded straight-line runs, one dict per physical page
        #: (``ppage -> {start_paddr: [(handler, insn), ...]}``), dropped
        #: together with the decode page on SMC invalidation.
        self._block_pages = {}
        #: Bumped on every code-page invalidation; replay/record loops
        #: compare it per instruction so a self-modifying store bails
        #: out exactly where stepping would start re-decoding.
        self._block_epoch = 0
        self._cp15.tlb_flush_hook = self._on_tlb_flush
        self._cp15.tlb_invalidate_hook = self._on_tlb_invalidate
        self._cp15.asid_hook = self._on_asid_write
        self._dispatch = self._build_dispatch()

    # ------------------------------------------------------------------
    # TLB maintenance (driven by CP15 writes from guest code)
    # ------------------------------------------------------------------
    def _on_tlb_flush(self):
        self.counters.tlb_flushes += 1
        self._dtlb.flush()
        self._fetch_state = None
        self._data_state = None

    def _on_tlb_invalidate(self, vaddr):
        self.counters.tlb_invalidations += 1
        self._dtlb.invalidate(vaddr)
        self._fetch_state = None
        self._data_state = None

    def _on_asid_write(self, asid):
        """Address-space switch: retag if the TLB supports ASIDs,
        otherwise flush conservatively."""
        self.counters.context_switches += 1
        if self.asid_tagged and hasattr(self._dtlb, "current_asid"):
            self._dtlb.current_asid = asid
        else:
            self._dtlb.flush()
        self._fetch_state = None
        self._data_state = None

    # ------------------------------------------------------------------
    # Address translation
    # ------------------------------------------------------------------
    def _translate_data(self, vaddr, access, kernel):
        cp15 = self._cp15
        if not cp15.sctlr & 1:
            return vaddr
        dtlb = self._dtlb
        counters = self.counters
        entry = dtlb.lookup(vaddr)
        if entry is not None:
            counters.tlb_hits += 1
            if not entry.allows(access, kernel):
                raise Fault(FaultType.PERMISSION, vaddr, access)
            return entry.ppage | (vaddr & 0xFFF)
        counters.tlb_misses += 1
        # Host-side observability only (miss path, never per-insn):
        # guest accounting above is identical either way.
        if METRICS.enabled:
            with METRICS.phase("funccore.tlb_walk"):
                result = self._walker.walk(cp15.ttbr, vaddr, access, kernel)
        else:
            result = self._walker.walk(cp15.ttbr, vaddr, access, kernel)
        counters.ptw_levels += result.levels
        entry = result.narrow(vaddr)
        before = dtlb.evictions
        dtlb.insert(vaddr, entry)
        if dtlb.evictions != before:
            counters.tlb_evictions += 1
            # The victim may be the armed last-data page; a fast-path
            # hit on it would then diverge from the baseline's miss.
            self._data_state = None
        return entry.ppage | (vaddr & 0xFFF)

    def _translate_fetch(self, vaddr):
        cp15 = self._cp15
        if not cp15.sctlr & 1:
            return vaddr
        entry = self._itlb.lookup(vaddr)
        if entry is not None:
            if not entry.allows(AccessType.EXECUTE, self.cpu.psr & PSR_MODE_KERNEL):
                raise Fault(FaultType.PERMISSION, vaddr, AccessType.EXECUTE)
            return entry.ppage | (vaddr & 0xFFF)
        if METRICS.enabled:
            with METRICS.phase("funccore.tlb_walk"):
                result = self._walker.walk(
                    cp15.ttbr,
                    vaddr,
                    AccessType.EXECUTE,
                    self.cpu.psr & PSR_MODE_KERNEL,
                )
        else:
            result = self._walker.walk(
                cp15.ttbr, vaddr, AccessType.EXECUTE, self.cpu.psr & PSR_MODE_KERNEL
            )
        entry = result.narrow(vaddr)
        self._itlb.insert(vaddr, entry)
        return entry.ppage | (vaddr & 0xFFF)

    # ------------------------------------------------------------------
    # Memory access
    # ------------------------------------------------------------------
    def _device_access_allowed(self, device, offset, is_write):
        """Hook for engines that do not implement certain devices."""
        return True

    def _note_data_page(self, vaddr, paddr, region):
        """Arm the last-data-page fast path for ``vaddr``'s page.

        Only pages fully inside their RAM region (plus an unaligned
        spill word) qualify, so the fast path can never read past the
        buffer; with the MMU on the live TLB entry's permission mask is
        captured so the fast path replicates the baseline hit exactly
        (counters, permission check, physical address).
        """
        sctlr_bit = self._cp15.sctlr & 1
        perms = None
        if sctlr_bit:
            if not self._data_fast_ok:
                return
            entry = self._dtlb.peek(vaddr)
            if entry is None:
                return
            perms = entry.perm_mask()
        page_base = paddr & ~0xFFF
        if not region.contains(page_base, (1 << PAGE_SHIFT) + 4):
            return
        self._data_state = (
            vaddr >> PAGE_SHIFT,
            sctlr_bit,
            perms,
            region.data,
            page_base - region.base,
            paddr >> PAGE_SHIFT,
        )

    def _mem_read(self, vaddr, size, kernel):
        state = self._data_state
        if (
            state is not None
            and state[0] == vaddr >> PAGE_SHIFT
            and state[1] == (self._cp15.sctlr & 1)
        ):
            perms = state[2]
            if perms is not None:
                self.counters.tlb_hits += 1
                self._dtlb.hits += 1
                if not perms >> kernel & 1:  # bit READ << 1 | kernel
                    raise Fault(FaultType.PERMISSION, vaddr, AccessType.READ)
            off = state[4] + (vaddr & 0xFFF)
            return int.from_bytes(state[3][off : off + size], "little")
        paddr = self._translate_data(vaddr, AccessType.READ, kernel)
        memory = self._memory
        region = memory.find_ram(paddr, size)
        if region is not None:
            off = paddr - region.base
            self._note_data_page(vaddr, paddr, region)
            return int.from_bytes(region.data[off : off + size], "little")
        hit = memory.find_device(paddr)
        if hit is None:
            raise Fault(FaultType.BUS, vaddr, AccessType.READ)
        base, _size, device = hit
        if not self._device_access_allowed(device, paddr - base, False):
            raise UnsupportedFeatureError(self.name, device.name)
        self.counters.mmio_reads += 1
        return device.read(paddr - base, size) & ((1 << (8 * size)) - 1)

    def _mem_write(self, vaddr, value, size, kernel):
        state = self._data_state
        if (
            state is not None
            and state[0] == vaddr >> PAGE_SHIFT
            and state[1] == (self._cp15.sctlr & 1)
        ):
            perms = state[2]
            if perms is not None:
                self.counters.tlb_hits += 1
                self._dtlb.hits += 1
                if not perms >> (2 | kernel) & 1:  # bit WRITE << 1 | kernel
                    raise Fault(FaultType.PERMISSION, vaddr, AccessType.WRITE)
            off = state[4] + (vaddr & 0xFFF)
            state[3][off : off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
                size, "little"
            )
            ppage = state[5]
            if ppage in self._exec_pages:
                self.counters.code_writes += 1
            if ppage in self._code_pages:
                self._invalidate_code_page(ppage)
            return
        paddr = self._translate_data(vaddr, AccessType.WRITE, kernel)
        memory = self._memory
        region = memory.find_ram(paddr, size)
        if region is not None:
            off = paddr - region.base
            region.data[off : off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
                size, "little"
            )
            self._note_data_page(vaddr, paddr, region)
            ppage = paddr >> PAGE_SHIFT
            if ppage in self._exec_pages:
                self.counters.code_writes += 1
            if ppage in self._code_pages:
                self._invalidate_code_page(ppage)
            return
        hit = memory.find_device(paddr)
        if hit is None:
            raise Fault(FaultType.BUS, vaddr, AccessType.WRITE)
        base, _size, device = hit
        if not self._device_access_allowed(device, paddr - base, True):
            raise UnsupportedFeatureError(self.name, device.name)
        self.counters.mmio_writes += 1
        device.write(paddr - base, value & ((1 << (8 * size)) - 1), size)

    def _invalidate_code_page(self, ppage):
        """Self-modifying code: drop cached decodes for the page."""
        self.counters.smc_invalidations += 1
        self._decode_pages.pop(ppage, None)
        self._code_pages.discard(ppage)
        self._block_pages.pop(ppage, None)
        self._block_epoch += 1

    # ------------------------------------------------------------------
    # Fetch and decode
    # ------------------------------------------------------------------
    def _fetch(self, pc):
        state = self._fetch_state
        if (
            state is not None
            and state[0] == pc >> PAGE_SHIFT
            and state[1] == (self.cpu.psr & PSR_MODE_KERNEL)
            and state[2] == (self._cp15.sctlr & 1)
        ):
            off = state[4] + (pc & 0xFFF)
            word = int.from_bytes(state[3][off : off + 4], "little")
            return self._decode_at((state[5] << PAGE_SHIFT) | (pc & 0xFFF), word)
        paddr = self._translate_fetch(pc)
        memory = self._memory
        region = memory.find_ram(paddr, 4)
        if region is None:
            raise Fault(FaultType.BUS, pc, AccessType.EXECUTE)
        off = paddr - region.base
        word = int.from_bytes(region.data[off : off + 4], "little")
        page_base = paddr & ~0xFFF
        # Cache the page for subsequent same-page fetches; require the
        # page (plus an unaligned-fetch spill word) to sit fully inside
        # the region so the fast path can never read past it.
        if region.contains(page_base, (1 << PAGE_SHIFT) + 4):
            self._fetch_state = (
                pc >> PAGE_SHIFT,
                self.cpu.psr & PSR_MODE_KERNEL,
                self._cp15.sctlr & 1,
                region.data,
                page_base - region.base,
                paddr >> PAGE_SHIFT,
            )
        return self._decode_at(paddr, word)

    def _decode_at(self, paddr, word):
        """Decode ``word`` at ``paddr`` through the per-page decode
        cache (when enabled), preserving hit/miss accounting."""
        if not self._use_decode_cache:
            self.counters.decode_misses += 1
            self._exec_pages.add(paddr >> PAGE_SHIFT)
            if METRICS.enabled:
                with METRICS.phase("funccore.decode"):
                    return decode(word)
            return decode(word)
        ppage = paddr >> PAGE_SHIFT
        page = self._decode_pages.get(ppage)
        if page is None:
            page = self._decode_pages[ppage] = {}
        else:
            entry = page.get(paddr)
            if entry is not None and entry[0] == word:
                self.counters.decode_hits += 1
                return entry[1]
        self.counters.decode_misses += 1
        if METRICS.enabled:
            with METRICS.phase("funccore.decode"):
                insn = decode(word)
        else:
            insn = decode(word)
        page[paddr] = (word, insn)
        self._code_pages.add(ppage)
        self._exec_pages.add(ppage)
        return insn

    # ------------------------------------------------------------------
    # Exception delivery
    # ------------------------------------------------------------------
    def _deliver(self, vector, return_pc, fault=None):
        if METRICS.enabled:
            METRICS.inc("funccore.exceptions")
        if fault is not None:
            self._cp15.record_fault(fault)
        self.cpu.enter_exception(return_pc, self._cp15.vbar, vector)

    def _require_kernel(self):
        if not self.cpu.psr & PSR_MODE_KERNEL:
            raise GuestUndef()

    # ------------------------------------------------------------------
    # Instruction execution
    # ------------------------------------------------------------------
    def _build_dispatch(self):
        return {
            Op.NOP: self._op_nop,
            Op.ADD: self._op_add,
            Op.SUB: self._op_sub,
            Op.AND: self._op_and,
            Op.ORR: self._op_orr,
            Op.EOR: self._op_eor,
            Op.LSL: self._op_lsl,
            Op.LSR: self._op_lsr,
            Op.ASR: self._op_asr,
            Op.MUL: self._op_mul,
            Op.UDIV: self._op_udiv,
            Op.UREM: self._op_urem,
            Op.MOV: self._op_mov,
            Op.MVN: self._op_mvn,
            Op.CMP: self._op_cmp,
            Op.ADDI: self._op_addi,
            Op.SUBI: self._op_subi,
            Op.ANDI: self._op_andi,
            Op.ORRI: self._op_orri,
            Op.EORI: self._op_eori,
            Op.LSLI: self._op_lsli,
            Op.LSRI: self._op_lsri,
            Op.ASRI: self._op_asri,
            Op.MULI: self._op_muli,
            Op.MOVI: self._op_movi,
            Op.MOVT: self._op_movt,
            Op.CMPI: self._op_cmpi,
            Op.LDR: self._op_ldr,
            Op.STR: self._op_str,
            Op.LDRB: self._op_ldrb,
            Op.STRB: self._op_strb,
            Op.LDRT: self._op_ldrt,
            Op.STRT: self._op_strt,
            Op.B: self._op_b,
            Op.BL: self._op_bl,
            Op.BR: self._op_br,
            Op.BLR: self._op_blr,
            Op.SWI: self._op_swi,
            Op.SRET: self._op_sret,
            Op.HALT: self._op_halt,
            Op.CPS: self._op_cps,
            Op.MRC: self._op_mrc,
            Op.MCR: self._op_mcr,
            Op.WFI: self._op_wfi,
            Op.UND: self._op_und,
        }

    # ALU -----------------------------------------------------------------
    def _op_nop(self, insn, pc):
        self.cpu.pc = pc + 4

    def _op_add(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = (regs[insn.rn] + regs[insn.rm]) & MASK32
        self.cpu.pc = pc + 4

    def _op_sub(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = (regs[insn.rn] - regs[insn.rm]) & MASK32
        self.cpu.pc = pc + 4

    def _op_and(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = regs[insn.rn] & regs[insn.rm]
        self.cpu.pc = pc + 4

    def _op_orr(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = regs[insn.rn] | regs[insn.rm]
        self.cpu.pc = pc + 4

    def _op_eor(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = regs[insn.rn] ^ regs[insn.rm]
        self.cpu.pc = pc + 4

    def _op_lsl(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = (regs[insn.rn] << (regs[insn.rm] & 31)) & MASK32
        self.cpu.pc = pc + 4

    def _op_lsr(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = regs[insn.rn] >> (regs[insn.rm] & 31)
        self.cpu.pc = pc + 4

    def _op_asr(self, insn, pc):
        regs = self.cpu.regs
        value = regs[insn.rn]
        if value & 0x80000000:
            value -= 1 << 32
        regs[insn.rd] = (value >> (regs[insn.rm] & 31)) & MASK32
        self.cpu.pc = pc + 4

    def _op_mul(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = (regs[insn.rn] * regs[insn.rm]) & MASK32
        self.cpu.pc = pc + 4

    def _op_udiv(self, insn, pc):
        regs = self.cpu.regs
        divisor = regs[insn.rm]
        regs[insn.rd] = regs[insn.rn] // divisor if divisor else 0
        self.cpu.pc = pc + 4

    def _op_urem(self, insn, pc):
        regs = self.cpu.regs
        divisor = regs[insn.rm]
        regs[insn.rd] = regs[insn.rn] % divisor if divisor else 0
        self.cpu.pc = pc + 4

    def _op_mov(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = regs[insn.rm]
        self.cpu.pc = pc + 4

    def _op_mvn(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = (~regs[insn.rm]) & MASK32
        self.cpu.pc = pc + 4

    def _op_cmp(self, insn, pc):
        regs = self.cpu.regs
        self.cpu.set_flags_sub(regs[insn.rn], regs[insn.rm])
        self.cpu.pc = pc + 4

    def _op_addi(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = (regs[insn.rn] + insn.imm) & MASK32
        self.cpu.pc = pc + 4

    def _op_subi(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = (regs[insn.rn] - insn.imm) & MASK32
        self.cpu.pc = pc + 4

    def _op_andi(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = regs[insn.rn] & insn.imm
        self.cpu.pc = pc + 4

    def _op_orri(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = regs[insn.rn] | insn.imm
        self.cpu.pc = pc + 4

    def _op_eori(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = regs[insn.rn] ^ insn.imm
        self.cpu.pc = pc + 4

    def _op_lsli(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = (regs[insn.rn] << (insn.imm & 31)) & MASK32
        self.cpu.pc = pc + 4

    def _op_lsri(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = regs[insn.rn] >> (insn.imm & 31)
        self.cpu.pc = pc + 4

    def _op_asri(self, insn, pc):
        regs = self.cpu.regs
        value = regs[insn.rn]
        if value & 0x80000000:
            value -= 1 << 32
        regs[insn.rd] = (value >> (insn.imm & 31)) & MASK32
        self.cpu.pc = pc + 4

    def _op_muli(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = (regs[insn.rn] * insn.imm) & MASK32
        self.cpu.pc = pc + 4

    def _op_movi(self, insn, pc):
        self.cpu.regs[insn.rd] = insn.imm
        self.cpu.pc = pc + 4

    def _op_movt(self, insn, pc):
        regs = self.cpu.regs
        regs[insn.rd] = (regs[insn.rd] & 0xFFFF) | (insn.imm << 16)
        self.cpu.pc = pc + 4

    def _op_cmpi(self, insn, pc):
        self.cpu.set_flags_sub(self.cpu.regs[insn.rn], insn.imm)
        self.cpu.pc = pc + 4

    # Memory ----------------------------------------------------------------
    def _op_ldr(self, insn, pc):
        cpu = self.cpu
        regs = cpu.regs
        addr = (regs[insn.rn] + insn.imm) & MASK32
        value = self._mem_read(addr, 4, cpu.psr & PSR_MODE_KERNEL)
        self.counters.loads += 1
        regs[insn.rd] = value
        cpu.pc = pc + 4

    def _op_str(self, insn, pc):
        cpu = self.cpu
        regs = cpu.regs
        addr = (regs[insn.rn] + insn.imm) & MASK32
        self._mem_write(addr, regs[insn.rd], 4, cpu.psr & PSR_MODE_KERNEL)
        self.counters.stores += 1
        cpu.pc = pc + 4

    def _op_ldrb(self, insn, pc):
        cpu = self.cpu
        regs = cpu.regs
        addr = (regs[insn.rn] + insn.imm) & MASK32
        value = self._mem_read(addr, 1, cpu.psr & PSR_MODE_KERNEL)
        self.counters.loads += 1
        regs[insn.rd] = value
        cpu.pc = pc + 4

    def _op_strb(self, insn, pc):
        cpu = self.cpu
        regs = cpu.regs
        addr = (regs[insn.rn] + insn.imm) & MASK32
        self._mem_write(addr, regs[insn.rd] & 0xFF, 1, cpu.psr & PSR_MODE_KERNEL)
        self.counters.stores += 1
        cpu.pc = pc + 4

    def _op_ldrt(self, insn, pc):
        cpu = self.cpu
        regs = cpu.regs
        addr = (regs[insn.rn] + insn.imm) & MASK32
        value = self._mem_read(addr, 4, 0)  # user privileges
        self.counters.loads += 1
        self.counters.nonpriv_accesses += 1
        regs[insn.rd] = value
        cpu.pc = pc + 4

    def _op_strt(self, insn, pc):
        cpu = self.cpu
        regs = cpu.regs
        addr = (regs[insn.rn] + insn.imm) & MASK32
        self._mem_write(addr, regs[insn.rd], 4, 0)  # user privileges
        self.counters.stores += 1
        self.counters.nonpriv_accesses += 1
        cpu.pc = pc + 4

    # Control flow -------------------------------------------------------------
    def _classify_taken(self, pc, target, direct):
        counters = self.counters
        if (pc >> PAGE_SHIFT) == (target >> PAGE_SHIFT):
            if direct:
                counters.branches_direct_intra += 1
            else:
                counters.branches_indirect_intra += 1
        elif direct:
            counters.branches_direct_inter += 1
        else:
            counters.branches_indirect_inter += 1

    def _op_b(self, insn, pc):
        cpu = self.cpu
        if insn.cond and not cpu.condition_holds(insn.cond):
            self.counters.branches_not_taken += 1
            cpu.pc = pc + 4
            return
        target = (pc + 4 + 4 * insn.imm) & MASK32
        self._classify_taken(pc, target, True)
        cpu.pc = target

    def _op_bl(self, insn, pc):
        cpu = self.cpu
        if insn.cond and not cpu.condition_holds(insn.cond):
            self.counters.branches_not_taken += 1
            cpu.pc = pc + 4
            return
        cpu.regs[14] = (pc + 4) & MASK32
        target = (pc + 4 + 4 * insn.imm) & MASK32
        self.counters.calls += 1
        self._classify_taken(pc, target, True)
        cpu.pc = target

    def _op_br(self, insn, pc):
        cpu = self.cpu
        target = cpu.regs[insn.rn] & MASK32
        self._classify_taken(pc, target, False)
        cpu.pc = target

    def _op_blr(self, insn, pc):
        cpu = self.cpu
        target = cpu.regs[insn.rn] & MASK32
        cpu.regs[14] = (pc + 4) & MASK32
        self.counters.calls += 1
        self._classify_taken(pc, target, False)
        cpu.pc = target

    # System -----------------------------------------------------------------
    def _op_swi(self, insn, pc):
        self.counters.syscalls += 1
        self._deliver(ExceptionVector.SWI, pc + 4)

    def _op_sret(self, insn, pc):
        self._require_kernel()
        self.counters.exception_returns += 1
        self.cpu.exception_return()

    def _op_halt(self, insn, pc):
        cpu = self.cpu
        cpu.halted = True
        cpu.halt_code = insn.imm
        cpu.pc = pc + 4

    def _op_cps(self, insn, pc):
        self._require_kernel()
        cpu = self.cpu
        cpu.psr = (cpu.psr & PSR_FLAGS_MASK) | (insn.imm & (PSR_MODE_KERNEL | PSR_IRQ_ENABLE))
        cpu.pc = pc + 4

    def _op_mrc(self, insn, pc):
        self._require_kernel()
        try:
            value = self._cops.read(insn.rn, insn.imm & 0xFF)
        except UndefinedCoprocessorAccess:
            raise GuestUndef()
        self.counters.coproc_reads += 1
        self.cpu.regs[insn.rd] = value
        self.cpu.pc = pc + 4

    def _op_mcr(self, insn, pc):
        self._require_kernel()
        try:
            self._cops.write(insn.rn, insn.imm & 0xFF, self.cpu.regs[insn.rd])
        except UndefinedCoprocessorAccess:
            raise GuestUndef()
        self.counters.coproc_writes += 1
        self.cpu.pc = pc + 4

    def _op_wfi(self, insn, pc):
        cpu = self.cpu
        cpu.waiting = True
        cpu.pc = pc + 4

    def _op_und(self, insn, pc):
        raise GuestUndef()

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def _pre_execute(self, insn, pc):
        """Hook for subclasses that model extra per-instruction work."""

    def _pre_execute_hooked(self):
        """True when per-instruction tooling (a tracer/debugger instance
        attribute) or a subclass override needs to see every retired
        instruction, which rules out block replay.  A detached tool puts
        back the bound base method, which counts as unhooked again."""
        return (
            getattr(self._pre_execute, "__func__", None)
            is not FunctionalCore._pre_execute
        )

    def run(self, max_insns=None):
        """Run until halt, deadlock or ``max_insns`` more instructions.

        Each iteration either steps one instruction (:meth:`_step`) or,
        when the decode cache is on and nothing watches each
        instruction, records or replays a predecoded straight-line run.
        Replay is *observationally identical* to stepping: every counter
        bump, fault delivery and interrupt sample happens at the same
        guest-instruction boundary; it merely replaces fetch/decode/
        dict-dispatch per instruction with one fetch-state check per
        run plus a direct ``(handler, insn)`` call.
        """
        cpu = self.cpu
        counters = self.counters
        intc = self._intc
        cp15 = self._cp15
        block_pages = self._block_pages
        replay = self._use_decode_cache and not self._pre_execute_hooked()
        start = counters.instructions
        limit = start + max_insns if max_insns is not None else float("inf")
        while not cpu.halted:
            if counters.instructions >= limit:
                return RunResult(ExitReason.LIMIT, None, counters.instructions - start)
            # Interrupts are sampled at instruction boundaries.
            if intc.pending & intc.enable:
                if cpu.waiting or cpu.psr & PSR_IRQ_ENABLE:
                    cpu.waiting = False
                    if cpu.psr & PSR_IRQ_ENABLE:
                        counters.irqs += 1
                        self._deliver(ExceptionVector.IRQ, cpu.pc)
            elif cpu.waiting:
                return RunResult(ExitReason.DEADLOCK, None, counters.instructions - start)
            pc = cpu.pc
            if not replay:
                self._step(pc)
                continue
            state = self._fetch_state
            if (
                state is None
                or state[0] != pc >> PAGE_SHIFT
                or state[1] != (cpu.psr & PSR_MODE_KERNEL)
                or state[2] != (cp15.sctlr & 1)
            ):
                # Cold fetch page: one step re-arms the state (or
                # delivers the prefetch abort).
                self._step(pc)
                continue
            ppage = state[5]
            paddr = (ppage << PAGE_SHIFT) | (pc & 0xFFF)
            page_blocks = block_pages.get(ppage)
            block = None if page_blocks is None else page_blocks.get(paddr)
            if block is None:
                self._record_block(pc, paddr, state, limit)
                continue
            # Replay.  Every entry retires as a decode-cache hit -- the
            # record pass populated the decode page, and any write that
            # could stale it bumps the epoch, checked between entries.
            epoch = self._block_epoch
            i = 0
            n = len(block)
            while True:
                handler, insn = block[i]
                counters.decode_hits += 1
                counters.instructions += 1
                try:
                    handler(insn, pc)
                except Fault as fault:
                    counters.data_aborts += 1
                    cp15.record_fault(fault)
                    self._deliver(ExceptionVector.DATA_ABORT, pc)
                    break
                except GuestUndef:
                    counters.undefs += 1
                    self._deliver(ExceptionVector.UNDEF, pc + 4)
                    break
                i += 1
                if (
                    i == n
                    or self._block_epoch != epoch
                    or counters.instructions >= limit
                    or (intc.pending & intc.enable and cpu.psr & PSR_IRQ_ENABLE)
                ):
                    break
                pc = cpu.pc
        return RunResult(ExitReason.HALT, cpu.halt_code, counters.instructions - start)

    def _step(self, pc):
        """Fetch, decode and execute the one instruction at ``pc``."""
        counters = self.counters
        try:
            insn = self._fetch(pc)
        except Fault as fault:
            counters.prefetch_aborts += 1
            self._cp15.record_fault(fault)
            self._deliver(ExceptionVector.PREFETCH_ABORT, pc)
            return
        except DecodeError:
            # Architecturally-undefined encoding.
            counters.instructions += 1
            counters.undefs += 1
            self._deliver(ExceptionVector.UNDEF, pc + 4)
            return
        counters.instructions += 1
        self._pre_execute(insn, pc)
        try:
            self._dispatch[insn.op](insn, pc)
        except Fault as fault:
            counters.data_aborts += 1
            self._cp15.record_fault(fault)
            self._deliver(ExceptionVector.DATA_ABORT, pc)
        except GuestUndef:
            counters.undefs += 1
            self._deliver(ExceptionVector.UNDEF, pc + 4)

    def _record_block(self, pc, paddr, state, limit):
        """Execute-and-record a straight-line run starting at ``pc``.

        Execution accounting is :meth:`_step`'s (``_decode_at`` hit/miss
        bookkeeping, one ``instructions`` bump per retired insn, the
        same delivery points) so the *first* pass over any code is
        bit-identical to stepping; the ``(handler, insn)`` list is
        stored for replay only if nothing invalidated code mid-run.
        """
        cpu = self.cpu
        counters = self.counters
        intc = self._intc
        dispatch = self._dispatch
        data = state[3]
        page_off = state[4]
        start_ppage = state[5]
        start_paddr = paddr
        epoch = self._block_epoch
        entries = []
        while True:
            off = page_off + (paddr & 0xFFF)
            word = int.from_bytes(data[off : off + 4], "little")
            try:
                insn = self._decode_at(paddr, word)
            except DecodeError:
                counters.instructions += 1
                counters.undefs += 1
                self._deliver(ExceptionVector.UNDEF, pc + 4)
                break
            counters.instructions += 1
            handler = dispatch[insn.op]
            try:
                handler(insn, pc)
            except Fault as fault:
                counters.data_aborts += 1
                self._cp15.record_fault(fault)
                self._deliver(ExceptionVector.DATA_ABORT, pc)
                break
            except GuestUndef:
                counters.undefs += 1
                self._deliver(ExceptionVector.UNDEF, pc + 4)
                break
            entries.append((handler, insn))
            if insn.op in _BLOCK_TERMINALS:
                break
            if self._block_epoch != epoch:
                break
            if counters.instructions >= limit:
                break
            if intc.pending & intc.enable and cpu.psr & PSR_IRQ_ENABLE:
                break
            paddr += 4
            if paddr >> PAGE_SHIFT != start_ppage:
                # Straight-line run crossed the page (the +4 fetch
                # margin covers an unaligned final word); the prefix is
                # still a valid replayable run.
                break
            pc = cpu.pc
        if entries and self._block_epoch == epoch:
            page = self._block_pages.get(start_ppage)
            if page is None:
                page = self._block_pages[start_ppage] = {}
            page[start_paddr] = entries

    def feature_summary(self):
        return {
            "Execution Model": self.execution_model,
            "Memory Access": "software TLB + page walker",
            "Code Generation": "none",
            "Control Flow": "interpreted",
            "Interrupts": "instruction boundaries",
            "Synchronous Exceptions": "interpreted",
            "Undefined Instruction": "interpreted",
        }
