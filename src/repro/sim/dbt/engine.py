"""The DBT engine proper: dispatcher, softmmu, exception side exits."""
from repro.machine.cpu import ExceptionVector, PSR_FLAGS_MASK, PSR_IRQ_ENABLE, PSR_MODE_KERNEL
from repro.machine.mmu import AccessType, Fault, FaultType
from repro.obs.metrics import METRICS
from repro.sim.base import ExitReason, RunResult, Simulator
from repro.sim.costs import dbt_cost_model
from repro.sim.dbt.blockcache import TranslatedBlock, TranslationCache
from repro.sim.dbt.translator import Translator

MASK32 = 0xFFFFFFFF
PAGE_SHIFT = 12

#: Upper bound on cached fetch translations; overflow evicts the
#: oldest entry (insertion order) instead of dropping the whole map.
FTLB_CAPACITY = 4096


class GuestUndef(Exception):
    """Raised by helpers when the current instruction must UNDEF."""


class DBTSimulator(Simulator):
    """QEMU-like dynamic binary translator.

    See :mod:`repro.sim.dbt` for the architectural overview.  The
    engine-visible structure matches Figure 4's QEMU-DBT column:

    - execution model: DBT (blocks compiled to host code);
    - memory access: multi-level page cache (direct-mapped softmmu TLB
      in front of the shared page-table walker);
    - code generation: block-based, invalidated on self-modifying code;
    - inter-page control flow: block cache lookups;
    - intra-page control flow: block chaining;
    - interrupts: block boundaries;
    - synchronous exceptions: side exits.
    """

    name = "qemu-dbt"
    execution_model = "dynamic binary translation"
    #: Translated code has no per-instruction hook; observe the block
    #: stream via :func:`repro.sim.trace.trace_blocks` instead.
    supports_block_trace = True

    def __init__(self, board, arch=None, spec=None):
        super().__init__(board, arch)
        if spec is None:
            from repro.sim.spec import DBTSpec

            spec = DBTSpec()
        self.spec = spec
        self.cost_model = dbt_cost_model(dict(spec.cost_overrides))
        self._memory = board.memory
        self._cp15 = board.cp15
        self._cops = board.cops
        self._intc = board.intc
        self._walker = board.walker
        self._tcache = TranslationCache(capacity=self.spec.tcache_capacity)
        self._translator = Translator(spec)
        self._code_pages = self._tcache.pages
        self._exec_pages = set()
        tlb_size = 1 << self.spec.tlb_bits
        #: Direct-mapped softmmu slots, ``None`` or ``(key, hit_mask,
        #: data, offset, ppn, perms, words)``: ``key`` is the vpage plus
        #: ASID tag, ``perms`` the mapping's
        #: :meth:`~repro.machine.mmu.TranslationResult.perm_mask` and
        #: ``ppn`` its physical page number.  RAM pages carry the
        #: region's byte buffer, the page's offset in it, the page's
        #: 1024-word window of the region's word view (aligned word
        #: ``w`` of the page is ``words[w]``), and ``hit_mask ==
        #: perms``; device pages carry ``None`` buffers and a
        #: ``hit_mask`` of 0, so translated code's inline hit path
        #: (which tests ``hit_mask``) always falls back to a helper.
        self._tlb = [None] * tlb_size
        self._tlb_mask = tlb_size - 1
        #: Per-ASID softmmu arrays (QEMU keeps per-MMU-mode TLBs; we
        #: keep per-address-space ones when tagging is enabled, so two
        #: contexts never alias each other's direct-mapped slots).
        self._tlb_arrays = {0: self._tlb}
        self._ftlb = {}
        #: ASID tag mixed into softmmu slot keys (0 unless tagging is on
        #: and a nonzero ASID is live); vpages fit in 20 bits, so the
        #: shifted tag can never collide with a page number.
        self._asid_tag = 0
        self._cp15.tlb_flush_hook = self._on_tlb_flush
        self._cp15.tlb_invalidate_hook = self._on_tlb_invalidate
        self._cp15.asid_hook = self._on_asid_write
        #: (vaddr, index) of the last potentially-faulting instruction.
        self.fault_state = (0, 0)
        #: (block, slot) requesting a chain patch after the next lookup.
        self.pending_chain = None
        #: Content signatures of every block this engine has translated;
        #: re-seeing one (the same bytes at the same place, e.g. after an
        #: SMC invalidation or a tcache flush) is a *retranslation* --
        #: work a smarter code cache could have kept.
        self._translated_sigs = set()

    # ------------------------------------------------------------------
    # TLB maintenance
    # ------------------------------------------------------------------
    def _on_tlb_flush(self):
        self.counters.tlb_flushes += 1
        self._tlb = [None] * (self._tlb_mask + 1)
        current = self._cp15.asid if self.spec.asid_tagged else 0
        self._tlb_arrays = {current: self._tlb}
        self._ftlb.clear()

    def _on_tlb_invalidate(self, vaddr):
        self.counters.tlb_invalidations += 1
        key = (vaddr >> PAGE_SHIFT) | self._asid_tag
        slot = self._tlb[(vaddr >> PAGE_SHIFT) & self._tlb_mask]
        if slot is not None and slot[0] == key:
            self._tlb[(vaddr >> PAGE_SHIFT) & self._tlb_mask] = None
        self._ftlb.pop(vaddr >> PAGE_SHIFT, None)

    def _on_asid_write(self, asid):
        """Address-space switch: swap to the context's own softmmu
        array when tagging is configured, else flush conservatively
        (QEMU-style)."""
        self.counters.context_switches += 1
        if self.spec.asid_tagged:
            self._asid_tag = asid << 24
            array = self._tlb_arrays.get(asid)
            if array is None:
                array = [None] * (self._tlb_mask + 1)
                self._tlb_arrays[asid] = array
            self._tlb = array
        else:
            self._tlb = [None] * (self._tlb_mask + 1)
            self._tlb_arrays = {0: self._tlb}
        # Fetch translations are not ASID-tagged, so an address-space
        # switch must drop them even when the data side retags.
        self._ftlb.clear()

    # ------------------------------------------------------------------
    # Softmmu data path
    # ------------------------------------------------------------------
    def _fill_tlb(self, vaddr, access, kernel):
        """Slow path: walk the page tables and fill the TLB slot."""
        self.counters.tlb_misses += 1
        # Host-side observability only (miss path, never per-access).
        if METRICS.enabled:
            with METRICS.phase("dbt.tlb_walk"):
                result = self._walker.walk(self._cp15.ttbr, vaddr, access, kernel)
        else:
            result = self._walker.walk(self._cp15.ttbr, vaddr, access, kernel)
        self.counters.ptw_levels += result.levels
        entry = result.narrow(vaddr)
        key = (vaddr >> PAGE_SHIFT) | self._asid_tag
        perms = entry.perm_mask()
        ppn = entry.ppage >> PAGE_SHIFT
        region = self._memory.find_ram(entry.ppage, 1)
        if region is not None:
            offset = entry.ppage - region.base
            words = region.words[offset >> 2 : (offset >> 2) + 1024]
            slot = (key, perms, region.data, offset, ppn, perms, words)
        else:
            # Device page: an inline mask of 0 sends every translated
            # access to the helper, which performs the MMIO.
            slot = (key, 0, None, 0, ppn, perms, None)
        index = (vaddr >> PAGE_SHIFT) & self._tlb_mask
        old = self._tlb[index]
        if old is not None and old[0] != slot[0]:
            self.counters.tlb_evictions += 1
        self._tlb[index] = slot
        return slot

    def _data_slot(self, vaddr, access, kernel):
        slot = self._tlb[(vaddr >> PAGE_SHIFT) & self._tlb_mask]
        if slot is not None and slot[0] == ((vaddr >> PAGE_SHIFT) | self._asid_tag):
            self.counters.tlb_hits += 1
        else:
            slot = self._fill_tlb(vaddr, access, kernel)
        if not slot[5] >> (access << 1 | kernel) & 1:
            raise Fault(FaultType.PERMISSION, vaddr, access)
        return slot

    def _device_read(self, paddr, size, vaddr):
        hit = self._memory.find_device(paddr)
        if hit is None:
            raise Fault(FaultType.BUS, vaddr, AccessType.READ)
        base, _size, device = hit
        self.counters.mmio_reads += 1
        return device.read(paddr - base, size) & ((1 << (8 * size)) - 1)

    def _device_write(self, paddr, value, size, vaddr):
        hit = self._memory.find_device(paddr)
        if hit is None:
            raise Fault(FaultType.BUS, vaddr, AccessType.WRITE)
        base, _size, device = hit
        self.counters.mmio_writes += 1
        device.write(paddr - base, value & ((1 << (8 * size)) - 1), size)

    def _read(self, vaddr, size, kernel):
        if self._cp15.sctlr & 1:
            slot = self._data_slot(vaddr, AccessType.READ, kernel)
            data = slot[2]
            if data is not None:
                off = slot[3] + (vaddr & 0xFFF)
                if size == 1:
                    return data[off]
                if vaddr & 3:
                    if off + 4 > len(data):  # spills past the region
                        raise Fault(FaultType.BUS, vaddr, AccessType.READ)
                    return int.from_bytes(data[off : off + 4], "little")
                return slot[6][(vaddr & 0xFFF) >> 2]
            return self._device_read(slot[4] << PAGE_SHIFT | (vaddr & 0xFFF), size, vaddr)
        # MMU off: physical access.
        region = self._memory.find_ram(vaddr, size)
        if region is not None:
            off = vaddr - region.base
            if size == 1:
                return region.data[off]
            if off & 3:
                return int.from_bytes(region.data[off : off + 4], "little")
            return region.words[off >> 2]
        return self._device_read(vaddr, size, vaddr)

    def _write(self, vaddr, value, size, kernel):
        if self._cp15.sctlr & 1:
            slot = self._data_slot(vaddr, AccessType.WRITE, kernel)
            data = slot[2]
            if data is not None:
                off = slot[3] + (vaddr & 0xFFF)
                if size == 1:
                    data[off] = value & 0xFF
                elif vaddr & 3:
                    if off + 4 > len(data):  # spills past the region
                        raise Fault(FaultType.BUS, vaddr, AccessType.WRITE)
                    data[off : off + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
                else:
                    slot[6][(vaddr & 0xFFF) >> 2] = value & 0xFFFFFFFF
                ppage = slot[4]
                if ppage in self._exec_pages:
                    self.counters.code_writes += 1
                if ppage in self._code_pages:
                    self._invalidate_code_page(ppage)
                return
            self._device_write(slot[4] << PAGE_SHIFT | (vaddr & 0xFFF), value, size, vaddr)
            return
        region = self._memory.find_ram(vaddr, size)
        if region is not None:
            off = vaddr - region.base
            if size == 1:
                region.data[off] = value & 0xFF
            elif off & 3:
                region.data[off : off + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
            else:
                region.words[off >> 2] = value & 0xFFFFFFFF
            ppage = vaddr >> PAGE_SHIFT
            if ppage in self._exec_pages:
                self.counters.code_writes += 1
            if ppage in self._code_pages:
                self._invalidate_code_page(ppage)
            return
        self._device_write(vaddr, value, size, vaddr)

    def _invalidate_code_page(self, ppage):
        """Self-modifying code: drop every translation on the page."""
        self.counters.smc_invalidations += 1
        self._tcache.invalidate_page(ppage)

    # -- helpers called from generated code -------------------------------
    def mem_read(self, vaddr, size, fault_state, pending):
        """The fallback of an inline LDR/LDRB hit path.

        Translated code counts its accesses as TLB hits and flushes
        them with its instructions at the next helper call or block
        exit.  ``pending`` is ``(instructions, loads, stores,
        tlb_hits)`` the block has not flushed before this access, so
        the counters are exact while the access walks, faults or
        reaches a device; afterwards they drop back by ``pending`` plus
        this access's assumed hit, which the block flushes later.
        """
        counters = self.counters
        insns, loads, stores, hits = pending
        counters.instructions += insns
        counters.loads += loads + 1
        counters.stores += stores
        counters.tlb_hits += hits
        self.fault_state = fault_state
        value = self._read(vaddr, size, self.cpu.psr & PSR_MODE_KERNEL)
        counters.instructions -= insns
        counters.loads -= loads + 1
        counters.stores -= stores
        counters.tlb_hits -= hits + 1
        return value

    def mem_write(self, vaddr, value, size, fault_state, pending):
        """The fallback of an inline STR/STRB hit path; see
        :meth:`mem_read`."""
        counters = self.counters
        insns, loads, stores, hits = pending
        counters.instructions += insns
        counters.loads += loads
        counters.stores += stores + 1
        counters.tlb_hits += hits
        self.fault_state = fault_state
        self._write(vaddr, value, size, self.cpu.psr & PSR_MODE_KERNEL)
        counters.instructions -= insns
        counters.loads -= loads
        counters.stores -= stores + 1
        counters.tlb_hits -= hits + 1

    def mem_read32_user(self, vaddr):
        self.counters.loads += 1
        self.counters.nonpriv_accesses += 1
        return self._read(vaddr, 4, 0)

    def mem_write32_user(self, vaddr, value):
        self.counters.stores += 1
        self.counters.nonpriv_accesses += 1
        self._write(vaddr, value, 4, 0)

    def cop_read(self, cpnum, creg):
        if not self.cpu.psr & PSR_MODE_KERNEL:
            raise GuestUndef()
        from repro.machine.coprocessor import UndefinedCoprocessorAccess

        try:
            value = self._cops.read(cpnum, creg)
        except UndefinedCoprocessorAccess:
            raise GuestUndef()
        self.counters.coproc_reads += 1
        return value

    def cop_write(self, cpnum, creg, value):
        if not self.cpu.psr & PSR_MODE_KERNEL:
            raise GuestUndef()
        from repro.machine.coprocessor import UndefinedCoprocessorAccess

        try:
            self._cops.write(cpnum, creg, value)
        except UndefinedCoprocessorAccess:
            raise GuestUndef()
        self.counters.coproc_writes += 1

    def do_swi(self, return_pc):
        self.cpu.enter_exception(return_pc, self._cp15.vbar, ExceptionVector.SWI)

    def do_undef(self, return_pc):
        self.cpu.enter_exception(return_pc, self._cp15.vbar, ExceptionVector.UNDEF)

    def do_sret(self):
        if not self.cpu.psr & PSR_MODE_KERNEL:
            raise GuestUndef()
        self.counters.exception_returns += 1
        self.cpu.exception_return()

    def do_cps(self, imm):
        cpu = self.cpu
        if not cpu.psr & PSR_MODE_KERNEL:
            raise GuestUndef()
        cpu.psr = (cpu.psr & PSR_FLAGS_MASK) | (imm & (PSR_MODE_KERNEL | PSR_IRQ_ENABLE))

    # ------------------------------------------------------------------
    # Fetch-side translation and block lookup
    # ------------------------------------------------------------------
    def _fetch_translate(self, vaddr):
        if not self._cp15.sctlr & 1:
            return vaddr
        vpage = vaddr >> PAGE_SHIFT
        entry = self._ftlb.get(vpage)
        if entry is None:
            if METRICS.enabled:
                with METRICS.phase("dbt.tlb_walk"):
                    result = self._walker.walk(
                        self._cp15.ttbr,
                        vaddr,
                        AccessType.EXECUTE,
                        self.cpu.psr & PSR_MODE_KERNEL,
                    )
            else:
                result = self._walker.walk(
                    self._cp15.ttbr, vaddr, AccessType.EXECUTE, self.cpu.psr & PSR_MODE_KERNEL
                )
            entry = result.narrow(vaddr)
            ftlb = self._ftlb
            if len(ftlb) >= FTLB_CAPACITY:
                del ftlb[next(iter(ftlb))]
            ftlb[vpage] = entry
        elif not entry.allows(AccessType.EXECUTE, self.cpu.psr & PSR_MODE_KERNEL):
            raise Fault(FaultType.PERMISSION, vaddr, AccessType.EXECUTE)
        return entry.ppage | (vaddr & 0xFFF)

    def _lookup(self, vaddr):
        """Find or translate the block at ``vaddr``; deliver a prefetch
        abort and return None if the fetch translation faults."""
        pend, self.pending_chain = self.pending_chain, None
        counters = self.counters
        counters.slow_dispatches += 1
        try:
            paddr = self._fetch_translate(vaddr)
        except Fault as fault:
            counters.prefetch_aborts += 1
            self._cp15.record_fault(fault)
            self.cpu.enter_exception(vaddr, self._cp15.vbar, ExceptionVector.PREFETCH_ABORT)
            return None
        try:
            self._memory.find_ram(paddr, 4) or self._raise_bus(vaddr)
        except Fault as fault:
            counters.prefetch_aborts += 1
            self._cp15.record_fault(fault)
            self.cpu.enter_exception(vaddr, self._cp15.vbar, ExceptionVector.PREFETCH_ABORT)
            return None
        block = self._tcache.get(vaddr, paddr)
        if block is None:
            if METRICS.enabled:
                with METRICS.phase("dbt.translate"):
                    block = self._translator.translate(self._memory, vaddr, paddr)
            else:
                block = self._translator.translate(self._memory, vaddr, paddr)
            self._tcache.insert(block)
            self._exec_pages.add(block.ppage)
            counters.translations += 1
            counters.translated_insns += block.insn_count
            # Same bytes translated at the same place before: the
            # Code-Generation figures report this split.  (Unpriced, so
            # modeled results are unchanged; ``translations`` still
            # counts every translate.)
            sig = (vaddr, paddr, block.word_bytes)
            if sig in self._translated_sigs:
                counters.retranslations += 1
            else:
                self._translated_sigs.add(sig)
        if pend is not None:
            if METRICS.enabled:
                METRICS.inc("dbt.chain_patches")
            pend[0].set_succ(pend[1], block)
        return block

    @staticmethod
    def _raise_bus(vaddr):
        raise Fault(FaultType.BUS, vaddr, AccessType.EXECUTE)

    # ------------------------------------------------------------------
    # The dispatcher
    # ------------------------------------------------------------------
    def run(self, max_insns=None):
        cpu = self.cpu
        counters = self.counters
        intc = self._intc
        start = counters.instructions
        limit = start + max_insns if max_insns is not None else float("inf")
        block = None
        while not cpu.halted:
            if counters.instructions >= limit:
                return RunResult(ExitReason.LIMIT, None, counters.instructions - start)
            # Interrupts are recognised at block boundaries.
            if intc.pending & intc.enable:
                if cpu.waiting or cpu.psr & PSR_IRQ_ENABLE:
                    cpu.waiting = False
                    if cpu.psr & PSR_IRQ_ENABLE:
                        counters.irqs += 1
                        cpu.enter_exception(cpu.pc, self._cp15.vbar, ExceptionVector.IRQ)
                        block = None  # re-dispatch from the handler
            elif cpu.waiting:
                return RunResult(ExitReason.DEADLOCK, None, counters.instructions - start)
            if block is None or not block.valid:
                block = self._lookup(cpu.pc)
                if block is None:
                    continue  # prefetch abort delivered; restart
            counters.block_executions += 1
            try:
                res = block.fn(self)
            except Fault as fault:
                # The block flushed its counts, the faulting
                # instruction's included, before (or into) the helper
                # that raised, so no adjustment here.
                if METRICS.enabled:
                    METRICS.inc("dbt.side_exits")
                counters.data_aborts += 1
                self._cp15.record_fault(fault)
                cpu.enter_exception(
                    self.fault_state[0], self._cp15.vbar, ExceptionVector.DATA_ABORT
                )
                block = None
                continue
            except GuestUndef:
                if METRICS.enabled:
                    METRICS.inc("dbt.side_exits")
                counters.undefs += 1
                cpu.enter_exception(
                    self.fault_state[0] + 4, self._cp15.vbar, ExceptionVector.UNDEF
                )
                block = None
                continue
            if res is None:
                block = None
            elif type(res) is TranslatedBlock:
                block = res
            else:
                block = self._lookup(res)
        return RunResult(ExitReason.HALT, cpu.halt_code, counters.instructions - start)

    # ------------------------------------------------------------------
    @property
    def translation_cache(self):
        return self._tcache

    def feature_summary(self):
        return {
            "Execution Model": "DBT",
            "Memory Access": "Multi-level Page Cache",
            "Code Generation": "Block-based",
            "Control Flow (Inter-Page)": "Block Cache",
            "Control Flow (Intra-Page)": "Block Chaining"
            if self.spec.chain_enabled
            else "Block Cache",
            "Interrupts": "Block Boundaries",
            "Synchronous Exceptions": "Side Exit",
            "Undefined Instruction": "Translated",
        }
