"""Configuration of the DBT engine.

Structural knobs change what the engine actually does (block chaining,
TLB geometry, block length, cache capacity); cost overrides adjust the
modeled price of events.  The synthetic QEMU version timeline in
:mod:`repro.sim.dbt.versions` is expressed entirely in these terms.
"""


class DBTConfig:
    """Tunable parameters of :class:`~repro.sim.dbt.engine.DBTSimulator`.

    Parameters
    ----------
    chain_enabled:
        Patch direct same-page branches to jump straight to the
        successor block, bypassing the dispatcher.
    chain_cross_page:
        Also chain direct branches that cross a page boundary (off by
        default: cross-page chains are unsafe under remapping, so QEMU
        avoids them -- this is why inter-page control flow goes through
        the block cache in Figure 4).
    max_block_insns:
        Translation stops after this many instructions (blocks never
        cross a page boundary regardless).
    tlb_bits:
        log2 of the number of direct-mapped softmmu TLB slots.
    tcache_capacity:
        Maximum number of cached translations; on overflow the whole
        code cache is flushed, QEMU-style.
    cost_overrides:
        Per-counter cost-table overrides (see
        :data:`repro.sim.costs.DBT_BASE_COSTS`).
    version:
        Optional version label (for reports).
    asid_tagged:
        Tag softmmu TLB slots with the guest ASID so address-space
        switches retag instead of flushing (off by default, matching
        QEMU's historical flush-on-context-switch behaviour).
    memoize:
        Host-only knob: reuse lowered source and compiled code objects
        for byte-identical blocks through the process-wide
        :data:`~repro.sim.dbt.translator.TRANSLATION_MEMO`.  Guest-visible
        behaviour and counters are unaffected -- translation still
        *happens* (and is accounted) per engine, only the host-side
        lowering and ``compile()`` are skipped.
    """

    def __init__(
        self,
        chain_enabled=True,
        chain_cross_page=False,
        max_block_insns=64,
        tlb_bits=8,
        tcache_capacity=16384,
        cost_overrides=None,
        version=None,
        asid_tagged=False,
        memoize=True,
    ):
        if max_block_insns < 1:
            raise ValueError("max_block_insns must be positive")
        if not 2 <= tlb_bits <= 16:
            raise ValueError("tlb_bits out of range")
        self.chain_enabled = chain_enabled
        self.chain_cross_page = chain_cross_page
        self.max_block_insns = max_block_insns
        self.tlb_bits = tlb_bits
        self.tcache_capacity = tcache_capacity
        self.cost_overrides = dict(cost_overrides or {})
        self.version = version
        self.asid_tagged = asid_tagged
        self.memoize = memoize

    def translation_key(self):
        """The knobs generated code depends on.

        Lowered source is a pure function of (instruction bytes, start
        vaddr, this key): chaining flags change emitted exits and
        ``max_block_insns`` changes where decoding stops.  Everything
        else (TLB geometry, cache capacity, costs) prices or places
        blocks without altering their code, so memo/code-store entries
        are shared across those dimensions -- the whole point of
        memoizing a version sweep.
        """
        return (
            self.chain_enabled,
            self.chain_cross_page,
            self.max_block_insns,
        )

    def replace(self, **kwargs):
        """Return a copy with the given fields replaced."""
        fields = {
            "chain_enabled": self.chain_enabled,
            "chain_cross_page": self.chain_cross_page,
            "max_block_insns": self.max_block_insns,
            "tlb_bits": self.tlb_bits,
            "tcache_capacity": self.tcache_capacity,
            "cost_overrides": dict(self.cost_overrides),
            "version": self.version,
            "asid_tagged": self.asid_tagged,
            "memoize": self.memoize,
        }
        fields.update(kwargs)
        return DBTConfig(**fields)

    def __repr__(self):
        return "DBTConfig(version=%r, chain=%r, tlb_bits=%d, max_block=%d)" % (
            self.version,
            self.chain_enabled,
            self.tlb_bits,
            self.max_block_insns,
        )
