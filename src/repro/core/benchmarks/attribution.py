"""Single-feature attribution kernels.

Each benchmark here is *generated for one structural engine-spec field*
(:meth:`repro.sim.spec.EngineSpec.bisectable_fields`): a guest kernel
whose cost cliff isolates exactly that field.  Flipping the target
field between its two ablation settings must move the kernel's cliff
metric past the cliff ratio, while flipping any *other* structural
field leaves the metric within tolerance -- that property is what
:func:`repro.attrib.validate_attribution` checks by ablation, and what
makes a bisection verdict over these kernels attributable to a single
mechanism (PAPERS.md: "Benchmarking for Single Feature Attribution
with Microarchitecture Cliffs").

The kernels are registered benchmarks (resolvable by
:func:`repro.core.runner.resolve_benchmark`), so they ride the whole
experiment stack unchanged: structural dedup, pool transport by
name, and provenance-stamped dataset rows.  They are kept
out of :data:`repro.core.suite.SUITE` so the Figure 3 inventory stays
faithful to the paper.

Every kernel declares:

- ``target_field`` -- the spec field it isolates;
- ``target_engines`` -- registry names whose field it targets;
- ``cliff_metric`` -- the bisection metric (``fields.<counter>``) the
  cliff shows up in.  Counters, not modeled seconds: a counter cliff
  cannot be moved by pricing changes, only by the mechanism itself.
"""

from repro.core.benchmark import Benchmark
from repro.machine.coprocessor import CP15_ASID

PAGE = 4096


class AttributionKernel(Benchmark):
    """Base class carrying the attribution contract attributes."""

    group = "Attribution"
    paper_iterations = 0  # beyond the paper: the attribution extension
    target_field = None
    target_engines = ()
    cliff_metric = None


class TLBGeometryKernel(AttributionKernel):
    """Sweeps a working set sized *between* the two TLB geometry
    settings, one load per page per pass.

    With the small geometry the sweep thrashes (direct-mapped conflict
    misses on the DBT softmmu, FIFO capacity misses on the
    interpreters); with the large one every page stays resident after
    the first pass.  ``tlb_misses`` is the cliff.
    """

    ops_per_iteration = 1
    operation_counters = ("tlb_misses",)
    cliff_metric = "fields.tlb_misses"

    #: Pages swept per iteration; subclasses pick a value strictly
    #: between the low and high settings' reach.
    PAGES = 0

    def populate(self, builder):
        layout = builder.platform.layout
        w = builder.setup
        w.emit("    li r11, 0x%08x" % layout.data_base)
        w.emit("    li r12, 0x%08x" % (layout.data_base + self.PAGES * PAGE))
        w = builder.kernel
        loop = builder.label("attlb")
        w.emit("    li r1, 0x%08x" % layout.data_base)
        w.place(loop)
        w.emit("    ldr r0, [r1]")
        w.emit("    addi r1, r1, %d" % PAGE)
        w.emit("    cmp r1, r12")
        w.emit("    blo %s" % loop)


class TLBBitsKernel(TLBGeometryKernel):
    """qemu-dbt ``tlb_bits`` (softmmu geometry, 7 vs 8 bits).

    192 consecutive pages: 256 direct-mapped slots hold them all, 128
    slots alias the upper 64 pages onto the lower 64 -- ~128 conflict
    misses per pass vs ~0.
    """

    name = "Attrib TLB Bits"
    default_iterations = 16
    target_field = "tlb_bits"
    target_engines = ("qemu-dbt",)
    description = "softmmu TLB geometry cliff (tlb_bits)"
    PAGES = 192


class TLBCapacityKernel(TLBGeometryKernel):
    """simit ``tlb_capacity`` (FIFO soft TLB, 64 vs 256 entries).

    96 pages swept in order: FIFO at capacity 64 evicts every entry
    before its reuse (full thrash), capacity 256 holds the set.
    """

    name = "Attrib TLB Capacity"
    default_iterations = 16
    target_field = "tlb_capacity"
    target_engines = ("simit",)
    description = "soft-TLB capacity cliff (tlb_capacity)"
    PAGES = 96


class _ChainKernel(AttributionKernel):
    """A chain of single-``addi`` blocks linked by direct branches,
    entered and left via *indirect* branches (which never chain, so the
    entry/exit dispatch cost is constant across every configuration).
    """

    NUM_BLOCKS = 16
    ops_per_iteration = NUM_BLOCKS - 1
    label_prefix = "atch"
    #: Emit a ``.page`` break before every chain block?
    inter_page = False

    def populate(self, builder):
        prefix = self.label_prefix
        w = builder.kernel
        w.emit("    li r5, .%s_f0" % prefix)
        w.emit("    blr r5")

        w = builder.handlers
        w.emit(".page")
        for k in range(self.NUM_BLOCKS):
            if self.inter_page and k > 0:
                w.emit(".page")
            w.emit(".%s_f%d:" % (prefix, k))
            w.emit("    addi r4, r4, 1")
            if k + 1 == self.NUM_BLOCKS:
                w.emit("    br lr")
            else:
                w.emit("    b .%s_f%d" % (prefix, k + 1))


class ChainingKernel(_ChainKernel):
    """qemu-dbt ``chain_enabled``: with chaining the 15 intra-page
    links cost one dispatch each only once (then chain-follow); with
    chaining off every link is a slow dispatch, every iteration."""

    name = "Attrib Chaining"
    default_iterations = 60
    target_field = "chain_enabled"
    target_engines = ("qemu-dbt",)
    operation_counters = ("slow_dispatches",)
    cliff_metric = "fields.slow_dispatches"
    description = "block-chaining cliff (chain_enabled)"
    label_prefix = "atch"
    inter_page = False


class CrossPageChainingKernel(_ChainKernel):
    """qemu-dbt ``chain_cross_page``: the same chain with every block
    on its own page.  Cross-page chaining turns the 15 links into
    chain-follows; without it they stay unchained -- and because the
    cliff metric is ``chain_follows`` (not dispatches), disabling
    chaining entirely moves the baseline by at most the kernel loop's
    own back-branch, not the cliff."""

    name = "Attrib Cross-Page Chaining"
    default_iterations = 60
    target_field = "chain_cross_page"
    target_engines = ("qemu-dbt",)
    operation_counters = ("chain_follows",)
    cliff_metric = "fields.chain_follows"
    description = "cross-page chaining cliff (chain_cross_page)"
    label_prefix = "atxp"
    inter_page = True


class BlockLengthKernel(AttributionKernel):
    """qemu-dbt ``max_block_insns``: one straight-line run of 48 ALU
    instructions per iteration.  A 64-instruction limit holds the whole
    loop body in one block; a 16-instruction limit splits it into four,
    quadrupling ``block_executions`` (which chaining, TLB geometry and
    ASID tagging cannot move)."""

    name = "Attrib Block Length"
    default_iterations = 60
    ops_per_iteration = 1
    target_field = "max_block_insns"
    target_engines = ("qemu-dbt",)
    operation_counters = ("block_executions",)
    cliff_metric = "fields.block_executions"
    description = "translation block-length cliff (max_block_insns)"

    STRAIGHT_LINE_OPS = 48

    def populate(self, builder):
        w = builder.setup
        w.emit("    movi r1, 13")
        w = builder.kernel
        ops = ("add", "eor", "sub", "orr")
        for i in range(self.STRAIGHT_LINE_OPS):
            w.emit("    %s r0, r0, r1" % ops[i % len(ops)])


class ASIDTaggingKernel(AttributionKernel):
    """``asid_tagged``: alternates between two address-space ids,
    touching the same four pages under each.  A tagged TLB retags and
    stays warm; an untagged one must flush on every switch, so each
    iteration re-misses the working set."""

    name = "Attrib ASID Tagging"
    default_iterations = 60
    ops_per_iteration = 2
    target_field = "asid_tagged"
    target_engines = ("qemu-dbt", "simit")
    operation_counters = ("tlb_misses",)
    cliff_metric = "fields.tlb_misses"
    description = "ASID tagging cliff (retag vs conservative flush)"

    WORKING_SET_PAGES = 4

    def populate(self, builder):
        layout = builder.platform.layout
        w = builder.setup
        w.emit("    li r11, 0x%08x" % layout.data_base)
        w = builder.kernel
        for asid in (1, 2):
            w.emit("    movi r0, %d" % asid)
            w.emit("    mcr r0, p15, c%d" % CP15_ASID)
            for page in range(self.WORKING_SET_PAGES):
                w.emit("    ldr r1, [r11, #%d]" % (PAGE * page))
        w = builder.cleanup
        w.emit("    movi r0, 0")
        w.emit("    mcr r0, p15, c%d" % CP15_ASID)


#: Kernel classes in registry order (one instance each; shared across
#: every (engine, field) pair they serve).
_KERNEL_CLASSES = (
    TLBBitsKernel,
    TLBCapacityKernel,
    ChainingKernel,
    CrossPageChainingKernel,
    BlockLengthKernel,
    ASIDTaggingKernel,
)

#: Every attribution kernel, instantiated once (the registration
#: domain for name resolution / payload transport).
ATTRIBUTION_SUITE = tuple(cls() for cls in _KERNEL_CLASSES)

#: ``(engine, field) -> kernel`` -- the generator's dispatch table.
ATTRIBUTION_KERNELS = {
    (engine, kernel.target_field): kernel
    for kernel in ATTRIBUTION_SUITE
    for engine in kernel.target_engines
}


def attribution_kernel(engine, field):
    """The synthesized kernel isolating ``field`` on ``engine``.

    Raises :class:`KeyError` naming the coverage that *does* exist, so
    a typo'd field or an engine/field mismatch is immediately
    actionable.
    """
    try:
        return ATTRIBUTION_KERNELS[(engine, field)]
    except KeyError:
        available = ", ".join(
            "%s:%s" % pair for pair in sorted(ATTRIBUTION_KERNELS)
        )
        raise KeyError(
            "no attribution kernel for field %r on engine %r "
            "(available: %s)" % (field, engine, available)
        ) from None
