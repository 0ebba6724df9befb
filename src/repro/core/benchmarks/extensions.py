"""Extension benchmarks beyond the paper's 18 (its stated future work).

The paper (Section II-B.5) defers address-space-identifier behaviour
("the ASID in the ARM virtual memory system and the PCID in x86 ...
might be handled in a future version of SimBench").  This module adds
that benchmark.  Extensions are kept out of :data:`repro.core.suite.SUITE`
so the Figure 3 inventory stays faithful; use
:data:`EXTENSION_SUITE` to run them.
"""

from repro.core.benchmark import Benchmark
from repro.machine.coprocessor import CP15_ASID


class ContextSwitch(Benchmark):
    """Alternates between two address-space identifiers, touching the
    same working set under each.

    On a simulator whose TLB is ASID-tagged, the switch is a cheap
    retag and both contexts stay warm; on one that ignores ASIDs, the
    switch must conservatively flush the TLB, so every access after a
    switch misses.  The gap between those two designs is exactly what
    this benchmark measures (compare
    ``spec_for("simit", asid_tagged=...)`` or
    ``spec_for("qemu-dbt", asid_tagged=...)``).
    """

    name = "Context Switch"
    group = "Memory System"
    paper_iterations = 0  # not in the paper: its stated future work
    default_iterations = 400
    ops_per_iteration = 2
    operation_counters = ("context_switches",)
    description = "ASID switch cost (TLB retag vs conservative flush)"

    WORKING_SET_PAGES = 4

    def populate(self, builder):
        layout = builder.platform.layout
        base = layout.data_base + 0x4000

        w = builder.setup
        w.emit("    li r11, 0x%08x" % base)

        w = builder.kernel
        for asid in (1, 2):
            w.emit("    movi r0, %d" % asid)
            w.emit("    mcr r0, p15, c%d" % CP15_ASID)
            for page in range(self.WORKING_SET_PAGES):
                w.emit("    ldr r1, [r11, #%d]" % (0x1000 * page))

        # Leave ASID 0 behind for any code that follows.
        w = builder.cleanup
        w.emit("    movi r0, 0")
        w.emit("    mcr r0, p15, c%d" % CP15_ASID)


class FPControlSwitch(Benchmark):
    """Floating-point control churn: rounding-mode changes plus a
    context save/restore of the FP control register.

    The paper explicitly leaves FP-emulation infrastructure ("rounding
    mode changes, context save/restore operations etc.") to future
    versions; this extension covers that ground.  Each iteration reads
    the FP control register, saves it to memory, installs a different
    rounding mode, and restores the original -- the sequence an OS
    performs around FP context switches.
    """

    name = "FP Control Switch"
    group = "I/O"
    paper_iterations = 0  # not in the paper: its stated future work
    default_iterations = 500
    ops_per_iteration = 2
    operation_counters = ("coproc_writes",)
    description = "FP rounding-mode change + control save/restore cost"

    FPCR_CREG = 0  # CP1 control register

    def populate(self, builder):
        layout = builder.platform.layout
        save_slot = layout.data_base + 0x8000

        w = builder.setup
        w.emit("    li r11, 0x%08x" % save_slot)

        w = builder.kernel
        w.emit("    mrc r0, p1, c%d" % self.FPCR_CREG)  # read current FPCR
        w.emit("    str r0, [r11]")  # save context
        w.emit("    eori r1, r0, 0xc00")  # flip the rounding-mode bits
        w.emit("    mcr r1, p1, c%d" % self.FPCR_CREG)  # install new mode
        w.emit("    ldr r2, [r11]")  # restore context
        w.emit("    mcr r2, p1, c%d" % self.FPCR_CREG)


#: Extension benchmarks (not part of the paper's Figure 3 inventory).
EXTENSION_SUITE = (ContextSwitch(), FPControlSwitch())
