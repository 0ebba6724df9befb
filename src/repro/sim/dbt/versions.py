"""A synthetic QEMU release timeline for the version-sweep experiments.

The paper sweeps 20 QEMU releases (v1.7.0 .. v2.5.0-rc2) and observes:

- a broad improvement in v2.0.0 ("Improvements to the TCG optimiser");
- a dramatic data-fault handling improvement in v2.5.0-rc0 (~8x on ARM,
  ~4x on x86) with no visible SPEC effect;
- a steady degradation of control-flow dispatch and (non-data-fault)
  exception handling across releases;
- steadily improving TLB maintenance operations.

We cannot rebuild 20 QEMU releases here, so each version maps to a
:class:`~repro.sim.spec.DBTSpec`: a couple of *structural*
changes (the softmmu TLB grows in v2.0.0) plus per-event cost factors
that encode the release notes above.  Event counts always come from
really executing the guest on the engine, so per-benchmark sensitivity
to a version is determined by which events the benchmark actually
exercises.

The engine's host-side lowering (IR plus peephole passes, see
:mod:`repro.sim.dbt.passes`) is deliberately *not* part of this
timeline: it changes how fast the host runs translated code, never what
the guest observes.
"""

from repro.sim.costs import DBT_BASE_COSTS

#: The sweep order used in Figures 2, 6 and 8.
QEMU_VERSIONS = (
    "v1.7.0",
    "v1.7.1",
    "v1.7.2",
    "v2.0.0",
    "v2.0.1",
    "v2.0.2",
    "v2.1.0",
    "v2.1.1",
    "v2.1.2",
    "v2.1.3",
    "v2.2.0",
    "v2.2.1",
    "v2.3.0",
    "v2.3.1",
    "v2.4.0",
    "v2.4.0.1",
    "v2.4.1",
    "v2.5.0-rc0",
    "v2.5.0-rc1",
    "v2.5.0-rc2",
)

BASELINE_VERSION = QEMU_VERSIONS[0]

# Cost-factor groups: counter names sharing one evolution curve.
_GROUPS = {
    "codegen": ("translations", "translated_insns", "smc_invalidations"),
    "dispatch": ("slow_dispatches", "chain_follows", "block_executions"),
    "exec": ("instructions",),
    "exception": ("prefetch_aborts", "undefs", "syscalls", "irqs", "exception_returns"),
    "data_fault": ("data_aborts",),
    "memory": ("loads", "stores"),
    "tlb_maint": ("tlb_flushes", "tlb_invalidations"),
    "tlb_miss": ("tlb_misses", "ptw_levels"),
    "io": ("mmio_reads", "mmio_writes"),
    "coproc": ("coproc_reads", "coproc_writes"),
}

# Per-version factor table (multiplies the base cost of each group).
# Columns: codegen dispatch exec exception data_fault memory tlb_maint
#          tlb_miss io coproc
_TIMELINE = {
    "v1.7.0":     (1.00, 1.00, 1.00, 1.00, 1.00, 1.00, 1.00, 1.00, 1.00, 1.00),
    "v1.7.1":     (1.00, 1.00, 1.00, 1.01, 1.01, 1.00, 0.99, 1.00, 1.00, 1.00),
    "v1.7.2":     (0.99, 1.01, 1.00, 1.01, 1.01, 1.00, 0.98, 1.00, 1.01, 1.00),
    # TCG optimiser improvements: broadly faster.
    "v2.0.0":     (0.80, 0.93, 0.92, 0.94, 0.94, 0.95, 0.88, 0.95, 0.97, 0.98),
    "v2.0.1":     (0.80, 0.94, 0.92, 0.95, 0.95, 0.95, 0.86, 0.94, 0.98, 0.98),
    "v2.0.2":     (0.79, 0.95, 0.92, 0.96, 0.96, 0.95, 0.84, 0.94, 0.98, 0.98),
    # Control flow and exception handling begin their slow decline;
    # TLB maintenance keeps improving.
    "v2.1.0":     (0.78, 1.02, 0.91, 1.08, 1.08, 0.95, 0.74, 0.93, 1.02, 1.00),
    "v2.1.1":     (0.78, 1.04, 0.91, 1.10, 1.10, 0.95, 0.72, 0.93, 1.03, 1.00),
    "v2.1.2":     (0.77, 1.06, 0.90, 1.12, 1.12, 0.95, 0.70, 0.92, 1.04, 1.01),
    "v2.1.3":     (0.77, 1.08, 0.90, 1.14, 1.14, 0.95, 0.69, 0.92, 1.04, 1.01),
    # Codegen quality peaks around v2.2.x.
    "v2.2.0":     (0.74, 1.14, 0.88, 1.24, 1.24, 0.94, 0.62, 0.91, 1.07, 1.02),
    "v2.2.1":     (0.73, 1.16, 0.87, 1.26, 1.26, 0.94, 0.60, 0.91, 1.08, 1.02),
    "v2.3.0":     (0.76, 1.50, 0.90, 1.42, 1.42, 0.94, 0.52, 0.90, 1.11, 1.04),
    "v2.3.1":     (0.76, 1.53, 0.90, 1.44, 1.44, 0.94, 0.51, 0.90, 1.12, 1.04),
    "v2.4.0":     (0.78, 1.78, 0.92, 1.58, 1.58, 0.94, 0.46, 0.89, 1.15, 1.06),
    "v2.4.0.1":   (0.78, 1.80, 0.92, 1.59, 1.59, 0.94, 0.46, 0.89, 1.15, 1.06),
    "v2.4.1":     (0.79, 1.82, 0.92, 1.60, 1.60, 0.94, 0.45, 0.89, 1.16, 1.06),
    # v2.5.0-rc0: the data-fault fast path lands (8x ARM / 4x x86);
    # control flow is at its worst.
    "v2.5.0-rc0": (0.80, 2.10, 0.94, 1.74, None, 0.94, 0.42, 0.88, 1.19, 1.08),
    "v2.5.0-rc1": (0.80, 2.14, 0.94, 1.76, None, 0.94, 0.41, 0.88, 1.20, 1.08),
    "v2.5.0-rc2": (0.81, 2.18, 0.95, 1.78, None, 0.94, 0.40, 0.88, 1.20, 1.08),
}

_GROUP_ORDER = (
    "codegen",
    "dispatch",
    "exec",
    "exception",
    "data_fault",
    "memory",
    "tlb_maint",
    "tlb_miss",
    "io",
    "coproc",
)

#: Data-fault fast-path factor once it lands, per architecture profile.
_DATA_FAULT_FAST_PATH = {"arm": 0.125, "x86": 0.25}

#: Human-readable changelog (used by the regression-hunt example).
CHANGELOG = {
    "v2.0.0": "Improvements to the TCG optimiser; larger softmmu TLB.",
    "v2.1.0": "Dispatch-path rework begins; exception unwind slower.",
    "v2.2.0": "Peak translated-code quality.",
    "v2.3.0": "Further dispatch-path churn; exception handling regresses.",
    "v2.4.0": "Continued control-flow and exception decline.",
    "v2.5.0-rc0": "Data-fault fast path (large speedup); control flow at its worst.",
}


def dbt_spec_for_version(version, arch_name="arm"):
    """Return the :class:`~repro.sim.spec.DBTSpec` modelling a QEMU release."""
    from repro.sim.spec import DBTSpec  # spec.py imports this package

    try:
        factors = _TIMELINE[version]
    except KeyError:
        raise KeyError(
            "unknown QEMU version %r (known: %s)" % (version, ", ".join(QEMU_VERSIONS))
        )
    overrides = {}
    for group_name, factor in zip(_GROUP_ORDER, factors):
        if factor is None:  # data-fault fast path: absolute per-arch factor
            factor = _DATA_FAULT_FAST_PATH.get(arch_name, 0.2)
        for counter in _GROUPS[group_name]:
            overrides[counter] = DBT_BASE_COSTS[counter] * factor
    # Structural change: the softmmu TLB grew with the 2.0 series.
    tlb_bits = 7 if version.startswith("v1.") else 8
    return DBTSpec(tlb_bits=tlb_bits, cost_overrides=overrides, version=version)
