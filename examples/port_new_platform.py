#!/usr/bin/env python
"""Porting SimBench to a new platform (Section II-C).

The paper's portability claim: benchmarks contain no platform- or
architecture-specific code, so a port only writes support packages.
This example defines a brand-new platform ("raspi-ish": a different
memory map, devices at new addresses, a different interrupt line) in a
few lines, and then runs the *unmodified* benchmark suite on it.
"""

from repro.arch import ARM
from repro.core import ExperimentRunner
from repro.platform.base import MemoryLayout, PlatformDescription

_MB = 1 << 20

# The entire port: one platform description.
RASPI_ISH = PlatformDescription(
    name="raspi-ish",
    layout=MemoryLayout(
        ram_base=0x0000_0000,
        ram_size=64 * _MB,
        vector_base=0x0000_6000,
        code_base=0x0002_0000,
        stack_top=0x000E_0000,
        l1_table=0x0108_0000,
        l2_pool=0x0109_0000,
        data_base=0x0240_0000,
        cold_base=0x02C0_0000,
        unmapped_vaddr=0x4000_0000,
    ),
    uart_base=0xD000_0000,
    testctl_base=0xD000_1000,
    safedev_base=0xD000_2000,
    timer_base=0xD000_3000,
    intc_base=0xD000_4000,
    swirq_line=5,
    description="example port: BCM-style peripheral block at 0xD0000000",
)


def main():
    print("Ported platform: %s" % RASPI_ISH.name)
    print("  %s" % RASPI_ISH.description)
    print("  devices at 0x%08x..; software IRQ line %d"
          % (RASPI_ISH.uart_base, RASPI_ISH.swirq_line))
    print()
    print("Running the unmodified 18-benchmark suite on the new platform:")
    suite_result = ExperimentRunner().run_suite("qemu-dbt", ARM, RASPI_ISH, scale=0.25)
    failures = 0
    for result in suite_result:
        print("  %-28s %-6s %10.4f ms  (%d iterations)"
              % (result.benchmark, result.status, result.kernel_ns / 1e6, result.iterations))
        if result.status not in ("ok", "not-applicable"):
            failures += 1
    print()
    if failures:
        print("PORT FAILED: %d benchmarks did not run" % failures)
        raise SystemExit(1)
    print("Port complete: every benchmark retargeted through the platform")
    print("package alone -- no benchmark code was touched, matching the")
    print("paper's ~200-line-per-platform porting story.")


if __name__ == "__main__":
    main()
