#!/usr/bin/env python
"""Section III-B.2: virtualization vs native performance.

Application benchmarks make hardware-assisted virtualization look
identical to bare metal; SimBench exposes where it is not.  This
example runs the SPEC proxies *and* SimBench on the KVM-style model
and the native model, for both guest profiles, and reports the
divergences the paper found: interrupt delivery, memory-mapped device
access, and (on x86) undefined-instruction hypercalls.
"""

from repro.analysis import figures
from repro.arch import ARM, X86
from repro.core import ExperimentRunner, JobSpec
from repro.platform import PCPLAT, VEXPRESS
from repro.workloads import SPEC_PROXIES


def main():
    runner = ExperimentRunner()

    print("Application view: KVM vs native on the SPEC proxies (ARM guest)")
    print("=" * 64)
    ratios = []
    for workload in SPEC_PROXIES[:6]:
        kvm, native = runner.run(
            [
                JobSpec(workload, simulator, ARM, VEXPRESS, iterations=2)
                for simulator in ("qemu-kvm", "native")
            ]
        )
        ratio = kvm.kernel_ns / native.kernel_ns
        ratios.append(ratio)
        print("  %-12s kvm/native = %5.2fx" % (workload.name, ratio))
    print("  -> compute workloads look near-native; nothing alarming here.")

    print()
    print("SimBench view: where virtualization actually pays")
    print("=" * 64)
    fig7 = figures.figure7(scale=0.5, runner=runner)
    divergences = figures.explain_virtualization(fig7)
    for arch_name in ("arm", "x86"):
        print()
        print("  %s guest (kvm/native ratio, worst first):" % arch_name)
        for name, ratio in divergences[arch_name][:6]:
            marker = " <-- trapped operation" if ratio > 5 else ""
            print("    %-28s %8.1fx%s" % (name, ratio, marker))

    print()
    print("The paper's conclusion, reproduced: accesses to emulated devices")
    print("and software interrupts are trapped into the virtualization")
    print("layer at enormous cost, and x86 KVM reflects undefined")
    print("instructions as hypercalls -- none of which application")
    print("benchmarks can surface.")


if __name__ == "__main__":
    main()
