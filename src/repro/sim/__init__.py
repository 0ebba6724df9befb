"""Full-system simulators for the SRV32 guest.

Five execution models mirror the paper's evaluated platforms
(Figure 4):

=================  ==================  =====================================
class              paper counterpart   execution model
=================  ==================  =====================================
DBTSimulator       QEMU (DBT)          dynamic binary translation to Python
                                       closures, block chaining, softmmu
FastInterpreter    SimIt-ARM           fast interpreter, decode cache,
                                       single-level page cache
DetailedInterpreter Gem5 (atomic)      detailed interpreter, micro-ops,
                                       event ticks, modelled TLB
VirtSimulator      QEMU-KVM            direct execution model with trapped
                                       device/system operations (vm-exits)
NativeMachine      bare hardware       direct execution cost model
=================  ==================  =====================================
"""

from repro.sim.base import (
    Counters,
    CostModel,
    ExitReason,
    RunResult,
    Simulator,
)
from repro.sim.costs import (
    dbt_cost_model,
    detailed_cost_model,
    interp_cost_model,
    native_cost_model,
    virt_cost_model,
)
from repro.sim.interp import FastInterpreter
from repro.sim.detailed import DetailedInterpreter
from repro.sim.dbt import DBTSimulator
from repro.sim.dbt.versions import QEMU_VERSIONS, dbt_spec_for_version
from repro.sim.virt import VirtSimulator
from repro.sim.native import NativeMachine
from repro.sim.spec import (
    SPEC_CLASSES,
    DBTSpec,
    DetailedSpec,
    EngineSpec,
    InterpSpec,
    NativeSpec,
    VirtSpec,
    as_engine_spec,
    engines_for_arch,
    spec_class_for,
    spec_for,
)

#: Derived from the spec registry -- the one source of truth for which
#: engines exist (see :mod:`repro.sim.spec`).
SIMULATOR_CLASSES = {
    name: cls.simulator_class for name, cls in SPEC_CLASSES.items()
}


__all__ = [
    "Counters",
    "CostModel",
    "ExitReason",
    "RunResult",
    "Simulator",
    "FastInterpreter",
    "DetailedInterpreter",
    "DBTSimulator",
    "VirtSimulator",
    "NativeMachine",
    "QEMU_VERSIONS",
    "dbt_spec_for_version",
    "SIMULATOR_CLASSES",
    "SPEC_CLASSES",
    "EngineSpec",
    "DBTSpec",
    "InterpSpec",
    "DetailedSpec",
    "VirtSpec",
    "NativeSpec",
    "as_engine_spec",
    "engines_for_arch",
    "spec_class_for",
    "spec_for",
]
