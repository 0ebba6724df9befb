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
from repro.sim.dbt.config import DBTConfig
from repro.sim.dbt.versions import QEMU_VERSIONS, dbt_config_for_version
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


def create_simulator(kind, board, arch, **kwargs):
    """Instantiate a simulator by its registry name.

    ``kind`` may also be an :class:`EngineSpec`; keyword arguments are
    validated against the engine's declared spec fields (a ``config``
    entry carries a :class:`DBTConfig` for the DBT engine).
    """
    return as_engine_spec(kind, sim_kwargs=kwargs).build(board, arch)


def cost_model_for(kind, arch=None, dbt_config=None, sim_kwargs=None):
    """The cost model a :func:`create_simulator` instance would carry.

    Lets callers price a recorded counter delta without instantiating
    (or running) an engine -- the basis of the "execute once, price
    many" result dataset.  ``dbt_config``/``sim_kwargs`` mirror the
    harness arguments; a ``config`` entry in ``sim_kwargs`` wins, as it
    does when constructing the engine.  Dispatch is spec-driven, so
    unknown engines fail with the same error as engine construction.
    """
    return as_engine_spec(kind, dbt_config, sim_kwargs).cost_model(arch)


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
    "dbt_config_for_version",
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
    "create_simulator",
    "cost_model_for",
]
