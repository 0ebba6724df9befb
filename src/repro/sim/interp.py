"""The SimIt-ARM-like fast interpreter."""

from repro.machine.tlb import ASIDTaggedTLB, SoftTLB
from repro.sim.costs import interp_cost_model
from repro.sim.funccore import FunctionalCore


class FastInterpreter(FunctionalCore):
    """Fast interpreter with a decode cache and a simple MMU model.

    Mirrors the paper's description of SimIt-ARM (Figure 4): a fast
    interpreter with a single-level memory cache and a simple MMU whose
    TLB-miss path is cheap to evaluate.  Because nothing is translated,
    self-modifying code costs almost nothing extra -- the property that
    makes it win the Code Generation benchmarks in Figure 7.  On the
    host it replays predecoded straight-line runs (see
    :meth:`FunctionalCore.run`) unless a Tracer or Debugger is attached.
    """

    name = "simit"
    execution_model = "fast interpreter"

    def __init__(
        self,
        board,
        arch=None,
        tlb_capacity=64,
        use_decode_cache=True,
        asid_tagged=False,
    ):
        dtlb = (
            ASIDTaggedTLB(capacity=tlb_capacity)
            if asid_tagged
            else SoftTLB(capacity=tlb_capacity)
        )
        super().__init__(
            board,
            arch=arch,
            dtlb=dtlb,
            itlb=SoftTLB(capacity=32),
            use_decode_cache=use_decode_cache,
            asid_tagged=asid_tagged,
        )
        self.cost_model = interp_cost_model()

    def feature_summary(self):
        return {
            "Execution Model": "Fast Interpreter",
            "Memory Access": "Single Level Cache",
            "Code Generation": "None",
            "Control Flow (Inter-Page)": "Interpreted",
            "Control Flow (Intra-Page)": "Interpreted",
            "Interrupts": "Insn. Boundaries",
            "Synchronous Exceptions": "Interpreted",
            "Undefined Instruction": "Interpreted",
        }
