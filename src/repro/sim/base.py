"""Common simulator infrastructure: counters, cost models, interfaces."""

import enum
import types


#: Every event class an engine may account.  Keeping the list in one
#: place makes counter snapshots/diffs trivially complete.
COUNTER_NAMES = (
    "instructions",
    "loads",
    "stores",
    "branches_direct_intra",
    "branches_direct_inter",
    "branches_indirect_intra",
    "branches_indirect_inter",
    "branches_not_taken",
    "calls",
    "data_aborts",
    "prefetch_aborts",
    "undefs",
    "syscalls",
    "irqs",
    "exception_returns",
    "mmio_reads",
    "mmio_writes",
    "coproc_reads",
    "coproc_writes",
    "nonpriv_accesses",
    "tlb_hits",
    "tlb_misses",
    "tlb_evictions",
    "tlb_flushes",
    "tlb_invalidations",
    "context_switches",
    "ptw_levels",
    "decode_hits",
    "decode_misses",
    "translations",
    "retranslations",
    "translated_insns",
    "block_executions",
    "chain_follows",
    "slow_dispatches",
    "smc_invalidations",
    "code_writes",
    "micro_ops",
    "tick_events",
    "vm_exits",
)


class Counters:
    """Dynamic event counters, shared vocabulary across all engines."""

    __slots__ = COUNTER_NAMES

    def __init__(self):
        for name in COUNTER_NAMES:
            setattr(self, name, 0)

    def snapshot(self):
        return {name: getattr(self, name) for name in COUNTER_NAMES}

    def reset(self):
        for name in COUNTER_NAMES:
            setattr(self, name, 0)

    @staticmethod
    def delta(before, after):
        """Difference of two snapshots (dicts)."""
        return {name: after[name] - before[name] for name in COUNTER_NAMES}

    # Derived views -----------------------------------------------------
    @property
    def taken_branches(self):
        return (
            self.branches_direct_intra
            + self.branches_direct_inter
            + self.branches_indirect_intra
            + self.branches_indirect_inter
        )

    @property
    def exceptions(self):
        return self.data_aborts + self.prefetch_aborts + self.undefs + self.syscalls

    def __repr__(self):
        interesting = {k: v for k, v in self.snapshot().items() if v}
        return "Counters(%r)" % interesting


class CostModel:
    """Maps counter deltas to modeled host nanoseconds.

    ``costs`` maps counter names to per-event host cost in nanoseconds.
    Unknown counters cost zero.  The model is deliberately linear: the
    *shape* of every reproduced figure comes from real event counts, the
    cost table only scales them into 'seconds'.

    A model is read-only once built (``costs`` is a read-only view;
    :meth:`scaled` and :meth:`with_overrides` return new models), so it
    can flatten its table once: :meth:`evaluate` walks only the
    non-zero ``(counter, cost)`` terms, in table order.  Skipping a
    zero-cost term is exact: the running total starts at ``+0.0`` and
    so is never ``-0.0``, and adding ``count * 0.0`` (``±0.0`` for an
    integer count) to it leaves every bit unchanged.
    """

    __slots__ = ("_costs", "_terms", "name")

    def __init__(self, costs, name="costs"):
        unknown = set(costs) - set(COUNTER_NAMES)
        if unknown:
            raise ValueError("unknown counters in cost model: %s" % sorted(unknown))
        costs = dict(costs)
        self._costs = types.MappingProxyType(costs)
        self._terms = tuple((counter, cost) for counter, cost in costs.items() if cost)
        self.name = name

    @property
    def costs(self):
        """The per-counter cost table (a read-only mapping)."""
        return self._costs

    def __reduce__(self):
        return (type(self), (dict(self._costs), self.name))

    def evaluate(self, delta):
        """Return modeled nanoseconds for a counter-delta dict."""
        total = 0.0
        get = delta.get
        for counter, cost in self._terms:
            count = get(counter, 0)
            if count:
                total += count * cost
        return total

    def scaled(self, factors):
        """A copy with per-counter multiplicative adjustments."""
        costs = dict(self._costs)
        for counter, factor in factors.items():
            costs[counter] = costs.get(counter, 0.0) * factor
        return CostModel(costs, name=self.name)

    def with_overrides(self, overrides):
        costs = dict(self._costs)
        costs.update(overrides)
        return CostModel(costs, name=self.name)


class ExitReason(enum.Enum):
    HALT = "halt"
    LIMIT = "limit"
    DEADLOCK = "deadlock"


class RunResult:
    """Outcome of one :meth:`Simulator.run` call."""

    __slots__ = ("exit_reason", "halt_code", "instructions")

    def __init__(self, exit_reason, halt_code, instructions):
        self.exit_reason = exit_reason
        self.halt_code = halt_code
        self.instructions = instructions

    @property
    def halted_ok(self):
        return self.exit_reason is ExitReason.HALT and self.halt_code == 0

    def __repr__(self):
        return "RunResult(%s, code=%r, insns=%d)" % (
            self.exit_reason.value,
            self.halt_code,
            self.instructions,
        )


class Simulator:
    """Abstract full-system simulator.

    Engines attach to a :class:`~repro.machine.board.Board`, execute its
    CPU against its memory, and account every interesting event in
    :attr:`counters`.  Modeled host time is ``cost_model.evaluate`` over
    a counter delta; the harness collects deltas at benchmark phase
    boundaries.
    """

    name = "simulator"
    execution_model = "abstract"
    #: Whether per-instruction tooling (Tracer/Debugger) can attach via
    #: the ``_pre_execute`` hook.  Engines that execute translated code
    #: rather than dispatching per instruction leave this False.
    supports_insn_trace = False
    #: Whether block-granularity tracing (``trace_blocks``) applies.
    supports_block_trace = False

    def __init__(self, board, arch=None):
        self.board = board
        self.cpu = board.cpu
        self.arch = arch
        self.counters = Counters()
        self.cost_model = CostModel({}, name=self.name)
        board.timer.tick_source = lambda: self.counters.instructions

    def run(self, max_insns=None):
        """Execute until HALT, the instruction limit, or deadlock."""
        raise NotImplementedError

    def feature_summary(self):
        """Qualitative description matching the rows of Figure 4."""
        raise NotImplementedError

    def modeled_ns(self, delta):
        return self.cost_model.evaluate(delta)

    def __repr__(self):
        return "<%s on %s>" % (type(self).__name__, self.board.platform.name)
