"""The benchmark harness.

Runs benchmarks on simulators following the paper's methodology:

- each benchmark runs bare-metal with a configurable iteration count;
- only the kernel phase is timed (the harness observes the guest's
  phase-marker writes to the test-control device);
- both the run time and the iteration count are reported.

Two timing policies are supported:

- ``MODELED`` (default): deterministic virtual host time, computed as
  the engine's cost model over the kernel-phase counter delta;
- ``WALLCLOCK``: real host time between the phase markers (meaningful
  for the software engines, noisy but honest).
"""

import enum
import time

from repro.errors import (
    EngineCrashError,
    GuestHalted,
    HarnessError,
    UnsupportedFeatureError,
    error_from_payload,
    error_to_payload,
)
from repro.core.benchmark import BenchmarkResult
from repro.core.program import PHASE_KERNEL_DONE, PHASE_SETUP_DONE
from repro.machine import Board
from repro.obs.metrics import METRICS
from repro.sim.base import Counters, ExitReason
from repro.sim.spec import as_engine_spec


class TimingPolicy(enum.Enum):
    MODELED = "modeled"
    WALLCLOCK = "wallclock"


#: Statuses that mean a run *failed* (as opposed to completing, being
#: statically inapplicable, or hitting a known engine limitation):
#: ``error`` (protocol violation / runaway guest), ``crashed`` (an
#: unexpected exception escaped the engine) and ``timeout`` (the
#: runner's per-job wall deadline fired).
FAILURE_STATUSES = ("error", "crashed", "timeout")

#: Statuses of records worth keeping for reuse (in the dataset, or in
#: a dataset-less runner's memory): completed cells and known engine
#: limitations.  Failures are transient by policy, so a failed cell
#: re-executes instead of pinning the failure.
STORABLE_STATUSES = ("ok", "unsupported")


class ExecutionRecord:
    """The raw outcome of *executing* one benchmark on one engine.

    This is the cacheable half of a benchmark run: everything in it is
    a pure, deterministic function of the job's structural inputs
    (benchmark, engine, arch/platform, iterations, structural config)
    -- except ``kernel_wall_ns``, which records the host time of the
    run that produced the record and is only meaningful under the
    WALLCLOCK policy.  Dataset rows leave it out, and a record decoded
    without it carries 0.  Pricing a record through a cost model
    (:meth:`Harness.price_record`) turns it into a
    :class:`~repro.core.benchmark.BenchmarkResult`.
    """

    __slots__ = (
        "status",
        "error",
        "kernel_delta",
        "kernel_wall_ns",
        "total_instructions",
    )

    def __init__(
        self,
        status="ok",
        error=None,
        kernel_delta=None,
        kernel_wall_ns=0,
        total_instructions=0,
    ):
        self.status = status
        self.error = error
        self.kernel_delta = kernel_delta if kernel_delta is not None else {}
        self.kernel_wall_ns = kernel_wall_ns
        self.total_instructions = total_instructions

    @property
    def ok(self):
        return self.status == "ok"

    def copy(self):
        """An equal record with its own ``kernel_delta`` dict."""
        return ExecutionRecord(
            status=self.status,
            error=self.error,
            kernel_delta=dict(self.kernel_delta),
            kernel_wall_ns=self.kernel_wall_ns,
            total_instructions=self.total_instructions,
        )

    def to_payload(self):
        """A JSON-serialisable dict (used by the result dataset and any
        future remote transport).  The error -- whatever its class --
        is serialised losslessly via
        :func:`repro.errors.error_to_payload`, so non-ok records keep
        their cause across process and disk boundaries."""
        payload = {
            "status": self.status,
            "kernel_delta": dict(self.kernel_delta),
            "kernel_wall_ns": self.kernel_wall_ns,
            "total_instructions": self.total_instructions,
        }
        error_payload = error_to_payload(self.error)
        if error_payload is not None:
            payload["error"] = error_payload
        return payload

    @classmethod
    def from_payload(cls, payload):
        if "error" in payload:
            error = error_from_payload(payload["error"])
        elif payload.get("unsupported"):
            # Legacy entries (schema <= 2) carried only unsupported-
            # feature errors, under a dedicated key.
            error = UnsupportedFeatureError(*payload["unsupported"])
        else:
            error = None
        return cls(
            status=payload["status"],
            error=error,
            kernel_delta=dict(payload["kernel_delta"]),
            kernel_wall_ns=payload.get("kernel_wall_ns", 0),
            total_instructions=payload["total_instructions"],
        )

    def __repr__(self):
        return "ExecutionRecord(%s, %d kernel insns)" % (
            self.status,
            self.kernel_delta.get("instructions", 0),
        )


class SuiteResult:
    """Results of running (part of) the suite on one simulator."""

    def __init__(self, simulator, arch, platform, results):
        self.simulator = simulator
        self.arch = arch
        self.platform = platform
        self.results = list(results)

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def by_name(self):
        return {res.benchmark: res for res in self.results}

    def failures(self):
        """The results whose status is a failure (``error``/``crashed``/
        ``timeout``) -- not-applicable and unsupported cells are
        expected outcomes, not failures."""
        return [res for res in self.results if res.status in FAILURE_STATUSES]

    def __repr__(self):
        return "SuiteResult(%s/%s, %d benchmarks)" % (
            self.simulator,
            self.arch,
            len(self.results),
        )


class _PhaseRecorder:
    """Snapshots wall time and counters at each phase-marker write."""

    def __init__(self, simulator):
        self._simulator = simulator
        self.snapshots = {}

    def __call__(self, phase):
        self.snapshots[phase] = (
            time.perf_counter_ns(),
            self._simulator.counters.snapshot(),
        )


class Harness:
    """Builds, runs and times SimBench programs on simulators.

    The harness holds the per-cell primitives -- :meth:`build_program`,
    :meth:`execute_benchmark` and :meth:`price_record` -- that
    :class:`~repro.core.runner.ExperimentRunner` composes; grids of
    cells run through the runner, never through the harness directly.
    """

    def __init__(self, timing=TimingPolicy.MODELED, max_insns=50_000_000):
        self.timing = TimingPolicy(timing)
        self.max_insns = max_insns
        self._program_cache = {}

    # ------------------------------------------------------------------
    def build_program(self, benchmark, arch, platform):
        """Build (and cache) a benchmark's guest program."""
        key = (benchmark.name, arch.name, platform.name)
        built = self._program_cache.get(key)
        if built is None:
            built = benchmark.build(arch, platform)
            self._program_cache[key] = built
        return built

    # ------------------------------------------------------------------
    def execute_benchmark(
        self,
        benchmark,
        simulator,
        arch,
        platform,
        iterations=None,
    ):
        """Execute one benchmark on one simulator and return the raw
        :class:`ExecutionRecord` (the kernel-phase counter delta plus
        run status) -- no cost model is applied.

        ``simulator`` is an :class:`~repro.sim.spec.EngineSpec` or a
        registry name (its default spec).  The record depends only on the spec's *structural*
        fields, so two configs differing only in cost overrides produce
        identical records; :meth:`price_record` applies a specific cost
        table afterwards.
        """
        spec = as_engine_spec(simulator)
        if iterations is None:
            iterations = benchmark.default_iterations

        if not benchmark.effective(arch):
            return ExecutionRecord(status="not-applicable")
        if not benchmark.supported_by(spec.engine):
            return ExecutionRecord(status="unsupported")

        sim = None
        try:
            with METRICS.phase("harness.setup"):
                built = self.build_program(benchmark, arch, platform)
                board = Board(platform)
                board.load(built.program)
                board.set_iterations(iterations)
                sim = spec.build(board, arch)

                recorder = _PhaseRecorder(sim)
                board.testctl.on_phase = recorder

            with METRICS.phase("harness.run"):
                run = sim.run(max_insns=self.max_insns)
        except UnsupportedFeatureError as exc:
            return ExecutionRecord(status="unsupported", error=exc)
        except Exception as exc:
            # Fault isolation: an unexpected engine/decoder/MMU (or
            # program-build) exception becomes one ``crashed`` row
            # instead of aborting the whole grid.  The cause is kept as
            # strings so the record survives pool and dataset transport.
            return ExecutionRecord(
                status="crashed", error=EngineCrashError.from_exception(exc)
            )
        finally:
            # An engine and its board form reference cycles; dropping
            # the engine's state lets reference counting unmap the
            # board's RAM (and release the pages the guest touched) now
            # instead of whenever the cyclic collector next runs, which
            # keeps peak memory to one board per job.
            if sim is not None:
                vars(sim).clear()
        if run.exit_reason is not ExitReason.HALT:
            return ExecutionRecord(
                status="error",
                error=HarnessError(
                    "%s did not halt (%s) on %s"
                    % (benchmark.name, run.exit_reason.value, spec.engine)
                ),
            )
        if run.halt_code != 0:
            return ExecutionRecord(status="error", error=GuestHalted(run.halt_code))
        if PHASE_SETUP_DONE not in recorder.snapshots or PHASE_KERNEL_DONE not in recorder.snapshots:
            return ExecutionRecord(
                status="error",
                error=HarnessError(
                    "phase markers missing: %r" % sorted(recorder.snapshots)
                ),
            )

        wall_start, counters_start = recorder.snapshots[PHASE_SETUP_DONE]
        wall_end, counters_end = recorder.snapshots[PHASE_KERNEL_DONE]
        return ExecutionRecord(
            status="ok",
            kernel_delta=Counters.delta(counters_start, counters_end),
            kernel_wall_ns=wall_end - wall_start,
            total_instructions=run.instructions,
        )

    # ------------------------------------------------------------------
    def price_record(
        self,
        record,
        benchmark,
        simulator,
        arch,
        platform,
        iterations=None,
    ):
        """Price an :class:`ExecutionRecord` under the engine's cost
        model and return a :class:`~repro.core.benchmark.BenchmarkResult`.

        ``simulator`` is a spec or a registry name, as in
        :meth:`execute_benchmark`.  Under ``MODELED`` timing the result
        is a pure function of the record and the spec's cost table, so
        a stored record prices to exactly the result a fresh execution
        would have produced.
        """
        spec = as_engine_spec(simulator)
        if iterations is None:
            iterations = benchmark.default_iterations
        with METRICS.phase("harness.price"):
            return self._price_record(
                record, benchmark, spec, arch, platform, iterations
            )

    def _price_record(self, record, benchmark, spec, arch, platform, iterations):
        result = BenchmarkResult(benchmark.name, spec.engine, arch.name, platform.name)
        result.iterations = iterations
        result.paper_iterations = benchmark.paper_iterations
        result.status = record.status
        result.error = record.error
        if not record.ok:
            return result
        delta = record.kernel_delta
        result.kernel_delta = delta
        result.kernel_instructions = delta["instructions"]
        result.kernel_wall_ns = record.kernel_wall_ns
        if self.timing is TimingPolicy.MODELED:
            result.kernel_ns = spec.cost_model(arch).evaluate(delta)
        else:
            result.kernel_ns = float(record.kernel_wall_ns)
        result.total_instructions = record.total_instructions
        counters = benchmark.operation_counters_for(arch)
        result.operations = sum(delta.get(name, 0) for name in counters)
        return result
