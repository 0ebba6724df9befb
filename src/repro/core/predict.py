"""Performance prediction from micro-benchmark metrics.

The paper's third contribution: use SimBench's detailed per-operation
measurements "to model application performance without the need to
repeatedly run full-scale application benchmarks."

The model is linear:

    T(app) ~= N_insns * c_base + sum_op  N_op * c_extra(op)

where ``c_base`` is the simulator's baseline cost per instruction
(calibrated from the Intra-Page Direct benchmark, which is nearly pure
compute + chained control flow) and ``c_extra(op)`` is the *extra* cost
of one tested operation over the instructions that carry it, derived
from the benchmark targeting that operation class:

    c_extra(op) = max(0, T_bench/ops - c_base * insns_per_op)

Event counts ``N_op`` for the application come from a single profiling
run (or could come from static analysis); the model then prices the
application on any simulator from that simulator's SimBench results
alone.
"""

from repro.core.runner import JobSpec
from repro.core.suite import SUITE

#: Benchmark used to calibrate the baseline per-instruction cost.
BASE_BENCHMARK = "Intra-Page Direct"


class PerformanceModel:
    """A per-simulator linear cost model fitted from SimBench results."""

    def __init__(self, base_ns_per_insn, extra_ns_per_op, simulator="?"):
        self.base_ns_per_insn = base_ns_per_insn
        #: ``{counter_name: extra ns per event}``
        self.extra_ns_per_op = dict(extra_ns_per_op)
        self.simulator = simulator

    @classmethod
    def fit(cls, suite_result, arch):
        """Fit a model from one simulator's :class:`SuiteResult`."""
        by_name = suite_result.by_name()
        base = by_name.get(BASE_BENCHMARK)
        if base is None or not base.ok or not base.kernel_instructions:
            raise ValueError("suite result lacks a usable %r run" % BASE_BENCHMARK)
        base_cost = base.kernel_ns / base.kernel_instructions
        extra = {}
        for benchmark in SUITE:
            result = by_name.get(benchmark.name)
            if result is None or not result.ok or not result.operations:
                continue
            counters = benchmark.operation_counters_for(arch)
            insns_per_op = result.kernel_instructions / result.operations
            per_op = result.kernel_ns / result.operations
            extra_cost = max(0.0, per_op - base_cost * insns_per_op)
            for counter in counters:
                # Keep the largest estimate when several benchmarks
                # observe the same counter (e.g. loads via Hot Access).
                share = extra_cost / len(counters)
                if share > extra.get(counter, 0.0):
                    extra[counter] = share
        return cls(base_cost, extra, simulator=suite_result.simulator)

    def predict_ns(self, delta):
        """Predict kernel time (ns) for an application counter delta."""
        total = delta.get("instructions", 0) * self.base_ns_per_insn
        for counter, cost in self.extra_ns_per_op.items():
            count = delta.get(counter, 0)
            if count:
                total += count * cost
        return total

    def prediction_error(self, delta, measured_ns):
        """Relative error of the prediction against a measured time."""
        if measured_ns <= 0:
            raise ValueError("measured time must be positive")
        return (self.predict_ns(delta) - measured_ns) / measured_ns

    @classmethod
    def fit_least_squares(cls, suite_result, arch, min_count=1):
        """Fit per-event costs by least squares over the whole suite.

        Each benchmark contributes one equation ``delta . costs =
        kernel_ns``; solving the system under a non-negativity
        constraint (NNLS over every counter that actually varies)
        recovers a much tighter model than the per-benchmark heuristic
        of :meth:`fit` -- the micro-benchmarks collectively span the
        simulator's cost space, which is the strongest form of the
        paper's third contribution.
        """
        import numpy
        from scipy.optimize import nnls

        rows = [res for res in suite_result.results if res.ok and res.kernel_instructions]
        if len(rows) < 4:
            raise ValueError("need at least 4 successful benchmark runs to fit")
        counters = sorted(
            {
                name
                for res in rows
                for name, value in res.kernel_delta.items()
                if value >= min_count
            }
        )
        matrix = numpy.array(
            [[res.kernel_delta.get(name, 0) for name in counters] for res in rows],
            dtype=float,
        )
        times = numpy.array([res.kernel_ns for res in rows], dtype=float)
        solution, _residual = nnls(matrix, times)
        costs = dict(zip(counters, solution.tolist()))
        base = costs.pop("instructions", 0.0)
        return cls(base, costs, simulator=suite_result.simulator)

    def __repr__(self):
        return "PerformanceModel(%s, base=%.1f ns/insn, %d op classes)" % (
            self.simulator,
            self.base_ns_per_insn,
            len(self.extra_ns_per_op),
        )


def predict_workloads(model, runner, workloads, arch, platform, profile_simulator="simit"):
    """Predict each workload's time on ``model.simulator`` from a single
    profiling run on ``profile_simulator``, and compare with the actual
    run.  Both runs of every workload go to ``runner`` as one grid.
    Returns ``[(name, predicted_ns, measured_ns, rel_error)]``.
    """
    specs = []
    for workload in workloads:
        specs.append(JobSpec(workload, profile_simulator, arch, platform))
        specs.append(JobSpec(workload, model.simulator, arch, platform))
    results = runner.run(specs)
    rows = []
    for profile, measured in zip(results[::2], results[1::2]):
        if not profile.ok or not measured.ok:
            continue
        predicted = model.predict_ns(profile.kernel_delta)
        error = (predicted - measured.kernel_ns) / measured.kernel_ns
        rows.append((profile.benchmark, predicted, measured.kernel_ns, error))
    return rows
