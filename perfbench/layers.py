"""Per-layer tracing from the benchmark's side of each layer boundary.

:func:`install` replaces, in the calling process only, each layer's
public entry points with wrappers that record a span (and, where a
layer can waste work, a count of useful outcomes) in a
:class:`~spans.SpanRecorder`.  Nothing under ``src/`` changes: the
wrappers are attributes set on the classes and modules the program
calls through.  Call it only in a process that is meant to be traced;
there is no uninstall.

:func:`layer_metrics` turns the recorded spans into the per-layer
figures named in ``BENCHMARK.json``, per pass.
"""

import os

import repro.analysis.figures as figures
import repro.core.program as program
import repro.workloads.base as workload_base
from repro.core.harness import Harness
from repro.core.runner import ExperimentRunner
from repro.exp.dataset import Dataset
from repro.machine.board import Board
from repro.sim.dbt.translator import TRANSLATION_MEMO, Translator
from repro.sim.spec import EngineSpec
from repro.storage import SESSION_KEYS, DirectoryStore

#: Engines whose ``Simulator.run`` time and speed are reported.
ENGINES = ("qemu-dbt", "simit", "gem5", "qemu-kvm", "native")

_FIGURES = ("figure2", "figure6", "figure7", "figure8")
_RENDERS = ("render_figure6", "render_figure7", "render_series")


def install(rec):
    """Wrap every traced entry point so it records into ``rec``."""

    def span(owner, attr, name):
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name))

    span(Board, "__init__", "machine.board")
    span(Board, "load", "machine.load")
    span(workload_base, "compile_minic", "lang.compile")
    span(program, "assemble", "isa.assemble")
    span(Translator, "translate", "sim.dbt.translate")
    span(Harness, "price_record", "core.price")
    span(Dataset, "rows", "exp.rows_scan")
    span(Dataset, "append", "exp.dataset_append")
    for name in _FIGURES:
        span(figures, name, "analysis.figure")
    for name in _RENDERS:
        span(figures, name, "analysis.render")

    build_program = rec.wrap(Harness.build_program, "core.build_program")

    def counted_build_program(self, benchmark, arch, platform):
        before = len(self._program_cache)
        built = build_program(self, benchmark, arch, platform)
        rec.count("core.programs_built", len(self._program_cache) - before)
        return built

    Harness.build_program = counted_build_program

    build = rec.wrap(EngineSpec.build, "sim.build")

    def traced_build(self, board, arch=None):
        sim = build(self, board, arch)
        run = rec.wrap(sim.run, "sim.run." + self.engine)
        counter = "sim.guest_insns." + self.engine

        def counted_run(*args, **kwargs):
            result = run(*args, **kwargs)
            rec.count(counter, result.instructions)
            return result

        sim.run = counted_run
        return sim

    EngineSpec.build = traced_build

    runner_run = rec.wrap(ExperimentRunner.run, "core.runner")

    def counted_runner_run(self, specs):
        results = runner_run(self, specs)
        rec.count("core.runner.jobs", self.last_stats.get("jobs", 0))
        rec.count("core.runner.unique", self.last_stats.get("unique", 0))
        return results

    ExperimentRunner.run = counted_runner_run

    dataset_get = rec.wrap(Dataset.get, "exp.dataset_get")

    def counted_get(self, key):
        row = dataset_get(self, key)
        rec.count("exp.dataset_gets")
        rec.count("exp.dataset_hits", row is not None)
        return row

    Dataset.get = counted_get

    # Bytes the store layer writes: new entries, then the totals file.
    for attr in ("put", "put_new"):

        def counted_put(self, key, value, _put=getattr(DirectoryStore, attr)):
            stored = _put(self, key, value)
            if stored is not False:
                rec.count("storage.bytes_written", os.path.getsize(self._path(key)))
            return stored

        setattr(DirectoryStore, attr, counted_put)

    fold_totals = DirectoryStore.fold_totals

    def counted_fold(self, delta=None):
        totals = fold_totals(self, delta)
        # fold_totals rewrites the file only for a non-zero delta.
        folded = self.session_stats() if delta is None else delta
        if any(folded.get(key, 0) for key in SESSION_KEYS):
            rec.count("storage.bytes_written", os.path.getsize(self._totals_path()))
        return totals

    DirectoryStore.fold_totals = rec.wrap(counted_fold, "storage.fold_totals")


def memo_counts():
    """``(hits, misses)`` of the process-wide translation memo."""
    return TRANSLATION_MEMO.hits, TRANSLATION_MEMO.misses


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(rec, roots, memo_before, passes):
    """Per-layer metrics, per pass, from the spans under ``roots``.

    ``memo_before`` is :func:`memo_counts` taken before the first
    traced pass."""
    inclusive = rec.totals()
    own = rec.totals(self_time=True)
    counters = rec.counters
    self_times = rec.self_times()

    def seconds(name, table=inclusive):
        return table.get(name, (0, 0))[0] / 1e9 / passes

    def per_pass(name):
        return counters.get(name, 0) / passes

    out = {
        "machine.board_s": seconds("machine.board"),
        "machine.load_s": seconds("machine.load"),
        "lang.compile_s": seconds("lang.compile"),
        "isa.assemble_s": seconds("isa.assemble"),
        "core.build_program_s": seconds("core.build_program"),
        "core.programs_built": per_pass("core.programs_built"),
        "sim.build_s": seconds("sim.build"),
    }
    insns_total = 0
    for engine in ENGINES:
        run_s = seconds("sim.run." + engine)
        insns = per_pass("sim.guest_insns." + engine)
        insns_total += insns
        out["sim.run_s." + engine] = run_s
        out["sim.mips." + engine] = insns / run_s / 1e6 if run_s else 0.0
    hits, misses = memo_counts()
    hits -= memo_before[0]
    misses -= memo_before[1]
    out.update(
        {
            "sim.guest_insns": insns_total,
            "sim.dbt.translate_s": seconds("sim.dbt.translate"),
            "sim.dbt.translations": inclusive.get("sim.dbt.translate", (0, 0))[1]
            / passes,
            "sim.dbt.memo_hit_ratio": _ratio(hits, hits + misses),
            "core.price_s": seconds("core.price"),
            "core.runner.self_s": seconds("core.runner", own),
            "core.runner.dedup_ratio": _ratio(
                counters.get("core.runner.unique", 0),
                counters.get("core.runner.jobs", 0),
            ),
            "exp.dataset_get_s": seconds("exp.dataset_get"),
            "exp.dataset_hit_ratio": _ratio(
                counters.get("exp.dataset_hits", 0),
                counters.get("exp.dataset_gets", 0),
            ),
            "exp.rows_scan_s": seconds("exp.rows_scan"),
            "exp.dataset_append_s": seconds("exp.dataset_append"),
            "storage.fold_totals_s": seconds("storage.fold_totals"),
            "storage.bytes_written": per_pass("storage.bytes_written"),
            "analysis.figure_s": seconds("analysis.figure", own),
            "analysis.render_s": seconds("analysis.render"),
            "unattributed_s": sum(self_times[root] for root in roots) / 1e9 / passes,
        }
    )
    return out
