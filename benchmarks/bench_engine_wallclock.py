"""Wall-clock engine benchmarks (pytest-benchmark proper).

Unlike the figure benches (which use deterministic modeled time),
these measure how fast the *engines themselves* execute guest code on
this host -- the genuinely structural comparison: the DBT engine runs
compiled Python per block, the fast interpreter and the native and
qemu-kvm models replay predecoded blocks, and the detailed interpreter
steps one instruction at a time with an order of magnitude more
bookkeeping per instruction.  Each matrix cell reports the median, min
and max of :data:`MATRIX_RUNS` runs.

Three guest kernels stress the three hot paths:

- ``hot-loop``  -- ALU-bound straight-line loop (dispatch cost);
- ``mem-loop``  -- load/store-bound loop walking a buffer with the MMU
  on, booted as every benchmark program is (the DBT's inline softmmu
  hit, the functional cores' ``_mem_read``/``_mem_write`` fast path);
- ``exc-loop``  -- SWI-per-iteration loop through a real vector table
  (exception entry/return, which predecoded blocks must not break).

Besides the per-engine matrix, two tracked speedups gate the fast-path
work: the fast interpreter replaying predecoded blocks vs the same
engine forced to step per instruction by a no-op ``_pre_execute`` hook
(floor: 2x on ``hot-loop``, read as the median of per-round ratios),
and a warm vs cold DBT sweep through the persistent code cache (floor:
3x).  A third tracked split runs ``hot-loop`` with the observability
layer disabled vs enabled (ceiling: 5% overhead enabled, read as the
median of per-round ratios; guest counters bit-identical).
The standalone entry point emits ``BENCH_engines.json`` at the repo
root (same shape as ``BENCH_runner.json``); all runs assert counters
are bit-identical across each split.

Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_engine_wallclock.py [--quick]
"""

import gc
import json
import os
import pathlib
import statistics
import tempfile
import time

import pytest

from repro.arch import ARM
from repro.arch.base import AsmWriter
from repro.core import ExperimentRunner, Harness, JobSpec, get_benchmark
from repro.core.program import ProgramBuilder
from repro.isa.assembler import assemble
from repro.machine import Board
from repro.platform import VEXPRESS
from repro.obs.metrics import METRICS
from repro.sim import (
    DBTSimulator,
    DetailedInterpreter,
    FastInterpreter,
    NativeMachine,
    VirtSimulator,
)
from repro.sim.dbt import codestore
from repro.sim.dbt.translator import TRANSLATION_MEMO

REPO_ROOT = pathlib.Path(__file__).parent.parent

HOT_LOOP_ITERS = 20_000
MEM_LOOP_OUTER = 300
EXC_LOOP_ITERS = 8_000
UNROLLED_INSNS = 6_000
#: The metrics-overhead split times ``hot-loop`` at this many times its
#: iterations, so a scheduling hiccup is a smaller share of one run.
OVERHEAD_LOOP_SCALE = 4
#: Runs per engine-matrix cell (median, min and max are reported).
MATRIX_RUNS = 5
#: Timed rounds per paired split (:func:`_paired_rounds`).
ROUNDS = 31

HOT_LOOP = """
.org 0x8000
_start:
    li sp, 0x100000
    li r1, %d
loop:
    addi r2, r2, 3
    eori r2, r2, 0x55
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
"""

MEM_LOOP = """
.org 0x8000
_start:
%(boot)s
    li r1, %(outer)d
outer:
    li r3, 0x20000
    li r5, 64
inner:
    str r2, [r3]
    ldr r4, [r3, #4]
    str r4, [r3, #8]
    ldr r2, [r3, #12]
    addi r3, r3, 16
    subi r5, r5, 1
    cmpi r5, 0
    bne inner
    subi r1, r1, 1
    cmpi r1, 0
    bne outer
    halt #0
"""

EXC_LOOP = """
.org 0x4000
    b _start          ; RESET
    b other_handler   ; UNDEF
    b swi_handler     ; SWI
    b other_handler   ; PREFETCH_ABORT
    b other_handler   ; DATA_ABORT
    b other_handler   ; IRQ
.org 0x8000
_start:
    li sp, 0x100000
    li r0, 0x4000
    mcr r0, p15, c6
    li r1, %d
loop:
    swi #1
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
swi_handler:
    addi r2, r2, 1
    sret
other_handler:
    halt #0xEE
"""


def mmu_boot():
    """The reset path of a benchmark program built with
    ``enable_mmu=True``: stack, VBAR, page tables for the default
    regions, then SCTLR bit 0."""
    w = AsmWriter()
    regions = ProgramBuilder(ARM, VEXPRESS).default_regions()
    ARM.emit_boot(w, VEXPRESS, regions, enable_mmu=True)
    return w.text


def kernels(scale=1):
    """The three guest kernels at 1/scale of their full iteration
    counts (quick mode uses scale=4)."""
    return {
        "hot-loop": HOT_LOOP % max(HOT_LOOP_ITERS // scale, 1000),
        "mem-loop": MEM_LOOP % {"boot": mmu_boot(), "outer": max(MEM_LOOP_OUTER // scale, 20)},
        "exc-loop": EXC_LOOP % max(EXC_LOOP_ITERS // scale, 500),
    }


def unrolled_program(n_insns=UNROLLED_INSNS):
    """A straight-line program of ``n_insns`` distinct instructions,
    each executed exactly once: translation cost dominates, which is
    what the persistent code cache amortizes across sweep processes."""
    body = []
    for i in range(n_insns):
        if i % 2:
            body.append("    eori r2, r2, 0x%x" % (1 + i % 251))
        else:
            body.append("    addi r3, r3, %d" % (1 + i % 63))
    return (
        ".org 0x8000\n_start:\n    li sp, 0x100000\n"
        + "\n".join(body)
        + "\n    halt #0\n"
    )


_ENGINES = {
    "qemu-dbt": DBTSimulator,
    "simit": FastInterpreter,
    "gem5": DetailedInterpreter,
    "qemu-kvm": VirtSimulator,
    "native": NativeMachine,
}


def _run_engine(engine_cls, program, max_insns=2_000_000, step=False):
    """Run ``program`` once; ``step`` attaches a no-op ``_pre_execute``
    hook (as the Tracer does), which makes a functional-core engine
    step one instruction at a time instead of replaying blocks."""
    board = Board(VEXPRESS)
    board.load(program)
    engine = engine_cls(board, arch=ARM)
    if step:
        engine._pre_execute = lambda insn, pc: None
    t0 = time.perf_counter()
    result = engine.run(max_insns=max_insns)
    seconds = time.perf_counter() - t0
    assert result.halted_ok, result
    return engine, seconds


def run_engine_matrix(scale=1):
    """Wall-clock seconds for every engine on every kernel: the median,
    min and max of :data:`MATRIX_RUNS` runs per cell (MIPS from the median)."""
    matrix = {}
    for kernel_name, source in kernels(scale).items():
        program = assemble(source)
        row = {}
        for engine_name, engine_cls in _ENGINES.items():
            timings = []
            for _ in range(MATRIX_RUNS):
                engine, seconds = _run_engine(engine_cls, program)
                timings.append(seconds)
            median = statistics.median(timings)
            row[engine_name] = {
                "seconds": median,
                "min_seconds": min(timings),
                "max_seconds": max(timings),
                "runs": MATRIX_RUNS,
                "instructions": engine.counters.instructions,
                "mips": engine.counters.instructions / median / 1e6,
            }
        matrix[kernel_name] = row
    return matrix


def _paired_rounds(modes):
    """Time each ``(name, run)`` of ``modes`` once as a warm-up, then
    :data:`ROUNDS` rounds that each time every mode back to back, with the
    garbage collector held off while a run is timed and the mode that
    goes first alternating from round to round.  ``run()`` returns
    ``(engine, seconds)``; returns ``({name: [seconds per round]},
    {name: engine of its last round})``."""
    timings = {name: [] for name, _run in modes}
    engines = {}

    def timed(run):
        gc.collect()
        gc.disable()
        try:
            return run()
        finally:
            gc.enable()

    for _name, run in modes:
        timed(run)  # warm-up, not timed
    for index in range(ROUNDS):
        for name, run in modes if index % 2 == 0 else modes[::-1]:
            engines[name], seconds = timed(run)
            timings[name].append(seconds)
    return timings, engines


def _median_ratio(numerators, denominators):
    """The median of the per-round ratios: a burst of host load spoils
    the rounds it lands in, not the median, where a ratio of two
    single timings (or of two minima taken over different rounds)
    moves with every burst."""
    return statistics.median(a / b for a, b in zip(numerators, denominators))


def run_interp_block_split(scale=1):
    """Fast interpreter replaying predecoded blocks vs stepping one
    instruction at a time, on the hot loop, timed in alternating
    rounds (:func:`_paired_rounds`); the speedup is the median of the
    per-round step/block ratios.  Counters must be bit-identical,
    wallclock must not be."""
    program = assemble(kernels(scale)["hot-loop"])
    timings, engines = _paired_rounds(
        (
            ("step", lambda: _run_engine(FastInterpreter, program, step=True)),
            ("block", lambda: _run_engine(FastInterpreter, program)),
        )
    )
    assert (
        engines["step"].counters.snapshot() == engines["block"].counters.snapshot()
    ), "predecoded blocks changed guest-visible counters"
    return {
        "baseline_seconds": statistics.median(timings["step"]),
        "block_seconds": statistics.median(timings["block"]),
        "speedup": _median_ratio(timings["step"], timings["block"]),
        "instructions": engines["block"].counters.instructions,
        "identical_counters": True,
    }


def run_dbt_code_cache_sweep(scale=1):
    """Cold vs warm pass over a translation-heavy program through the
    persistent code cache.

    ``TRANSLATION_MEMO`` is cleared before each pass so every pass
    behaves like a fresh sweep process: the cold pass lowers and
    compiles every block (filling the store), the warm pass loads the
    marshalled code objects back instead.
    """
    program = assemble(unrolled_program(max(UNROLLED_INSNS // scale, 1500)))
    with tempfile.TemporaryDirectory() as cache_dir:
        try:
            store = codestore.configure(cache_dir)
            TRANSLATION_MEMO.clear()
            cold_engine, cold_seconds = _run_engine(DBTSimulator, program)
            TRANSLATION_MEMO.clear()
            warm_engine, warm_seconds = _run_engine(DBTSimulator, program)
            stats = store.stats()
        finally:
            codestore.configure(None)
    assert (
        cold_engine.counters.snapshot() == warm_engine.counters.snapshot()
    ), "persistent code cache changed guest-visible counters"
    assert stats["hits"] > 0, "warm pass never hit the code cache"
    return {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "instructions": warm_engine.counters.instructions,
        "store_stats": {
            key: stats[key]
            for key in ("entries", "bytes", "hits", "misses", "stores", "quarantined")
        },
        "identical_counters": True,
    }


def run_metrics_overhead_split(scale=1):
    """Hot interpreter kernel with the observability layer disabled vs
    enabled, timed in alternating rounds (:func:`_paired_rounds`) on a
    kernel of :data:`OVERHEAD_LOOP_SCALE` times the ``hot-loop``
    iterations; the reading is the median of the per-round
    enabled/disabled ratios.

    The per-instruction dispatch loop carries no instrumentation at
    all -- only decode misses and TLB walks check ``METRICS.enabled``
    -- so even the *enabled* overhead must stay small on this kernel,
    and the disabled overhead (what every normal run pays) is bounded
    above by it.  Guest counters must be bit-identical either way.
    """
    program = assemble(
        HOT_LOOP % max(OVERHEAD_LOOP_SCALE * HOT_LOOP_ITERS // scale, 1000)
    )

    def metered(enabled):
        METRICS.reset()
        METRICS.enable(enabled)
        try:
            return _run_engine(FastInterpreter, program)
        finally:
            METRICS.enable(False)

    try:
        timings, engines = _paired_rounds(
            (
                ("disabled", lambda: metered(False)),
                ("enabled", lambda: metered(True)),
            )
        )
    finally:
        METRICS.reset()
    snapshots = {mode: engine.counters.snapshot() for mode, engine in engines.items()}
    assert (
        snapshots["disabled"] == snapshots["enabled"]
    ), "metrics layer changed guest-visible counters"
    ratio = _median_ratio(timings["enabled"], timings["disabled"])
    return {
        "disabled_seconds": statistics.median(timings["disabled"]),
        "enabled_seconds": statistics.median(timings["enabled"]),
        "overhead_pct": (ratio - 1.0) * 100.0,
        "instructions": snapshots["enabled"]["instructions"],
        "identical_counters": True,
    }


def run_all(scale=1):
    return {
        "scale": scale,
        "cpu_count": os.cpu_count(),
        "engines": run_engine_matrix(scale),
        "interp_block_cache": run_interp_block_split(scale),
        "dbt_code_cache": run_dbt_code_cache_sweep(scale),
        "metrics_overhead": run_metrics_overhead_split(scale),
    }


# ---------------------------------------------------------------- pytest


@pytest.mark.parametrize("engine_name", list(_ENGINES), ids=list(_ENGINES))
@pytest.mark.parametrize("kernel_name", ["hot-loop", "mem-loop", "exc-loop"])
def test_engine_kernel_wallclock(benchmark, engine_name, kernel_name):
    """Host time to retire one kernel on one engine."""
    program = assemble(kernels()[kernel_name])

    def run():
        engine, _seconds = _run_engine(_ENGINES[engine_name], program)
        return engine.counters.instructions

    insns = benchmark(run)
    assert insns > 10_000


@pytest.mark.parametrize("engine_name", ["qemu-dbt", "simit"], ids=["qemu-dbt", "simit"])
def test_engine_smc_workload_wallclock(benchmark, engine_name):
    """Host time for the Small Blocks benchmark: the DBT engine pays
    real retranslation cost here, the interpreter does not."""
    # A fresh runner per round, sharing one harness (and its built
    # program): a runner would reuse the record its first round
    # executed instead of running the engine again.
    harness = Harness()
    spec = JobSpec(get_benchmark("Small Blocks"), engine_name, ARM, VEXPRESS, iterations=40)

    def run():
        [result] = ExperimentRunner(harness=harness).run([spec])
        assert result.ok
        return result.kernel_wall_ns

    benchmark(run)


def test_engines_tracked_trajectory(benchmark):
    """The tracked artifact: full matrix plus the two gated speedups."""
    payload = benchmark.pedantic(run_all, rounds=1, iterations=1)
    text = json.dumps(payload, indent=2) + "\n"
    print()
    print(text)
    assert payload["interp_block_cache"]["speedup"] >= 2.0
    assert payload["dbt_code_cache"]["speedup"] >= 3.0
    assert payload["metrics_overhead"]["identical_counters"]


# ------------------------------------------------------------ standalone


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: quarter-size kernels, same floors",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_engines.json"),
        help="where to write the JSON artifact (default: repo root)",
    )
    args = parser.parse_args(argv)
    payload = run_all(scale=4 if args.quick else 1)
    text = json.dumps(payload, indent=2) + "\n"
    path = pathlib.Path(args.output)
    path.write_text(text)
    print(text)
    print("wrote %s" % path)
    failures = []
    if payload["interp_block_cache"]["speedup"] < 2.0:
        failures.append(
            "interpreter block-cache speedup %.2fx is below the 2x floor"
            % payload["interp_block_cache"]["speedup"]
        )
    if payload["dbt_code_cache"]["speedup"] < 3.0:
        failures.append(
            "DBT code-cache warm speedup %.2fx is below the 3x floor"
            % payload["dbt_code_cache"]["speedup"]
        )
    if payload["metrics_overhead"]["overhead_pct"] > 5.0:
        failures.append(
            "metrics-enabled overhead %.2f%% on the hot interpreter kernel "
            "exceeds the 5%% ceiling"
            % payload["metrics_overhead"]["overhead_pct"]
        )
    if failures:
        raise SystemExit("; ".join(failures))


if __name__ == "__main__":
    main()
