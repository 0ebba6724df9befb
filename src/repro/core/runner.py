"""The experiment runner: deduplicated, stored, parallel job grids.

Every evaluation driver (suite runs, the figure generators, the QEMU
version sweep) reduces to the same shape: a grid of *job specs* --
(benchmark, engine spec, arch, platform, iterations) tuples -- whose
results are assembled into tables.  The runner executes such a grid
efficiently while keeping results bit-for-bit equal to naive serial
execution:

- jobs with one cell fingerprint (:meth:`JobSpec.fingerprint`, the
  dataset's row key) share one execution: engine specs differing only
  in pricing fields, or plainly repeated jobs, execute once and are
  priced per spec -- the generalisation of the version sweep's
  structural grouping to every engine;
- with a result dataset (:class:`~repro.exp.dataset.Dataset`), each
  unique cell is probed once, in the same pass as the dedup:
  a stored record is priced without executing a single guest
  instruction, and newly executed ``ok``/``unsupported`` records are
  appended with a provenance stamp.  The dataset is only consulted
  under the deterministic MODELED timing policy, and failure records
  (error/crashed/timeout) are never stored.  A runner without a
  dataset keeps the ``ok``/``unsupported`` records it executed under
  MODELED timing in memory instead, so a command that makes several
  runs (``repro report``) executes each cell once;
- unique executions are optionally fanned out over a *persistent warm*
  process pool (``jobs=N``): the deduplicated job list is sharded by
  :meth:`~repro.sim.spec.EngineSpec.cache_key_token`, the engine's
  structural fields (DBT-memoization / code-store locality), and
  submitted in *chunks* -- a few per worker -- with one aggregated
  return payload per chunk,
  so per-dispatch pickling/IPC/snapshot cost is amortised over many
  jobs; the pool survives across :meth:`ExperimentRunner.run` calls,
  so repeat grids find warm workers (built programs, translation
  memos, open code store).  Results are merged in submission order, so
  parallelism never changes the output;
- execution is *fault-isolated*: a crashing engine/benchmark cell
  becomes one ``crashed`` row (the harness catches the exception), a
  dying worker process breaks only its own jobs (the runner falls back
  to in-parent serial execution for them), a configurable per-job wall
  deadline turns runaway cells into ``timeout`` rows, and transient
  failures (worker death, timeout) are retried with backoff -- so one
  bad cell never destroys a completed grid.

Engine configuration is described exclusively by
:class:`~repro.sim.spec.EngineSpec`; :class:`JobSpec` is therefore
canonically JSON-serializable (:meth:`JobSpec.to_payload`), which is
what makes pool transport -- and future sharded/remote execution --
possible without pickling live engine state.

Observability: the runner keeps one telemetry row per unique cell
(see :class:`ExperimentRunner`), timed per execution (``wall_ns``, and
for pool jobs ``queue_wait_ns``); workers snapshot their process-local
metrics registry per *chunk* and ship it back with the chunk's
records, and the parent merges those snapshots in chunk submission
order -- so the merged registry is deterministic up to the timings
themselves.  The parent additionally times chunk dispatch
(``runner.dispatch``), records a chunk-size histogram
(``runner.chunk_size``) and counts shipped payload bytes
(``runner.payload_bytes``), so pool overhead is visible per run.
Store traffic (dataset, DBT code store) is counted in the same
registry (``dataset.*`` and ``codestore.*`` counters), so a pool
worker's code-store hits and misses reach the parent in its chunk's
snapshot; nothing about it is persisted.
"""

import json
import os
import pickle
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool

from repro.core.harness import (
    STORABLE_STATUSES,
    ExecutionRecord,
    Harness,
    SuiteResult,
    TimingPolicy,
)
from repro.core.resultcache import cell_fingerprint, remember
from repro.core.suite import SUITE, get_benchmark
from repro.errors import DeadlineExceeded, EngineCrashError
from repro.obs.metrics import METRICS
from repro.sim.dbt import codestore
from repro.sim.spec import EngineSpec, as_engine_spec


def resolve_benchmark(name):
    """Resolve a benchmark/workload by name across every registry.

    Searches the SimBench suite, the extension suite, the attribution
    kernels and the SPEC proxy workloads -- the inverse of
    ``benchmark.name`` for everything a :class:`JobSpec` payload may
    reference.
    """
    try:
        return get_benchmark(name)
    except KeyError:
        pass
    from repro.core.benchmarks.attribution import ATTRIBUTION_SUITE
    from repro.core.benchmarks.extensions import EXTENSION_SUITE
    from repro.workloads import SPEC_PROXIES

    for benchmark in (
        tuple(EXTENSION_SUITE) + tuple(ATTRIBUTION_SUITE) + tuple(SPEC_PROXIES)
    ):
        if benchmark.name == name:
            return benchmark
    raise KeyError("unknown benchmark or workload %r" % name)


class JobSpec:
    """One cell of an experiment grid.

    ``benchmark`` may be a Benchmark/Workload instance or a suite
    benchmark name; ``simulator`` an :class:`EngineSpec` or a registry
    name (its default spec); ``iterations=None`` means the benchmark's
    default.
    """

    __slots__ = (
        "benchmark",
        "engine_spec",
        "arch",
        "platform",
        "iterations",
    )

    def __init__(self, benchmark, simulator, arch, platform, iterations=None):
        if isinstance(benchmark, str):
            benchmark = resolve_benchmark(benchmark)
        self.benchmark = benchmark
        self.engine_spec = as_engine_spec(simulator)
        self.arch = arch
        self.platform = platform
        self.iterations = (
            int(iterations) if iterations is not None else benchmark.default_iterations
        )

    @property
    def simulator(self):
        """The engine's registry name."""
        return self.engine_spec.engine

    def fingerprint(self):
        """The cell id of this job, memoized process-wide
        (:func:`~repro.core.resultcache.cell_fingerprint`): jobs sharing
        it share one execution, one telemetry row and one dataset row."""
        return cell_fingerprint(
            self.benchmark, self.engine_spec, self.arch, self.platform, self.iterations
        )

    def executes(self):
        """Whether this job runs guest code at all (as opposed to being
        decided statically as not-applicable/unsupported)."""
        return self.benchmark.effective(self.arch) and self.benchmark.supported_by(
            self.engine_spec.engine
        )

    def to_payload(self):
        """A JSON-serializable description of this job (lossless up to
        benchmark identity, which is carried by registry name)."""
        return {
            "benchmark": self.benchmark.name,
            "engine": self.engine_spec.to_payload(),
            "arch": self.arch.name,
            "platform": self.platform.name,
            "iterations": self.iterations,
        }

    @classmethod
    def from_payload(cls, payload):
        from repro.arch import get_arch
        from repro.platform import get_platform

        return cls(
            resolve_benchmark(payload["benchmark"]),
            EngineSpec.from_payload(payload["engine"]),
            get_arch(payload["arch"]),
            get_platform(payload["platform"]),
            iterations=payload["iterations"],
        )

    def __repr__(self):
        return "JobSpec(%s on %s/%s/%s, %d iters)" % (
            self.benchmark.name,
            self.engine_spec.engine,
            self.arch.name,
            self.platform.name,
            self.iterations,
        )


class _DeadlineExpired(BaseException):
    """Internal watchdog signal.

    Deliberately *not* an :class:`Exception` subclass: the harness's
    crash containment catches ``Exception`` around the whole engine
    run, and a deadline expiry must cut straight through it to become a
    ``timeout`` record rather than a ``crashed`` one.
    """


def _call_with_deadline(func, deadline):
    """Run ``func()`` under a wall-clock watchdog of ``deadline`` seconds.

    Full enforcement uses ``SIGALRM``/``setitimer``, which needs the
    calling thread to be its process's main thread -- true for the CLI
    and, unconditionally, for pool workers: each worker re-arms the
    alarm per job inside its chunk loop, on its own main thread, so
    jobs dispatched *by* any thread (the experiment service's
    scheduler included) are still hard-bounded inside the pool.

    Where the alarm cannot be armed -- no ``setitimer``, or off the
    main thread, as in the service's in-parent serial fallback -- the
    watchdog degrades to a *wall-clock check*: the job runs, but an
    overrun still raises :class:`_DeadlineExpired` (becoming a
    ``timeout`` record) instead of silently passing, and the degraded
    mode is counted as ``runner.deadline_softcheck``.  A soft check
    cannot interrupt a wedged job; the pool path's hard harvest cap
    covers that case.

    Raises :class:`_DeadlineExpired` on expiry.  Any pre-existing
    ``ITIMER_REAL`` is restored on exit with its remaining time (not
    merely the handler), so a nested use -- e.g. a caller running the
    runner under its own alarm -- keeps its own deadline ticking.
    """
    if not deadline or deadline <= 0:
        return func()
    if (
        not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        METRICS.inc("runner.deadline_softcheck")
        started = time.monotonic()
        result = func()
        if time.monotonic() - started > deadline:
            raise _DeadlineExpired()
        return result

    def _on_alarm(signum, frame):
        raise _DeadlineExpired()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    prev_delay, prev_interval = signal.setitimer(signal.ITIMER_REAL, deadline)
    started = time.monotonic()
    try:
        return func()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if prev_delay > 0.0:
            # Re-arm the interrupted timer with whatever it had left
            # (floored at one tick so an overdue alarm still fires).
            remaining = prev_delay - (time.monotonic() - started)
            signal.setitimer(
                signal.ITIMER_REAL, max(remaining, 1e-6), prev_interval
            )


def _guarded_execute(harness, spec, deadline):
    """Execute one job with full fault containment.

    Always returns an :class:`ExecutionRecord`: deadline expiry becomes
    ``status="timeout"``, and any exception that somehow escapes the
    harness's own crash containment becomes ``status="crashed"`` -- a
    job can fail, but it cannot take its caller down with it.
    """
    try:
        return _call_with_deadline(
            lambda: harness.execute_benchmark(
                spec.benchmark,
                spec.engine_spec,
                spec.arch,
                spec.platform,
                iterations=spec.iterations,
            ),
            deadline,
        )
    except _DeadlineExpired:
        return ExecutionRecord(status="timeout", error=DeadlineExceeded(deadline))
    except Exception as exc:
        return ExecutionRecord(
            status="crashed", error=EngineCrashError.from_exception(exc)
        )


def _timed_execute(harness, spec, deadline):
    """:func:`_guarded_execute` plus host wall time in nanoseconds."""
    start = time.perf_counter_ns()
    record = _guarded_execute(harness, spec, deadline)
    wall_ns = time.perf_counter_ns() - start
    if METRICS.enabled:
        METRICS.add_phase_ns("runner.job_wall", wall_ns)
    return record, wall_ns


def _note_attempt(row, wall_ns, where):
    """Count one execution attempt of a cell in its telemetry row."""
    row["wall_ns"] += wall_ns
    row["attempts"] += 1
    row["where"] = where


def _terminate_pool_processes(pool):
    """Hard-kill a ProcessPoolExecutor's workers (wedged-pool escape
    hatch); relies on the private process table, so failures to reach
    it degrade to waiting on shutdown."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass


#: Per-worker harness, created once per pool process so built guest
#: programs, translation memos and decoded blocks are reused across
#: every chunk that lands on that worker for its whole lifetime.
_WORKER_HARNESS = None
_WORKER_DEADLINE = None
#: Per-worker transport caches: benchmark objects resolved by registry
#: name and engine specs rebuilt from compact payloads, both keyed so
#: repeat chunks pay the lookup/validation once per worker lifetime.
_WORKER_BENCHMARKS = {}
_WORKER_SPECS = {}


def _warm_registries():
    """Preload every registry a chunk payload may reference.

    Called once per worker lifetime from :func:`_init_worker`, so the
    first chunk does not pay the engine/benchmark/workload registry
    imports inside its timed window."""
    from repro.arch import get_arch  # noqa: F401  (import-time registry)
    from repro.core.benchmarks.attribution import ATTRIBUTION_SUITE  # noqa: F401
    from repro.core.benchmarks.extensions import EXTENSION_SUITE  # noqa: F401
    from repro.platform import get_platform  # noqa: F401
    from repro.sim.spec import SPEC_CLASSES  # noqa: F401
    from repro.workloads import SPEC_PROXIES  # noqa: F401


def _init_worker(
    timing, max_insns, deadline=None, code_cache_dir=None, metrics_enabled=False
):
    """Warm up one pool worker for its whole lifetime.

    Builds the worker's harness once, preloads the engine/benchmark
    registries, and opens the persistent DBT code store once -- so
    chunks arriving later find a warm process and pay only kernel
    time."""
    global _WORKER_HARNESS, _WORKER_DEADLINE
    # Ctrl-C teardown is the parent's decision: a terminal SIGINT fans
    # out to the whole process group, and the default handler would
    # make every worker spew a KeyboardInterrupt traceback mid-chunk.
    # Exit immediately and quietly instead -- the parent is already
    # unwinding and discards the (now broken) pool.
    try:
        signal.signal(signal.SIGINT, lambda signum, frame: os._exit(130))
    except (OSError, ValueError):
        pass
    _WORKER_HARNESS = Harness(timing=timing, max_insns=max_insns)
    _WORKER_DEADLINE = deadline
    _WORKER_BENCHMARKS.clear()
    _WORKER_SPECS.clear()
    METRICS.enable(metrics_enabled)
    if code_cache_dir is not None:
        # Workers are fresh processes: install the persistent DBT code
        # store so warm translations are shared across the whole pool.
        codestore.configure(code_cache_dir)
    _warm_registries()


def _worker_benchmark(ref):
    """Resolve a chunk job's benchmark reference in this worker.

    ``ref`` is a registry name for anything registry-resolvable (the
    compact, common case) or the pickled benchmark object itself for
    ad-hoc benchmarks that exist only in the parent (fault-injection
    helpers, user-defined cells)."""
    if not isinstance(ref, str):
        return ref
    benchmark = _WORKER_BENCHMARKS.get(ref)
    if benchmark is None:
        benchmark = _WORKER_BENCHMARKS[ref] = resolve_benchmark(ref)
    return benchmark


def _worker_spec(payload):
    """Rebuild (and cache) an :class:`EngineSpec` from its compact
    delta payload; validation runs once per distinct spec per worker."""
    key = json.dumps(payload, sort_keys=True)
    spec = _WORKER_SPECS.get(key)
    if spec is None:
        spec = _WORKER_SPECS[key] = EngineSpec.from_payload(payload)
    return spec


def _execute_chunk(blob):
    """Pool worker: execute one pre-pickled chunk of jobs.

    ``blob`` decodes to ``{"engines": [delta_payload, ...], "jobs":
    [(benchmark_ref, engine_index, arch, platform, iterations), ...]}``
    -- engine specs are interned per chunk and shipped as
    defaults-stripped deltas, jobs as name tuples, so the wire payload
    stays a few hundred bytes however large the chunk is.

    Every job runs under the worker-side per-job deadline watchdog
    (each worker runs one chunk at a time on its main thread), so a
    timeout inside a chunk becomes one ``timeout`` record without
    killing the worker, and an engine crash becomes one ``crashed``
    record -- chunking never widens the blast radius of a failure.

    Returns ``(records, aux)``: one ``ExecutionRecord`` payload per job
    in chunk order, plus ONE aggregated aux for the whole chunk --
    per-job wall times, the chunk's total wall, a single snapshot of
    the worker's metrics registry (reset at chunk start, so snapshots
    are disjoint deltas; its ``codestore.*`` counters carry the
    worker's code-store traffic).  This is the batching payoff: one
    snapshot/transport per dispatch instead of per job.
    """
    from repro.arch import get_arch
    from repro.platform import get_platform

    payload = pickle.loads(blob)
    engines = [_worker_spec(spec) for spec in payload["engines"]]
    METRICS.reset()
    chunk_start = time.perf_counter_ns()
    records = []
    walls = []
    for bench_ref, engine_index, arch, platform, iterations in payload["jobs"]:
        spec = JobSpec(
            _worker_benchmark(bench_ref),
            engines[engine_index],
            get_arch(arch),
            get_platform(platform),
            iterations=iterations,
        )
        record, wall_ns = _timed_execute(_WORKER_HARNESS, spec, _WORKER_DEADLINE)
        records.append(record.to_payload())
        walls.append(wall_ns)
    chunk_wall_ns = time.perf_counter_ns() - chunk_start
    METRICS.add_phase_ns("runner.chunk", chunk_wall_ns)
    return records, {
        "walls": walls,
        "chunk_wall_ns": chunk_wall_ns,
        "metrics": METRICS.snapshot(),
    }


#: At most this many executed records are kept for reuse by a
#: dataset-less runner, so a long-lived one (``repro serve`` without
#: ``--dataset-dir``) stays bounded.
REUSE_LIMIT = 512

#: The :attr:`ExperimentRunner.last_stats` counters that add up across
#: runs (:attr:`ExperimentRunner.total_stats`).
SUMMED_STATS = (
    "jobs", "unique", "static", "from_dataset", "reused", "executed",
    "dataset_appended",
    "crashed", "timeout", "errors", "retried", "worker_lost",
)

#: Every :attr:`ExperimentRunner.last_stats` key: the summed counters
#: plus per-run pool accounting, which stays 0 on a serial run.
RUN_STATS = SUMMED_STATS + ("chunks", "chunk_splits", "payload_bytes", "chunk_size")

#: The telemetry row fields a later run of the same cell adds to, and
#: those it replaces (:attr:`ExperimentRunner.cells`, which also counts
#: each run's ``source`` under ``sources``).
_ROW_SUMS = ("submitted", "attempts", "wall_ns", "queue_wait_ns")
_ROW_LATEST = ("status", "source", "where", "error")


class ExperimentRunner:
    """Executes grids of :class:`JobSpec` with dedup, a result
    dataset, fan-out and fault isolation.

    Parameters
    ----------
    jobs:
        Fan unique executions over N worker processes (1 = serial).
        The pool is *persistent*: created lazily on the first parallel
        run and kept warm across :meth:`run` calls until :meth:`close`
        (or garbage collection), so repeat grids reuse built programs,
        translation memos and the open code store.  Every run ships
        work in chunks of ``ceil(remaining / (2 * workers))`` jobs,
        ``remaining`` counting the jobs not yet chunked, so the last
        chunks are small; a chunk never mixes engine cache key tokens
        (:meth:`~repro.sim.spec.EngineSpec.cache_key_token`) -- each
        chunk runs one engine structure, for DBT-memoization and
        code-store locality inside the worker.
    dataset:
        Optional :class:`~repro.exp.dataset.Dataset` to resolve cells
        from and append executed cells to (MODELED timing only).  A
        plain attribute: drivers may hand an existing runner a dataset.
        While it is ``None``, MODELED runs reuse the ``ok``/
        ``unsupported`` records this runner executed in earlier runs
        (source ``reused``).
    deadline:
        Per-job wall deadline in seconds (a watchdog on top of the
        harness's ``max_insns`` budget); expiry yields a ``timeout``
        record.  ``None`` disables the watchdog.
    retries:
        How many times to re-execute a job whose failure is *transient*
        (worker death, deadline timeout).  Deterministic crashes under
        MODELED timing are never retried -- the same inputs crash the
        same way.  Under WALLCLOCK timing crashes are treated as
        potentially transient and retried too.
    retry_backoff:
        Base sleep in seconds before a retry round (doubles per round).
    code_cache_dir:
        Directory for the persistent DBT code store
        (:mod:`repro.sim.dbt.codestore`).  Installed process-wide here
        and in every pool worker, so warm sweeps skip translation; a
        host-side cache only -- counters and results are unchanged.

    :attr:`manifest` (a :class:`~repro.exp.manifest.Manifest` or
    ``None``) is stamped onto appended dataset rows and per-job
    telemetry rows; :func:`~repro.exp.manifest.run_manifest` sets it.

    Observability: after every :meth:`run`, :attr:`last_jobs` holds one
    row per unique cell in first-submission order: identity,
    ``cell_id``, ``manifest``, final ``status`` and ``error``,
    ``source`` (``executed``/``dataset``/``reused``/``static``),
    ``submitted`` (the specs that shared the cell), ``attempts``,
    ``where`` and the wall/queue-wait timings.  :attr:`cells` keeps one row per
    ``cell_id`` across runs: a repeat adds its counts and timings,
    replaces status, source, where and error, and counts its source in
    the row's ``sources`` dict (``{"executed": 1, "dataset": 1}`` for a
    cell executed once and read back once).
    """

    def __init__(
        self,
        harness=None,
        jobs=1,
        dataset=None,
        deadline=None,
        retries=1,
        retry_backoff=0.05,
        code_cache_dir=None,
    ):
        self.harness = harness if harness is not None else Harness(timing=TimingPolicy.MODELED)
        self.jobs = max(1, int(jobs))
        self.dataset = dataset
        self.manifest = None
        self.deadline = float(deadline) if deadline else None
        self.retries = max(0, int(retries))
        self.retry_backoff = max(0.0, float(retry_backoff))
        self.code_cache_dir = os.fspath(code_cache_dir) if code_cache_dir else None
        if self.code_cache_dir is not None:
            codestore.configure(self.code_cache_dir)
        # The persistent warm pool (created lazily on the first parallel
        # run, reused until the harness/deadline configuration changes
        # or the pool breaks) and its configuration key.
        self._pool = None
        self._pool_key = None
        #: Counters for the last (or running) :meth:`run` call.
        self.last_stats = dict.fromkeys(RUN_STATS, 0)
        #: Raw :class:`ExecutionRecord` per cell id for the last
        #: :meth:`run` call -- the unpriced half of the results.
        self.last_records = {}
        #: One telemetry row per unique cell of the last :meth:`run`.
        self.last_jobs = []
        #: One telemetry row per ``cell_id`` across every :meth:`run`.
        self.cells = {}
        # ``cell_id -> ExecutionRecord`` of the ``ok``/``unsupported``
        # cells this runner executed under MODELED timing without a
        # dataset, at most :data:`REUSE_LIMIT` (oldest evicted); later
        # runs reuse them (each reuse gets a copy).
        self._executed = {}
        #: The :data:`SUMMED_STATS` counters of :attr:`last_stats`,
        #: summed across every :meth:`run` call.
        self.total_stats = dict.fromkeys(SUMMED_STATS, 0)

    # -- pool lifecycle ------------------------------------------------
    def _ensure_pool(self):
        """The persistent warm pool, (re)created on demand.

        The pool is keyed on everything the workers are initialised
        with; a configuration change (or a previous breakage) discards
        the old pool and builds a fresh one.  Returns ``None`` when no
        pool can be created -- callers then leave every chunk
        undelivered for the in-parent serial path."""
        key = (
            self.harness.timing,
            self.harness.max_insns,
            self.deadline,
            self.code_cache_dir,
            METRICS.enabled,
            self.jobs,
        )
        if self._pool is not None and (
            self._pool_key != key or getattr(self._pool, "_broken", False)
        ):
            self._discard_pool()
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_init_worker,
                    initargs=(
                        self.harness.timing,
                        self.harness.max_insns,
                        self.deadline,
                        self.code_cache_dir,
                        METRICS.enabled,
                    ),
                )
                self._pool_key = key
            except (OSError, ValueError):
                self._pool = None
        return self._pool

    def _discard_pool(self):
        pool, self._pool = self._pool, None
        self._pool_key = None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def close(self):
        """Shut down the persistent worker pool (idempotent).  The
        runner stays usable -- the next parallel run warms a new
        pool."""
        self._discard_pool()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):
        try:
            self._discard_pool()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def run(self, specs):
        """Run a grid and return one BenchmarkResult per spec, in order.

        Execution is fault-isolated: the returned list always has one
        result per submitted spec, in submission order, whatever
        individual cells did -- failures surface as ``crashed``/
        ``timeout``/``error`` statuses (and in ``last_stats``), never
        as a lost grid.  A dataset only changes *where* records come
        from, never what they price to.

        ``KeyboardInterrupt`` is the one failure that *does* abort the
        grid -- but cleanly: the pool is discarded with its queued
        chunks cancelled (workers exit quietly, no
        ``concurrent.futures`` traceback spew), and the interrupt
        propagates for the caller to exit 130.
        """
        try:
            return self._run_grid(specs)
        except KeyboardInterrupt:
            self._discard_pool()
            raise

    def _run_grid(self, specs):
        specs = [spec if isinstance(spec, JobSpec) else JobSpec(*spec) for spec in specs]
        cell_ids = [spec.fingerprint() for spec in specs]
        # Fresh every run, so no counter carries over from a previous grid.
        self.last_stats = stats = dict.fromkeys(RUN_STATS, 0)
        manifest = self.manifest
        manifest_id = manifest.manifest_id() if manifest is not None else None
        # A stored record prices to exactly what a fresh run would only
        # under MODELED timing.  Without a dataset, the records this
        # runner executed in earlier runs stand in for one.
        modeled = self.harness.timing is TimingPolicy.MODELED
        dataset = self.dataset if modeled else None
        reuse = self._executed if modeled and dataset is None else None

        # Resolve each unique cell once, in submission order, into one
        # telemetry row; repeats only count as ``submitted``.  Jobs
        # decided statically (not-applicable / unsupported engine) run
        # no guest code, so they are neither stored nor counted as
        # executions; the rest get one dataset probe, and what the
        # dataset lacks executes.
        records = {}
        rows = {}
        pending = []
        for cell_id, spec in zip(cell_ids, specs):
            row = rows.get(cell_id)
            if row is not None:
                row["submitted"] += 1
                continue
            rows[cell_id] = row = {
                "benchmark": spec.benchmark.name,
                "engine": spec.engine_spec.engine,
                "arch": spec.arch.name,
                "platform": spec.platform.name,
                "iterations": spec.iterations,
                "status": None,
                "error": None,
                "source": "executed",
                "cell_id": cell_id,
                "manifest": manifest_id,
                "submitted": 1,
                "wall_ns": 0,
                "queue_wait_ns": 0,
                "attempts": 0,
                "where": None,
            }
            if not spec.executes():
                records[cell_id] = self.harness.execute_benchmark(
                    spec.benchmark,
                    spec.engine_spec,
                    spec.arch,
                    spec.platform,
                    iterations=spec.iterations,
                )
                row["source"] = "static"
                continue
            record = source = None
            if dataset is not None:
                record, source = dataset.record(cell_id), "dataset"
            elif reuse is not None and cell_id in reuse:
                record, source = reuse[cell_id].copy(), "reused"
            if record is not None:
                records[cell_id] = record
                row["source"] = source
            else:
                pending.append((cell_id, spec))

        # Execute the remainder -- serially, or over a fork pool.
        executed = self._execute_pending(
            [spec for _, spec in pending], [rows[cell_id] for cell_id, _ in pending]
        )
        for (cell_id, _spec), record in zip(pending, executed):
            records[cell_id] = record
        if dataset is not None:
            stats["dataset_appended"] = dataset.store_records(
                [(spec, records[cell_id]) for cell_id, spec in pending],
                manifest=manifest,
            )
        elif reuse is not None:
            for cell_id, _spec in pending:
                if records[cell_id].status in STORABLE_STATUSES:
                    remember(reuse, cell_id, records[cell_id].copy(), REUSE_LIMIT)

        for cell_id, row in rows.items():
            record = records[cell_id]
            row["status"] = record.status
            row["error"] = str(record.error) if record.error else None
        sources = [row["source"] for row in rows.values()]
        statuses = [records[cell_id].status for cell_id, _ in pending]
        stats.update(
            jobs=len(specs),
            unique=len(rows),
            static=sources.count("static"),
            from_dataset=sources.count("dataset"),
            reused=sources.count("reused"),
            executed=len(pending),
            crashed=statuses.count("crashed"),
            timeout=statuses.count("timeout"),
            errors=statuses.count("error"),
        )
        self.last_records = records
        for name in SUMMED_STATS:
            self.total_stats[name] += stats[name]
        self.last_jobs = list(rows.values())
        for cell_id, row in rows.items():
            cell = self.cells.get(cell_id)
            if cell is None:
                cell = self.cells[cell_id] = dict(row, sources={})
            else:
                for name in _ROW_SUMS:
                    cell[name] += row[name]
                for name in _ROW_LATEST:
                    cell[name] = row[name]
            sources = cell["sources"]
            sources[row["source"]] = sources.get(row["source"], 0) + 1

        # Price every original spec against its shared record.
        with METRICS.phase("harness.price_grid"):
            return [
                self.harness.price_record(
                    records[cell_id],
                    spec.benchmark,
                    spec.engine_spec,
                    spec.arch,
                    spec.platform,
                    iterations=spec.iterations,
                )
                for cell_id, spec in zip(cell_ids, specs)
            ]

    # -- chunk planning ------------------------------------------------
    @staticmethod
    def _chunk_size(remaining, workers):
        """Jobs in the next chunk while ``remaining`` jobs are still
        unplanned: ``ceil(remaining / (2 * workers))``.  Chunks shrink
        towards the end of the grid, so a slow chunk submitted last
        leaves the other workers little to wait for."""
        return max(1, -(-remaining // (workers * 2)))

    def _plan_chunks(self, specs):
        """Shard pending specs into chunks of indices.

        Jobs are first grouped by engine
        :meth:`~repro.sim.spec.EngineSpec.cache_key_token` (first-seen
        order), then each group is cut into chunks -- a chunk never
        mixes tokens, so whichever worker picks it up runs one engine
        structure with maximal DBT-memoization and code-store
        locality.  Each chunk is sized by :meth:`_chunk_size` from the
        jobs not yet planned; ``last_stats["chunk_size"]`` reports the
        largest.  Chunk order preserves submission order within and
        across groups, and the parent harvests in submission order, so
        the merge stays deterministic."""
        workers = min(self.jobs, len(specs))
        groups = {}
        for index, spec in enumerate(specs):
            groups.setdefault(spec.engine_spec.cache_key_token(), []).append(index)
        chunks = []
        remaining = len(specs)
        for members in groups.values():
            start = 0
            while start < len(members):
                size = self._chunk_size(remaining, workers)
                chunks.append(members[start : start + size])
                start += size
                remaining -= len(chunks[-1])
        self.last_stats["chunk_size"] = max(map(len, chunks))
        return chunks

    def _chunk_blob(self, chunk_specs):
        """Pre-pickle one chunk's wire payload (parent side).

        Engine specs are interned (one defaults-stripped delta payload
        per distinct spec, jobs reference them by index) and benchmarks
        ship as registry names when resolvable -- ad-hoc benchmark
        objects that only exist in the parent are shipped by value, so
        fault-injection and user-defined cells keep working.  The blob
        size feeds the ``runner.payload_bytes`` counter."""
        engines = []
        engine_index = {}
        jobs = []
        for spec in chunk_specs:
            index = engine_index.get(spec.engine_spec)
            if index is None:
                index = engine_index[spec.engine_spec] = len(engines)
                engines.append(spec.engine_spec.delta_payload())
            name = spec.benchmark.name
            try:
                by_name = resolve_benchmark(name) is spec.benchmark
            except KeyError:
                by_name = False
            jobs.append(
                (
                    name if by_name else spec.benchmark,
                    index,
                    spec.arch.name,
                    spec.platform.name,
                    spec.iterations,
                )
            )
        blob = pickle.dumps(
            {"engines": engines, "jobs": jobs}, pickle.HIGHEST_PROTOCOL
        )
        METRICS.inc("runner.payload_bytes", len(blob))
        self.last_stats["payload_bytes"] += len(blob)
        return blob

    def _accept_chunk(self, chunk, payload, parent_elapsed_ns, results, rows):
        """Fold one delivered chunk payload into results and rows.

        Returns ``False`` (leaving the chunk untouched for the
        split/serial path) if the payload is not the expected
        ``(records, aux)`` pair with one record per job."""
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return False
        record_payloads, aux = payload
        if (
            not isinstance(record_payloads, (list, tuple))
            or len(record_payloads) != len(chunk)
        ):
            return False
        try:
            records = [
                ExecutionRecord.from_payload(item) for item in record_payloads
            ]
        except Exception:
            return False
        aux = aux or {}
        walls = list(aux.get("walls") or [0] * len(chunk))
        chunk_wall_ns = int(
            aux.get("chunk_wall_ns") or sum(int(wall) for wall in walls)
        )
        # Parent-observed latency minus worker compute: an upper bound
        # on pool scheduling/transport delay (clamped -- the two stamps
        # come from different clocks' origins, only spans are compared),
        # attributed evenly across the chunk's jobs.
        queue_share = 0
        if parent_elapsed_ns is not None:
            queue_wait = max(0, int(parent_elapsed_ns) - chunk_wall_ns)
            if METRICS.enabled:
                METRICS.add_phase_ns("runner.queue_wait", queue_wait)
            queue_share = queue_wait // len(chunk)
        for position, index in enumerate(chunk):
            results[index] = records[position]
            wall_ns = int(walls[position]) if position < len(walls) else 0
            _note_attempt(rows[index], wall_ns, "pool")
            rows[index]["queue_wait_ns"] += queue_share
        METRICS.merge(aux.get("metrics"))
        return True

    def _execute_pending(self, specs, rows):
        """Execute ``specs``, returning one record per spec in
        submission order and noting each attempt in the spec's
        telemetry row -- never raising for a job's failure.

        Pipeline: (1) optional chunked pool fan-out over the persistent
        warm pool, collecting whatever the workers deliver; (2) one
        *split round* -- any lost multi-job chunk (worker death, wedge,
        transport error) is resubmitted as singleton chunks on a fresh
        pool, so a failure inside a chunk quarantines only the
        offending job; (3) in-parent serial execution for jobs the pool
        still failed to deliver; (4) retry rounds with backoff for
        transient failures.
        """
        if not specs:
            return []
        results = [None] * len(specs)
        if self.jobs > 1 and len(specs) > 1:
            chunks = self._plan_chunks(specs)
            undelivered = self._pool_round(specs, chunks, results, rows)
            if any(len(chunk) > 1 for chunk in undelivered):
                # Sub-chunk split: losing a chunk must not mean losing
                # a batch.  Retry every still-missing job from the lost
                # chunks as singleton chunks -- only the job that
                # actually killed its worker falls through to the
                # parent.
                self.last_stats["chunk_splits"] += 1
                METRICS.inc("runner.chunk_splits")
                singles = [
                    [index]
                    for chunk in undelivered
                    for index in chunk
                    if results[index] is None
                ]
                self._pool_round(specs, singles, results, rows)
        # In-parent serial execution: the base path when jobs=1, the
        # fallback for anything the pool failed to deliver.
        lost = [index for index, record in enumerate(results) if record is None]
        if self.jobs > 1 and len(specs) > 1 and lost:
            self.last_stats["worker_lost"] += len(lost)
            METRICS.inc("runner.worker_lost", len(lost))
        for index in lost:
            record, wall_ns = _timed_execute(
                self.harness, specs[index], self.deadline
            )
            results[index] = record
            _note_attempt(rows[index], wall_ns, "parent")
        self._retry_transient(specs, results, rows)
        return results

    def _pool_round(self, specs, chunks, results, rows):
        """One pool pass submitting ``chunks`` (lists of indices into
        ``specs``), filling ``results``/``rows`` in place.

        Chunks deliver atomically: a chunk whose future fails (worker
        death, ``BrokenProcessPool``, transport error, wedged worker
        past the hard cap) is returned in the *undelivered* list for
        the caller's split/serial path; chunks completed before a pool
        breakage are kept (partial harvest).  Delivered chunk aux
        payloads (metrics snapshots, code-store deltas) are merged in
        submission order, so the merged registry is
        order-deterministic.
        """
        pool = self._ensure_pool()
        if pool is None:
            return list(chunks)
        undelivered = []
        futures = []
        done_stamp = {}

        def _stamper(chunk_id):
            def _on_done(_future):
                done_stamp[chunk_id] = time.perf_counter_ns()

            return _on_done

        submit_ns = time.perf_counter_ns()
        submit_failed = False
        for chunk_id, chunk in enumerate(chunks):
            if submit_failed:
                undelivered.append(chunk)
                continue
            dispatch_start = time.perf_counter_ns()
            try:
                blob = self._chunk_blob([specs[index] for index in chunk])
                future = pool.submit(_execute_chunk, blob)
            except (BrokenProcessPool, OSError, RuntimeError):
                submit_failed = True
                undelivered.append(chunk)
                continue
            METRICS.add_phase_ns(
                "runner.dispatch", time.perf_counter_ns() - dispatch_start
            )
            METRICS.observe("runner.chunk_size", len(chunk))
            self.last_stats["chunks"] += 1
            future.add_done_callback(_stamper(chunk_id))
            futures.append((chunk_id, chunk, future))

        # Safety net over the worker-side watchdog: if a worker wedges
        # in uninterruptible code, stop waiting for it (the cap scales
        # with chunk length -- a chunk legitimately runs one deadline
        # per job).
        hard_cap = None
        if self.deadline:
            hard_cap = max(self.deadline * 4.0, self.deadline + 30.0)
        wedged = False
        for position, (chunk_id, chunk, future) in enumerate(futures):
            try:
                payload = future.result(
                    timeout=hard_cap * len(chunk) if hard_cap else None
                )
            except FutureTimeoutError:
                # A worker wedged past the hard cap.  Kill the pool (or
                # shutdown would join the wedged worker forever),
                # harvest the chunks that did finish, and leave the
                # rest for the split/serial path.
                wedged = True
                _terminate_pool_processes(pool)
                for late_id, late_chunk, late_future in futures[position:]:
                    harvested = None
                    if late_future is not future and late_future.done():
                        try:
                            harvested = late_future.result(timeout=0)
                        except Exception:
                            harvested = None
                    stamp = done_stamp.get(late_id)
                    if harvested is None or not self._accept_chunk(
                        late_chunk,
                        harvested,
                        stamp - submit_ns if stamp else None,
                        results,
                        rows,
                    ):
                        undelivered.append(late_chunk)
                break
            except Exception:
                # BrokenProcessPool, cancelled futures, or a payload
                # that failed to unpickle: the chunk is undelivered.
                undelivered.append(chunk)
                continue
            stamp = done_stamp.get(chunk_id)
            if not self._accept_chunk(
                chunk,
                payload,
                stamp - submit_ns if stamp else None,
                results,
                rows,
            ):
                undelivered.append(chunk)
        if wedged or getattr(self._pool, "_broken", False):
            self._discard_pool()
        return undelivered

    def _retriable(self, record):
        """Whether a failed record's cause is plausibly transient."""
        if record.status == "timeout":
            # Wall time is never deterministic: a loaded host can
            # blow the deadline on a job that normally fits it.
            return True
        if record.status == "crashed":
            # Under MODELED timing execution is a pure function of the
            # job's inputs, so a crash is deterministic and a retry
            # can only waste time.
            return self.harness.timing is not TimingPolicy.MODELED
        return False

    def _retry_transient(self, specs, results, rows):
        """Re-execute transiently-failed jobs, up to ``retries`` rounds
        with exponential backoff, in-parent (deterministic merge: a
        retried success is bit-for-bit what a clean run produces)."""
        for attempt in range(1, self.retries + 1):
            retry = [i for i, record in enumerate(results) if self._retriable(record)]
            if not retry:
                return
            if self.retry_backoff:
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            self.last_stats["retried"] += len(retry)
            METRICS.inc("runner.retried", len(retry))
            for index in retry:
                record, wall_ns = _timed_execute(
                    self.harness, specs[index], self.deadline
                )
                results[index] = record
                _note_attempt(rows[index], wall_ns, "parent")

    # ------------------------------------------------------------------
    def run_suite(
        self,
        simulator,
        arch,
        platform,
        benchmarks=None,
        scale=1.0,
    ):
        """Run the (full or partial) suite on one simulator as one grid
        and return a :class:`~repro.core.harness.SuiteResult`.

        ``scale`` multiplies every benchmark's default iteration count,
        letting callers trade run time for measurement stability.
        """
        engine_spec = as_engine_spec(simulator)
        if benchmarks is None:
            benchmarks = SUITE
        specs = [
            JobSpec(
                benchmark,
                engine_spec,
                arch,
                platform,
                iterations=max(1, int(benchmark.default_iterations * scale)),
            )
            for benchmark in benchmarks
        ]
        return SuiteResult(
            engine_spec.engine, arch.name, platform.name, self.run(specs)
        )
