"""The ``repro serve`` daemon: a long-lived experiment service.

One process owns one persistent warm worker pool (an
:class:`~repro.core.runner.ExperimentRunner`) and one result dataset,
and serves experiment submissions from local clients over a Unix
socket (:mod:`repro.serve.protocol`).  Instead of every sweep paying
pool warm-up, registry imports and dataset probing per invocation,
clients submit manifests (or ad-hoc grids) to a process whose workers
stay warm -- built programs, translation memos, open code store --
across submissions, and whose dataset makes repeated submissions of
the same cells free.

Execution model:

- a **submission** (manifest payload, bundled-manifest reference, or
  ad-hoc grid table) expands to its exact :class:`JobSpec` cell set at
  submit time -- malformed grids are refused in the submit response,
  never mid-run;
- cells are cut into **slices** of :data:`SLICE_SIZE` cells, and every
  slice of a job enters one FIFO queue at submit time, so jobs run in
  submission order;
- the **scheduler thread** runs the queue one slice at a time
  through the shared dataset-backed runner, stamped with the slice's
  manifest: cells already in the dataset are priced warm (zero guest
  cost), the rest ride the existing dedup / chunked warm-pool
  dispatch path with all its fault semantics
  (crash/timeout rows, worker-death recovery, retries).  Per-job
  deadlines stay enforced: pool workers arm SIGALRM in their own
  chunk loop, and the scheduler thread's serial fallback degrades to
  the wall-clock check;
- every slice's telemetry rows (one per unique cell, with the
  ``submitted`` count of specs that shared it) accumulate on the job,
  so ``wait``/``status`` stream per-cell outcomes and warm/cold
  provenance back to the client;
- every unfinished job is remembered, finished ones only up to
  :data:`FINISHED_JOBS_KEPT` (newest first): the daemon's memory and
  ``status`` answer stay bounded however long it runs.

Graceful drain: on SIGTERM (or ``drain``), the service stops accepting
submissions, cancels queued slices (their jobs finish ``drained`` with
partial stats -- completed slices' dataset rows are already
persisted), lets the in-flight slice finish, closes the socket, and
exits 0.  The drain writes nothing to the dataset: each job's
``dataset_appended`` and per-cell ``source`` already say what it
stored and read.

Service observability rides the metrics registry:
``serve.queue_depth`` / ``serve.inflight_slices`` gauges,
``serve.submissions`` / ``serve.slices`` / ``serve.cells`` /
``serve.drained_slices`` counters, and a ``serve.slice`` phase timer.
"""

import collections
import os
import queue
import socket
import threading
import time

from repro.core.harness import FAILURE_STATUSES
from repro.core.runner import ExperimentRunner
from repro.exp.dataset import Dataset
from repro.exp.manifest import Manifest, ManifestError, resolve_manifest
from repro.obs.metrics import METRICS
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    MessageStream,
    ProtocolError,
    error_response,
)

#: Cells per slice.  A drain waits for at most one in-flight slice, and
#: progress is reported in slices (``slices_done/slices``); the runner
#: re-chunks each slice for the pool.
SLICE_SIZE = 8

#: Finished jobs the service remembers.  Every unfinished job is kept;
#: beyond this many finished ones the oldest to finish is forgotten
#: (its rows are in the dataset) and its id answers ``unknown job``.
FINISHED_JOBS_KEPT = 256

#: Job lifecycle states; ``drained``/``failed``/``done`` are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "drained")


class ServiceError(Exception):
    """Service-level failure surfaced to clients as ``ok: false``."""


class Job:
    """One submission's lifecycle record."""

    _STAT_KEYS = (
        "executed",
        "from_dataset",
        "static",
        "dataset_appended",
        "crashed",
        "timeout",
        "errors",
        "retried",
        "worker_lost",
    )

    def __init__(self, job_id, manifest, cells, slices):
        self.id = job_id
        self.name = manifest.name
        self.manifest = manifest
        self.manifest_id = manifest.manifest_id()
        self.cells = cells
        self.state = "queued"
        self.slices_total = slices
        self.slices_done = 0
        self.stats = dict.fromkeys(self._STAT_KEYS, 0)
        self.rows = []
        self.error = None
        self.submitted_ns = time.time_ns()
        self.finished_ns = None
        self.done = threading.Event()

    def fold_slice(self, stats, rows):
        for key in self._STAT_KEYS:
            self.stats[key] += int(stats.get(key, 0))
        self.rows.extend(rows)

    def finish(self, state, error=None):
        self.state = state
        self.error = error
        self.finished_ns = time.time_ns()
        self.done.set()

    def summary(self):
        info = {
            "id": self.id,
            "name": self.name,
            "manifest": self.manifest_id[:12] if self.manifest_id else None,
            "state": self.state,
            "cells": self.cells,
            "slices": self.slices_total,
            "slices_done": self.slices_done,
            "failures": sum(
                row["status"] in FAILURE_STATUSES for row in self.rows
            ),
            "submitted_ns": self.submitted_ns,
            "finished_ns": self.finished_ns,
            "error": self.error,
        }
        info.update(self.stats)
        return info


class ExperimentService:
    """The daemon: one warm runner, one dataset, one FIFO of slices.

    Parameters mirror the CLI runner knobs (``jobs``, ``deadline``,
    ``retries``, ``code_cache_dir``, ``dataset_dir``) plus the
    rendezvous ``socket_path``.

    The scheduler and listener run on daemon threads after
    :meth:`start`; :meth:`serve_forever` parks the calling (main)
    thread until a drain completes, so signal handlers installed there
    can call :meth:`drain`.  Tests may instead drive the scheduler
    synchronously with :meth:`run_next_slice`.
    """

    def __init__(
        self,
        socket_path,
        dataset_dir=None,
        code_cache_dir=None,
        jobs=1,
        deadline=None,
        retries=1,
    ):
        self.socket_path = os.fspath(socket_path)
        self.dataset = Dataset(dataset_dir) if dataset_dir else None
        self.runner = ExperimentRunner(
            jobs=jobs,
            dataset=self.dataset,
            deadline=deadline,
            retries=retries,
            code_cache_dir=code_cache_dir,
        )
        #: ``(job_id, slice_specs)`` in submission order.  Puts happen
        #: only under ``_jobs_lock`` with ``_draining`` clear, and
        #: :meth:`drain` empties it under the same lock, so nothing is
        #: enqueued after a drain.
        self.queue = queue.Queue()
        self._jobs = {}
        #: Ids of finished jobs still in ``_jobs``, oldest first.
        self._finished = collections.deque()
        self._jobs_lock = threading.Lock()
        self._job_counter = 0
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._listener = None
        self._scheduler = None
        self._server_sock = None

    # -- submission --------------------------------------------------------
    def _load_manifest(self, request):
        payload = request.get("manifest")
        if payload is not None:
            if not isinstance(payload, dict):
                raise ServiceError("'manifest' must be a manifest payload object")
            return Manifest(payload)
        ref = request.get("manifest_ref")
        if ref is not None:
            return resolve_manifest(ref)
        grid = request.get("grid")
        if grid is not None:
            if not isinstance(grid, dict):
                raise ServiceError("'grid' must be a grid table object")
            name = request.get("name") or "adhoc"
            return Manifest(
                {
                    "manifest": {"schema": 1, "name": str(name), "seed": 0},
                    "grid": [grid],
                }
            )
        raise ServiceError("submit needs 'manifest', 'manifest_ref' or 'grid'")

    def submit(self, request):
        """Expand and enqueue one submission; returns the submit
        response payload (``job`` id + expanded ``cells``)."""
        try:
            manifest = self._load_manifest(request)
        except ManifestError as exc:
            raise ServiceError("bad manifest: %s" % exc) from None
        specs = manifest.jobs()
        if not specs:
            raise ServiceError("submission expands to zero cells")
        slices = [
            specs[start : start + SLICE_SIZE]
            for start in range(0, len(specs), SLICE_SIZE)
        ]
        with self._jobs_lock:
            if self._draining.is_set():
                raise ServiceError("service is draining; submission refused")
            self._job_counter += 1
            job = Job("j%04d" % self._job_counter, manifest, len(specs), len(slices))
            self._jobs[job.id] = job
            for slice_specs in slices:
                self.queue.put((job.id, slice_specs))
        METRICS.inc("serve.submissions")
        METRICS.inc("serve.cells", len(specs))
        self._update_gauges()
        return {
            "job": job.id,
            "cells": len(specs),
            "slices": job.slices_total,
            "manifest": manifest.short_id,
        }

    # -- scheduling --------------------------------------------------------
    def run_next_slice(self, timeout=0.2):
        """Pop and execute one slice; ``False`` when nothing ran.

        The scheduler thread loops this; tests call it directly for
        deterministic, single-stepped scheduling.
        """
        try:
            job_id, slice_specs = self.queue.get(timeout=timeout)
        except queue.Empty:
            return False
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None or job.done.is_set():
            # The job already reached a terminal state (an earlier
            # slice failed, or a drain finished it) and may since have
            # been forgotten; its leftover slices are dropped, never
            # resurrected into "done".
            METRICS.inc("serve.drained_slices")
            self._update_gauges()
            return True
        if job.state == "queued":
            job.state = "running"
        METRICS.set_gauge("serve.inflight_slices", 1)
        try:
            with METRICS.phase("serve.slice"):
                self.runner.manifest = job.manifest
                self.runner.run(slice_specs)
            rows = [dict(row, job=job_id) for row in self.runner.last_jobs]
            job.fold_slice(self.runner.last_stats, rows)
        except Exception as exc:  # a slice failure fails its job only
            with self._jobs_lock:
                self._finish(job, "failed", error="%s: %s" % (type(exc).__name__, exc))
            return True
        finally:
            METRICS.set_gauge("serve.inflight_slices", 0)
            METRICS.inc("serve.slices")
            job.slices_done += 1
            self._update_gauges()
        if job.slices_done >= job.slices_total:
            with self._jobs_lock:
                self._finish(job, "done")
        return True

    def _finish(self, job, state, error=None):
        """Finish ``job``, then forget the oldest finished jobs beyond
        :data:`FINISHED_JOBS_KEPT`.  The caller holds ``_jobs_lock``."""
        job.finish(state, error)
        self._finished.append(job.id)
        while len(self._finished) > FINISHED_JOBS_KEPT:
            self._jobs.pop(self._finished.popleft(), None)

    def _scheduler_loop(self):
        while True:
            ran = self.run_next_slice(timeout=0.2)
            # A drain empties the queue and no put follows it, so an
            # empty get while draining means the queue is done for good.
            if not ran and self._draining.is_set():
                return

    def _update_gauges(self):
        METRICS.set_gauge("serve.queue_depth", self.queue.qsize())

    # -- request handling --------------------------------------------------
    def handle_request(self, request):
        """One request dict -> one response dict (never raises)."""
        try:
            op = request.get("op")
            if op == "ping":
                return {
                    "ok": True,
                    "protocol": PROTOCOL_VERSION,
                    "server": "repro-serve",
                    "pid": os.getpid(),
                    "draining": self._draining.is_set(),
                }
            if op == "submit":
                response = self.submit(request)
                response["ok"] = True
                return response
            if op == "status":
                return self._status_response(request)
            if op == "wait":
                return self._wait_response(request)
            if op == "drain":
                self.drain()
                return {"ok": True, "draining": True}
            return error_response("unknown op %r" % op)
        except ServiceError as exc:
            return error_response(exc)
        except Exception as exc:  # a bad request never kills the daemon
            return error_response("%s: %s" % (type(exc).__name__, exc))

    def _job_for(self, request):
        job_id = request.get("job")
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError("unknown job %r" % job_id)
        return job

    def _status_response(self, request):
        if request.get("job"):
            job = self._job_for(request)
            response = {"ok": True, "job": job.summary()}
            if request.get("rows"):
                response["rows"] = list(job.rows)
            return response
        with self._jobs_lock:
            jobs = [job.summary() for job in self._jobs.values()]
        states = {}
        for info in jobs:
            states[info["state"]] = states.get(info["state"], 0) + 1
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "queue_depth": self.queue.qsize(),
            "draining": self._draining.is_set(),
            "states": states,
            "jobs": jobs,
        }

    def _wait_response(self, request):
        job = self._job_for(request)
        timeout = request.get("timeout")
        if not job.done.wait(None if timeout is None else float(timeout)):
            raise ServiceError("timed out waiting for %s" % job.id)
        return {"ok": True, "job": job.summary(), "rows": list(job.rows)}

    # -- socket plumbing ---------------------------------------------------
    def _bind(self):
        path = self.socket_path
        if os.path.exists(path):
            # A previous daemon's socket: refuse if it answers, reclaim
            # if it is stale.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(0.5)
                probe.connect(path)
            except OSError:
                os.unlink(path)
            else:
                probe.close()
                raise ServiceError("a daemon is already serving on %s" % path)
            finally:
                probe.close()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(path)
        sock.listen(16)
        sock.settimeout(0.2)
        return sock

    def _listener_loop(self):
        while not self._stopped.is_set():
            try:
                conn, _addr = self._server_sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn):
        stream = MessageStream(conn)
        try:
            while True:
                try:
                    request = stream.recv()
                except ProtocolError as exc:
                    stream.send(error_response(exc))
                    return
                if request is None:
                    return
                stream.send(self.handle_request(request))
        except OSError:
            pass  # client went away mid-reply
        finally:
            stream.close()

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        """Bind the socket and start the listener/scheduler threads."""
        self._server_sock = self._bind()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="serve-scheduler", daemon=True
        )
        self._scheduler.start()
        self._listener = threading.Thread(
            target=self._listener_loop, name="serve-listener", daemon=True
        )
        self._listener.start()
        return self

    def drain(self):
        """Begin graceful shutdown (idempotent, signal-safe): refuse
        new work, cancel queued slices, let the in-flight slice finish."""
        if self._draining.is_set():
            # Also keeps a repeated signal off the lock _shutdown holds.
            return
        with self._jobs_lock:
            self._draining.set()
            while True:
                try:
                    job_id, _slice_specs = self.queue.get_nowait()
                except queue.Empty:
                    break
                METRICS.inc("serve.drained_slices")
                job = self._jobs.get(job_id)
                if job is not None and not job.done.is_set():
                    self._finish(job, "drained")

    def serve_forever(self):
        """Park until a drain completes; returns 0 (the drain exit
        contract: in-flight work finished, its rows stored)."""
        self._draining.wait()
        if self._scheduler is not None:
            self._scheduler.join()
        self._shutdown()
        return 0

    def _shutdown(self):
        self._stopped.set()
        if self._listener is not None:
            self._listener.join(timeout=2.0)
        if self._server_sock is not None:
            try:
                self._server_sock.close()
            except OSError:
                pass
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        # Any job still marked running lost its remaining slices to the
        # drain; close it out so waiters unblock.
        with self._jobs_lock:
            for job in list(self._jobs.values()):
                if not job.done.is_set():
                    self._finish(job, "drained")
        self.runner.close()

    def stop(self):
        """Drain and fully shut down (test/embedding convenience)."""
        self.drain()
        if self._scheduler is not None and self._scheduler.is_alive():
            self._scheduler.join(timeout=30.0)
        self._shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()
