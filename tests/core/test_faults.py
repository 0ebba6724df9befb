"""Fault-isolation tests: crash containment, deadlines, retries,
serial fallback after worker death, and lossless error records.

The contracts under test:

- a crashing engine/benchmark cell becomes exactly one ``crashed`` row
  (serial and ``jobs=2``) and never aborts the rest of the grid;
- worker death triggers in-parent serial fallback with results still
  delivered in submission order, bit-for-bit equal to a clean serial
  run;
- the per-job wall deadline produces ``timeout`` records, and transient
  failures (timeouts) are retried with counters in ``last_stats``;
- deterministic crashes under MODELED timing are *not* retried;
- error records round-trip losslessly through JSON payloads for every
  status (the pool/dataset transport format).
"""

import json
import os
import time

import pytest

from repro.arch import ARM
from repro.core import (
    ExecutionRecord,
    ExperimentRunner,
    Harness,
    JobSpec,
    TimingPolicy,
    get_benchmark,
)
from repro.core.benchmark import Benchmark
from repro.core.harness import FAILURE_STATUSES
from repro.errors import (
    DeadlineExceeded,
    EngineCrashError,
    GuestHalted,
    HarnessError,
    UnsupportedFeatureError,
    error_from_payload,
    error_to_payload,
)
from repro.exp import Dataset
from repro.platform import VEXPRESS


def _delegate_build(arch, platform):
    """A real, working guest program (the System Call benchmark's)."""
    return get_benchmark("System Call").build(arch, platform)


class CrashingBenchmark(Benchmark):
    """Raises from inside the harness's execution path -- the stand-in
    for an engine/decoder/MMU bug in one grid cell."""

    name = "Crashing Cell"
    group = "Faults"
    default_iterations = 5

    def build(self, arch, platform):
        raise RuntimeError("deliberate fault-injection boom")


class WorkerKillerBenchmark(Benchmark):
    """Hard-kills the *worker process* (not an exception -- the kind of
    failure ``BrokenProcessPool`` reports), but builds normally when
    executed in-parent, so the serial fallback recovers the cell."""

    name = "Worker Killer"
    group = "Faults"
    default_iterations = 5

    def build(self, arch, platform):
        import repro.core.runner as runner_mod

        if runner_mod._WORKER_HARNESS is not None:  # only inside pool workers
            os._exit(17)
        return _delegate_build(arch, platform)


class SleepyBenchmark(Benchmark):
    """Blows any sub-second deadline on every attempt."""

    name = "Sleepy Cell"
    group = "Faults"
    default_iterations = 5

    def build(self, arch, platform):
        time.sleep(1.0)
        return _delegate_build(arch, platform)


#: Attempt counter for FlakySlowBenchmark, reset per test.  In-parent
#: retries run in this process, so a module global observes them.
_FLAKY_ATTEMPTS = {"count": 0}


class FlakySlowBenchmark(Benchmark):
    """Times out on the first attempt, runs cleanly on the retry."""

    name = "Flaky Slow Cell"
    group = "Faults"
    default_iterations = 5

    def build(self, arch, platform):
        _FLAKY_ATTEMPTS["count"] += 1
        if _FLAKY_ATTEMPTS["count"] == 1:
            time.sleep(1.0)
        return _delegate_build(arch, platform)


def _grid(*benchmarks, engine="simit", iterations=10):
    return [
        JobSpec(benchmark, engine, ARM, VEXPRESS, iterations=iterations)
        for benchmark in benchmarks
    ]


def _chunk_mates(first):
    """``first`` followed by seven cheap jobs: eight pending jobs over
    two workers make a first chunk of ``ceil(8 / 4) = 2``, so ``first``
    shares its chunk with a healthy neighbour."""
    return _grid(first) + [
        JobSpec(get_benchmark("System Call"), "simit", ARM, VEXPRESS, iterations)
        for iterations in range(10, 17)
    ]


def _ok_benchmarks():
    return [get_benchmark("System Call"), get_benchmark("TLB Flush"),
            get_benchmark("Hot Memory Access")]


def _comparable(results):
    dicts = [res.as_dict() for res in results]
    for entry in dicts:
        entry.pop("kernel_wall_ns")
    return dicts


class TestCrashContainment:
    def test_serial_crash_is_one_row(self):
        runner = ExperimentRunner()
        specs = _grid(CrashingBenchmark(), *_ok_benchmarks())
        results = runner.run(specs)
        assert [res.status for res in results] == ["crashed", "ok", "ok", "ok"]
        crash = results[0]
        assert isinstance(crash.error, EngineCrashError)
        assert crash.error.exc_type == "RuntimeError"
        assert "deliberate fault-injection boom" in crash.error.exc_message
        assert "boom" in crash.error.traceback_summary
        assert runner.last_stats["crashed"] == 1
        assert runner.last_jobs[0]["benchmark"] == "Crashing Cell"
        assert runner.last_jobs[0]["status"] == "crashed"
        assert "deliberate fault-injection boom" in runner.last_jobs[0]["error"]

    def test_deterministic_crash_is_not_retried_under_modeled(self):
        runner = ExperimentRunner(retries=3)
        runner.run(_grid(CrashingBenchmark()))
        assert runner.last_stats["crashed"] == 1
        assert runner.last_stats["retried"] == 0

    def test_wallclock_crash_is_retried(self):
        harness = Harness(timing=TimingPolicy.WALLCLOCK)
        runner = ExperimentRunner(harness=harness, retries=2, retry_backoff=0.0)
        runner.run(_grid(CrashingBenchmark()))
        assert runner.last_stats["crashed"] == 1
        assert runner.last_stats["retried"] == 2

    def test_parallel_crash_matches_serial(self):
        specs = lambda: _grid(  # noqa: E731 - tiny local factory
            CrashingBenchmark(), *_ok_benchmarks()
        )
        serial = ExperimentRunner(jobs=1).run(specs())
        parallel = ExperimentRunner(jobs=2).run(specs())
        assert [res.status for res in parallel] == ["crashed", "ok", "ok", "ok"]
        assert _comparable(parallel) == _comparable(serial)

    def test_engine_crash_inside_run_is_contained(self, monkeypatch):
        from repro.sim.interp import FastInterpreter

        def _blow_up(self, max_insns=0):
            raise ZeroDivisionError("decoder exploded")

        monkeypatch.setattr(FastInterpreter, "run", _blow_up)
        results = ExperimentRunner().run(_grid(get_benchmark("System Call")))
        assert results[0].status == "crashed"
        assert results[0].error.exc_type == "ZeroDivisionError"

    def test_suite_result_failures_accessor(self):
        runner = ExperimentRunner()
        suite_result = runner.run_suite(
            "simit", ARM, VEXPRESS,
            benchmarks=[CrashingBenchmark(), get_benchmark("System Call")],
        )
        failures = suite_result.failures()
        assert [res.benchmark for res in failures] == ["Crashing Cell"]
        assert failures[0].status in FAILURE_STATUSES


class TestWorkerDeathFallback:
    def test_worker_death_falls_back_to_serial_in_order(self):
        benchmarks = [WorkerKillerBenchmark()] + _ok_benchmarks()
        serial = ExperimentRunner(jobs=1).run(_grid(*benchmarks))
        runner = ExperimentRunner(jobs=2)
        parallel = runner.run(_grid(*benchmarks))
        # The killer cell is recovered in-parent (where it builds
        # normally), every cell is delivered in submission order, and
        # the merged grid is bit-for-bit the serial one.
        assert [res.benchmark for res in parallel] == [b.name for b in benchmarks]
        assert all(res.ok for res in parallel)
        assert _comparable(parallel) == _comparable(serial)
        assert runner.last_stats["worker_lost"] >= 1


class TestChunkedFaults:
    """Fault isolation under *batched* dispatch: a failing job that
    shares a multi-job chunk (:func:`_chunk_mates`) must not widen its
    blast radius beyond itself."""

    def test_crash_inside_chunk_quarantines_one_job(self):
        with ExperimentRunner(jobs=2) as runner:
            results = runner.run(_chunk_mates(CrashingBenchmark()))
            assert runner.last_stats["chunk_size"] == 2
            assert [res.status for res in results] == ["crashed"] + ["ok"] * 7
            # The crash was contained inside the worker: the chunk came
            # back whole and nothing fell through to the parent.
            assert runner.last_stats["worker_lost"] == 0
            assert runner.last_stats["chunks"] >= 1
            assert runner.last_stats["chunk_splits"] == 0

    def test_timeout_inside_chunk_quarantines_one_job(self):
        with ExperimentRunner(jobs=2, deadline=0.15, retries=0) as runner:
            results = runner.run(_chunk_mates(SleepyBenchmark()))
            # The sleeper shares a chunk; the worker-side watchdog turns
            # it into a timeout row without losing its chunk neighbour
            # (the deadline stays per-job under chunking).
            assert runner.last_stats["chunk_size"] == 2
            assert [res.status for res in results] == ["timeout"] + ["ok"] * 7
            assert runner.last_stats["worker_lost"] == 0

    def test_worker_death_in_chunk_splits_and_recovers(self):
        specs = _chunk_mates(WorkerKillerBenchmark())
        serial = ExperimentRunner(jobs=1).run(specs)
        with ExperimentRunner(jobs=2) as runner:
            parallel = runner.run(specs)
            # The dying worker takes its whole chunk down; the split
            # round resubmits the lost jobs as singleton chunks, so
            # only the killer cell (plus whatever died with it) falls
            # through to the parent -- and the merged grid is still
            # bit-for-bit the serial one, in submission order.
            assert runner.last_stats["chunk_size"] == 2
            assert [res.benchmark for res in parallel] == [
                spec.benchmark.name for spec in specs
            ]
            assert all(res.ok for res in parallel)
            assert _comparable(parallel) == _comparable(serial)
            assert runner.last_stats["chunk_splits"] == 1
            assert runner.last_stats["worker_lost"] >= 1


class TestDeadline:
    def test_serial_deadline_yields_timeout_record(self):
        runner = ExperimentRunner(deadline=0.15, retries=0)
        results = runner.run(_grid(SleepyBenchmark(), get_benchmark("System Call")))
        assert [res.status for res in results] == ["timeout", "ok"]
        assert isinstance(results[0].error, DeadlineExceeded)
        assert results[0].error.deadline_s == pytest.approx(0.15)
        assert runner.last_stats["timeout"] == 1

    def test_pool_deadline_yields_timeout_record(self):
        runner = ExperimentRunner(jobs=2, deadline=0.15, retries=0)
        results = runner.run(_grid(SleepyBenchmark(), get_benchmark("System Call")))
        assert [res.status for res in results] == ["timeout", "ok"]
        assert runner.last_stats["timeout"] == 1

    def test_no_deadline_means_no_watchdog(self):
        runner = ExperimentRunner()
        results = runner.run(_grid(get_benchmark("System Call")))
        assert results[0].ok


class TestRetries:
    def test_transient_timeout_recovers_and_counts(self):
        _FLAKY_ATTEMPTS["count"] = 0
        runner = ExperimentRunner(deadline=0.2, retries=1, retry_backoff=0.0)
        results = runner.run(_grid(FlakySlowBenchmark()))
        assert results[0].ok
        assert runner.last_stats["retried"] == 1
        assert runner.last_stats["timeout"] == 0  # final statuses only
        assert _FLAKY_ATTEMPTS["count"] == 2

    def test_retries_exhausted_keeps_timeout(self):
        runner = ExperimentRunner(deadline=0.15, retries=1, retry_backoff=0.0)
        results = runner.run(_grid(SleepyBenchmark()))
        assert results[0].status == "timeout"
        assert runner.last_stats["retried"] == 1
        assert runner.last_stats["timeout"] == 1


class TestErrorRecordPayloads:
    """Every status's cause survives the JSON payload round-trip."""

    def _roundtrip(self, record):
        # Through actual JSON text, as the dataset and any remote
        # transport would ship it.
        payload = json.loads(json.dumps(record.to_payload()))
        return ExecutionRecord.from_payload(payload)

    def test_crashed_roundtrip(self):
        record = ExecutionRecord(
            status="crashed",
            error=EngineCrashError("ValueError", "bad tlb index", "  File x.py..."),
        )
        clone = self._roundtrip(record)
        assert clone.status == "crashed"
        assert isinstance(clone.error, EngineCrashError)
        assert clone.error.exc_type == "ValueError"
        assert clone.error.exc_message == "bad tlb index"
        assert clone.error.traceback_summary == "  File x.py..."

    def test_timeout_roundtrip(self):
        clone = self._roundtrip(
            ExecutionRecord(status="timeout", error=DeadlineExceeded(2.5))
        )
        assert isinstance(clone.error, DeadlineExceeded)
        assert clone.error.deadline_s == 2.5

    def test_harness_error_roundtrip(self):
        clone = self._roundtrip(
            ExecutionRecord(status="error", error=HarnessError("phase markers missing"))
        )
        assert isinstance(clone.error, HarnessError)
        assert "phase markers missing" in str(clone.error)

    def test_guest_halted_roundtrip(self):
        clone = self._roundtrip(
            ExecutionRecord(status="error", error=GuestHalted(3))
        )
        assert isinstance(clone.error, GuestHalted)
        assert clone.error.code == 3

    def test_unsupported_roundtrip(self):
        clone = self._roundtrip(
            ExecutionRecord(
                status="unsupported", error=UnsupportedFeatureError("gem5", "testctl")
            )
        )
        assert isinstance(clone.error, UnsupportedFeatureError)
        assert (clone.error.simulator, clone.error.feature) == ("gem5", "testctl")

    def test_ok_record_has_no_error_key(self):
        assert "error" not in ExecutionRecord(status="ok").to_payload()

    def test_legacy_unsupported_key_still_reads(self):
        # Entries written before the lossless-error format.
        record = ExecutionRecord.from_payload({
            "status": "unsupported",
            "unsupported": ["gem5", "testctl"],
            "kernel_delta": {},
            "kernel_wall_ns": 0,
            "total_instructions": 0,
        })
        assert isinstance(record.error, UnsupportedFeatureError)

    def test_unknown_error_class_degrades_to_named_message(self):
        error = error_from_payload({"class": "WeirdVendorError", "message": "zap"})
        assert "WeirdVendorError" in str(error) and "zap" in str(error)

    def test_error_payload_none_passthrough(self):
        assert error_to_payload(None) is None
        assert error_from_payload(None) is None

    def test_crashed_records_survive_the_pool(self):
        # End to end: a crashed record produced in a worker process
        # arrives in the parent with its cause intact.
        results = ExperimentRunner(jobs=2).run(
            _grid(CrashingBenchmark(), get_benchmark("System Call"))
        )
        assert results[0].status == "crashed"
        assert isinstance(results[0].error, EngineCrashError)
        assert "boom" in results[0].error.exc_message


class TestDatasetQuarantine:
    def test_corrupt_entry_is_quarantined(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        spec = JobSpec("System Call", "simit", ARM, VEXPRESS, iterations=10)
        ExperimentRunner(dataset=dataset).run([spec])
        path = dataset._path(spec.fingerprint())
        with open(path, "w") as fh:
            fh.write("{not json")
        fresh = Dataset(tmp_path / "ds")
        assert fresh.get(spec.fingerprint()) is None
        # The bad file is gone: the failed parse is paid exactly once.
        assert not os.path.exists(path)
        stats = fresh.stats()
        assert stats["quarantined"] == 1
        assert stats["misses"] == 1
        # The second probe is a plain (cheap) miss, not a re-parse.
        assert fresh.get(spec.fingerprint()) is None
        assert fresh.quarantined == 1

    def test_missing_entry_is_not_quarantined(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        assert dataset.get("ab" + "0" * 62) is None
        assert dataset.quarantined == 0
        assert dataset.misses == 1

    def test_failure_records_are_never_stored(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        runner = ExperimentRunner(dataset=dataset)
        runner.run(_grid(CrashingBenchmark()))
        assert dataset.stores == 0
        assert dataset.stats()["entries"] == 0


class TestSweepKeepGoing:
    def test_non_strict_sweep_records_failures_as_nan(self):
        from repro.analysis.sweep import VersionSweep

        sweep = VersionSweep(ARM, VEXPRESS)
        series = sweep.run(CrashingBenchmark(), iterations=5, strict=False)
        assert len(series.seconds) == len(series.versions)
        assert all(value != value for value in series.seconds)  # NaN
        assert series.failures
        assert series.failures[0][1] == "crashed"

    def test_strict_sweep_still_raises(self):
        from repro.analysis.sweep import VersionSweep

        sweep = VersionSweep(ARM, VEXPRESS)
        with pytest.raises(RuntimeError, match="crashed"):
            sweep.run(CrashingBenchmark(), iterations=5, strict=True)
