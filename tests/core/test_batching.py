"""Batched warm-pool execution tests: chunk planning, chunk sizing,
compact payloads, pool persistence, and parallel/serial determinism.

Contracts under test:

- chunk planning shards by engine cache key token: a chunk never mixes
  tokens, covers every pending index exactly once, and preserves
  submission order (groups in first-seen order, members in order);
- chunk sizing: each chunk takes ``ceil(remaining / (2 * workers))``
  of the jobs not yet chunked, so the last chunks are small, and
  ``last_stats["chunk_size"]`` reports the largest;
- the wire payload is compact: engine specs are interned per chunk and
  shipped as defaults-stripped deltas, benchmarks by registry name
  (ad-hoc objects by value), and shipped bytes feed the
  ``runner.payload_bytes`` counter;
- the pool is persistent across :meth:`ExperimentRunner.run` calls and
  shuts down on :meth:`close` / context-manager exit;
- chunked parallel execution is bit-for-bit equal to serial on a mixed
  multi-engine grid, at every worker count;
- dispatch observability: ``runner.dispatch``/``runner.chunk`` phase
  timers and the ``runner.chunk_size`` histogram are recorded, and the
  pool-path counters (``chunks``/``chunk_splits``/``payload_bytes``)
  in ``last_stats`` count what was dispatched (0 on a serial run).
"""

import pickle

import pytest

from repro.arch import ARM
from repro.core import ExperimentRunner, JobSpec, get_benchmark
from repro.core.benchmark import Benchmark
from repro.obs.metrics import METRICS
from repro.platform import VEXPRESS
from repro.sim.spec import EngineSpec, InterpSpec
from tests.core.test_faults import _comparable, _ok_benchmarks


@pytest.fixture(autouse=True)
def _clean_registry():
    METRICS.reset()
    METRICS.enable(False)
    yield
    METRICS.reset()
    METRICS.enable(False)


class LocalOnlyBenchmark(Benchmark):
    """Registry-unknown benchmark (ships to workers by value)."""

    name = "Local Only Cell"
    group = "Batching"
    default_iterations = 5

    def build(self, arch, platform):
        return get_benchmark("System Call").build(arch, platform)


def _mixed_grid(iterations=10, benchmarks=3):
    """A grid interleaving three cache key tokens (two engines plus a
    structurally-distinct variant of one of them) over the first
    ``benchmarks`` healthy benchmarks."""
    engines = ["simit", "qemu-dbt", InterpSpec(tlb_capacity=128)]
    specs = []
    for benchmark in _ok_benchmarks()[:benchmarks]:
        for engine in engines:
            specs.append(JobSpec(benchmark, engine, ARM, VEXPRESS, iterations))
    return specs


def _simit_grid(iterations=10):
    return [
        JobSpec(benchmark, "simit", ARM, VEXPRESS, iterations)
        for benchmark in _ok_benchmarks()
    ]


class TestChunkPlanning:
    def test_chunks_never_mix_cache_key_tokens(self):
        runner = ExperimentRunner(jobs=2)
        specs = _mixed_grid()  # 9 jobs over 2 workers: chunks of 3, 2, 1, ...
        chunks = runner._plan_chunks(specs)
        for chunk in chunks:
            keys = {specs[index].engine_spec.cache_key_token() for index in chunk}
            assert len(keys) == 1
        covered = sorted(index for chunk in chunks for index in chunk)
        assert covered == list(range(len(specs)))

    def test_chunks_preserve_submission_order(self):
        # Interleaved keys A,B,A,B,... regroup to A-chunks then
        # B-chunks (first-seen order), members in submission order.
        # One worker: ceil(8 / 2) = 4 jobs, then ceil(4 / 2) = 2, then 1s.
        runner = ExperimentRunner(jobs=1)
        benchmark = _ok_benchmarks()[0]
        specs = []
        for iterations in range(10, 14):
            specs.append(JobSpec(benchmark, "simit", ARM, VEXPRESS, iterations))
            specs.append(JobSpec(benchmark, "qemu-dbt", ARM, VEXPRESS, iterations))
        chunks = runner._plan_chunks(specs)
        assert chunks == [[0, 2, 4, 6], [1, 3], [5], [7]]
        assert runner.last_stats["chunk_size"] == 4

    def test_first_run_falls_back_to_share(self):
        runner = ExperimentRunner(jobs=4)
        # The same rule on the first run and every later one (nothing
        # is learned from earlier runs).
        assert runner._chunk_size(144, 4) == 18  # ceil(144 / (2*4))
        assert runner._chunk_size(3, 2) == 1
        runner.run(_simit_grid())
        assert runner._chunk_size(144, 4) == 18


class TestCompactPayloads:
    def test_delta_payload_strips_defaults(self):
        assert InterpSpec().delta_payload() == {"engine": "simit", "fields": {}}
        spec = InterpSpec(tlb_capacity=128)
        assert spec.delta_payload()["fields"] == {"tlb_capacity": 128}

    def test_delta_payload_roundtrips(self):
        for spec in (InterpSpec(), InterpSpec(tlb_capacity=128, asid_tagged=True)):
            assert EngineSpec.from_payload(spec.delta_payload()) == spec

    def test_chunk_blob_interns_engines_and_ships_names(self):
        runner = ExperimentRunner(jobs=2)
        specs = _simit_grid()
        blob = runner._chunk_blob(specs)
        payload = pickle.loads(blob)
        # One interned engine entry however many jobs reference it, and
        # registry benchmarks travel by name, not by value.
        assert len(payload["engines"]) == 1
        assert len(payload["jobs"]) == len(specs)
        assert all(isinstance(job[0], str) for job in payload["jobs"])
        assert runner.last_stats["payload_bytes"] == len(blob)

    def test_adhoc_benchmark_ships_by_value(self):
        runner = ExperimentRunner(jobs=2)
        blob = runner._chunk_blob(
            [JobSpec(LocalOnlyBenchmark(), "simit", ARM, VEXPRESS, 5)]
        )
        payload = pickle.loads(blob)
        assert isinstance(payload["jobs"][0][0], LocalOnlyBenchmark)

    def test_adhoc_benchmark_executes_in_pool(self):
        serial = ExperimentRunner(jobs=1).run(
            [JobSpec(LocalOnlyBenchmark(), "simit", ARM, VEXPRESS, 10)]
        )
        with ExperimentRunner(jobs=2) as runner:
            parallel = runner.run(
                [
                    JobSpec(LocalOnlyBenchmark(), "simit", ARM, VEXPRESS, 10),
                    JobSpec(get_benchmark("System Call"), "simit", ARM, VEXPRESS, 10),
                ]
            )
            assert parallel[0].ok
            assert _comparable([parallel[0]]) == _comparable(serial)
            assert runner.last_stats["worker_lost"] == 0


class TestPoolPersistence:
    def test_pool_survives_across_runs(self):
        with ExperimentRunner(jobs=2) as runner:
            first = runner.run(_simit_grid())
            pool = runner._pool
            assert pool is not None
            second = runner.run(_simit_grid())
            assert runner._pool is pool  # warm reuse, not a fresh pool
            assert _comparable(first) == _comparable(second)
        assert runner._pool is None

    def test_close_is_idempotent_and_reentrant(self):
        runner = ExperimentRunner(jobs=2)
        runner.run(_simit_grid())
        runner.close()
        assert runner._pool is None
        runner.close()
        # The runner stays usable: the next run warms a new pool.
        results = runner.run(_simit_grid())
        assert all(res.ok for res in results)
        runner.close()


class TestChunkedDeterminism:
    def test_mixed_grid_matches_serial_at_every_chunk_size(self):
        specs = _mixed_grid
        serial = ExperimentRunner(jobs=1).run(specs())
        # 9 jobs: chunks of at most 3 at jobs=2 and 2 at jobs=3 and 4.
        for jobs in (2, 3, 4):
            with ExperimentRunner(jobs=jobs) as runner:
                parallel = runner.run(specs())
                assert _comparable(parallel) == _comparable(serial)

    def test_dedup_and_chunking_compose(self):
        # Structural repeats dedup to one execution before chunking;
        # the merge still prices every submitted spec.
        specs = _simit_grid() + _simit_grid()
        with ExperimentRunner(jobs=2) as runner:
            results = runner.run(specs)
            assert len(results) == len(specs)
            assert runner.last_stats["unique"] == len(specs) // 2
            assert _comparable(results[: len(specs) // 2]) == _comparable(
                results[len(specs) // 2 :]
            )


class TestDispatchObservability:
    def test_dispatch_instruments_recorded(self):
        METRICS.enable()
        with ExperimentRunner(jobs=2) as runner:
            runner.run(_mixed_grid(benchmarks=2))  # 6 jobs: chunks of 2, then 1s
            snap = METRICS.snapshot()
            assert snap["phases"]["runner.dispatch"]["count"] == runner.last_stats["chunks"]
            assert snap["phases"]["runner.chunk"]["count"] >= 1
            hist = snap["histograms"]["runner.chunk_size"]
            assert hist["count"] == runner.last_stats["chunks"]
            assert hist["max"] <= 2
            assert (
                snap["counters"]["runner.payload_bytes"]
                == runner.last_stats["payload_bytes"]
            )

    def test_serial_run_reports_zero_pool_stats(self):
        runner = ExperimentRunner()
        runner.run(_simit_grid())
        for key in ("chunks", "chunk_splits", "payload_bytes", "chunk_size"):
            assert runner.last_stats[key] == 0

    def test_pool_run_reports_chunk_stats(self):
        with ExperimentRunner(jobs=2) as runner:
            runner.run(_mixed_grid(benchmarks=2))
            assert runner.last_stats["chunks"] >= 3
            assert runner.last_stats["chunk_size"] == 2
            assert runner.last_stats["payload_bytes"] > 0
            assert runner.last_stats["chunk_splits"] == 0
