"""Experiment-runner and result-dataset tests.

The contracts under test:

- structurally-equal jobs share one execution, and pricing per spec
  reproduces exactly what naive serial execution would have produced;
- ``jobs=N`` fan-out never changes results (merge is deterministic, in
  submission order);
- a warm dataset reproduces a cold run exactly while executing zero
  guest instructions;
- the dataset key tracks everything the stored delta depends on
  (iterations, structural config, counter schema) and nothing it does
  not (cost overrides).
"""

import pytest

from repro.analysis import figures
from repro.analysis.sweep import VersionSweep
from repro.arch import ARM
from repro.core import (
    ExecutionRecord,
    ExperimentRunner,
    Harness,
    JobSpec,
    TimingPolicy,
    get_benchmark,
    job_fingerprint,
)
from repro.core import resultcache
from repro.errors import UnsupportedFeatureError
from repro.exp import Dataset
from repro.platform import VEXPRESS
from repro.sim.dbt.versions import QEMU_VERSIONS, dbt_spec_for_version
from repro.sim.spec import spec_for


def _dicts(results):
    """Result dicts without the host-measured ``kernel_wall_ns``."""
    dicts = [res.as_dict() for res in results]
    for entry in dicts:
        entry.pop("kernel_wall_ns")
    return dicts


class _CountingHarness(Harness):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.executions = 0

    def execute_benchmark(self, *args, **kwargs):
        self.executions += 1
        return super().execute_benchmark(*args, **kwargs)


def _key(engine, **fields):
    return spec_for(engine, **fields).cache_key_token()


class TestCacheKeyToken:
    def test_cost_overrides_do_not_matter(self):
        a = dbt_spec_for_version("v2.1.0", "arm")
        b = dbt_spec_for_version("v2.4.1", "arm")
        assert a.cost_overrides != b.cost_overrides
        assert a.cache_key_token() == b.cache_key_token()

    def test_structure_matters(self):
        old = dbt_spec_for_version("v1.7.0", "arm")  # tlb_bits=7
        new = dbt_spec_for_version("v2.5.0-rc2", "arm")  # tlb_bits=8
        assert old.cache_key_token() != new.cache_key_token()

    def test_structural_fields_matter(self):
        assert _key("qemu-dbt", asid_tagged=True) != _key("qemu-dbt")
        assert _key("simit", tlb_capacity=128) != _key("simit")

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown engine option"):
            _key("simit", x=1)

    def test_object_valued_fields_rejected(self):
        # Objects have no canonical encoding; silently keying on their
        # repr (memory address) would split the cache between equal
        # configs built separately, so they must be rejected loudly.
        class Policy:
            pass

        with pytest.raises(ValueError, match="tlb_capacity"):
            _key("simit", tlb_capacity=Policy())

    def test_separately_built_equal_configs_collide(self):
        # Regression for the repr-address bug: two equal configurations
        # constructed independently must produce identical keys.
        a = _key("simit", tlb_capacity=128, asid_tagged=True)
        b = _key("simit", asid_tagged=True, tlb_capacity=128)
        assert a == b
        assert _key("qemu-dbt", tlb_bits=7) == _key("qemu-dbt", tlb_bits=7)

    def test_engines_distinct(self):
        assert _key("simit") != _key("gem5")


class TestJobSpec:
    def test_resolves_benchmark_names(self):
        spec = JobSpec("System Call", "simit", ARM, VEXPRESS)
        assert spec.benchmark is get_benchmark("System Call")
        assert spec.iterations == spec.benchmark.default_iterations

    def test_payload_roundtrip_preserves_identity(self):
        spec = JobSpec(
            "System Call",
            dbt_spec_for_version("v2.1.0", "arm"),
            ARM,
            VEXPRESS,
            iterations=20,
        )
        clone = JobSpec.from_payload(spec.to_payload())
        assert clone.engine_spec == spec.engine_spec
        assert clone.benchmark is spec.benchmark
        assert clone.iterations == spec.iterations
        assert clone.fingerprint() == spec.fingerprint()
        assert clone.engine_spec.cache_key_token() == spec.engine_spec.cache_key_token()

    def test_executes_flags_static_outcomes(self):
        ok = JobSpec("System Call", "simit", ARM, VEXPRESS)
        assert ok.executes()
        # Figure 7's static dagger: Gem5 lacks the test device entirely.
        dagger = JobSpec("Memory Mapped Device", "gem5", ARM, VEXPRESS)
        assert not dagger.executes()
        # The external-interrupt dagger is detected dynamically instead,
        # so the job nominally executes (and the record is cacheable).
        dynamic = JobSpec("External Software Interrupt", "gem5", ARM, VEXPRESS)
        assert dynamic.executes()


class TestDeduplication:
    def test_sweep_grid_executes_once_per_structural_group(self):
        harness = _CountingHarness(timing=TimingPolicy.MODELED)
        runner = ExperimentRunner(harness=harness)
        benchmark = get_benchmark("System Call")
        specs = [
            JobSpec(
                benchmark,
                dbt_spec_for_version(version, "arm"),
                ARM,
                VEXPRESS,
                iterations=20,
            )
            for version in QEMU_VERSIONS
        ]
        results = runner.run(specs)
        assert len(results) == len(QEMU_VERSIONS)
        assert all(res.ok for res in results)
        # Only two structural configurations exist in the timeline.
        assert harness.executions == 2
        assert runner.last_stats == {
            "jobs": 20,
            "unique": 2,
            "static": 0,
            "from_dataset": 0,
            "reused": 0,
            "executed": 2,
            "dataset_appended": 0,
            "crashed": 0,
            "timeout": 0,
            "errors": 0,
            "retried": 0,
            "worker_lost": 0,
            "chunks": 0,
            "chunk_splits": 0,
            "payload_bytes": 0,
            "chunk_size": 0,
        }
        assert len(runner.last_jobs) == 2
        assert sum(row["submitted"] for row in runner.last_jobs) == 20

    def test_benchmark_module_splits_cells(self):
        # Two classes that differ only in ``__module__`` are two cells:
        # the fingerprint names the module, so the dedup must too.
        base = type(get_benchmark("System Call"))
        twins = [
            type(
                base.__name__,
                (base,),
                {"__module__": module, "__qualname__": base.__qualname__},
            )()
            for module in ("repro_twin_a", "repro_twin_b")
        ]
        harness = _CountingHarness(timing=TimingPolicy.MODELED)
        runner = ExperimentRunner(harness=harness)
        specs = [JobSpec(twin, "simit", ARM, VEXPRESS, iterations=10) for twin in twins]
        assert all(res.ok for res in runner.run(specs))
        assert runner.last_stats["unique"] == 2
        assert runner.last_stats["executed"] == 2
        assert harness.executions == 2
        assert [row["cell_id"] for row in runner.last_jobs] == [
            spec.fingerprint() for spec in specs
        ]
        assert list(runner.last_records) == [spec.fingerprint() for spec in specs]

    def test_equal_field_values_share_one_record_key(self):
        specs = [
            JobSpec(
                "System Call",
                spec_for("qemu-dbt", chain_enabled=value),
                ARM,
                VEXPRESS,
                iterations=10,
            )
            for value in (True, 1)
        ]
        runner = ExperimentRunner()
        runner.run(specs)
        assert runner.last_stats["unique"] == 1
        assert runner.last_stats["executed"] == 1
        assert list(runner.last_records) == [specs[0].fingerprint()]
        assert specs[1].fingerprint() == specs[0].fingerprint()

    def test_deduped_results_match_naive_serial(self):
        benchmark = get_benchmark("System Call")
        # The reference executes and prices every cell on its own: no
        # dedup, no dataset, no runner.
        naive = Harness(timing=TimingPolicy.MODELED)
        expected = []
        for version in QEMU_VERSIONS:
            cell = (benchmark, dbt_spec_for_version(version, "arm"), ARM, VEXPRESS)
            record = naive.execute_benchmark(*cell, iterations=20)
            expected.append(naive.price_record(record, *cell, iterations=20))
        runner = ExperimentRunner()
        got = runner.run(
            [
                JobSpec(
                    benchmark,
                    dbt_spec_for_version(version, "arm"),
                    ARM,
                    VEXPRESS,
                    iterations=20,
                )
                for version in QEMU_VERSIONS
            ]
        )
        assert _dicts(got) == _dicts(expected)


class TestParallelDeterminism:
    def test_figure7_grid_parallel_equals_serial(self):
        serial = figures.figure7(scale=0.1)
        parallel = figures.figure7(scale=0.1, runner=ExperimentRunner(jobs=4))
        assert parallel == serial

    def test_figure6_grid_parallel_equals_serial(self):
        serial = figures.figure6(scale=0.05)
        parallel = figures.figure6(
            scale=0.05, runner=ExperimentRunner(jobs=4)
        )
        assert parallel == serial

    def test_suite_parallel_equals_serial(self):
        kwargs = dict(scale=0.05)
        serial = ExperimentRunner(jobs=1).run_suite("simit", ARM, VEXPRESS, **kwargs)
        parallel = ExperimentRunner(jobs=4).run_suite("simit", ARM, VEXPRESS, **kwargs)
        assert _dicts(parallel) == _dicts(serial)

    def test_parallel_error_statuses_survive_the_pool(self):
        # gem5's dagger rows are static, but parallel pools must also
        # transport dynamic statuses; run the full gem5 suite both ways.
        serial = ExperimentRunner(jobs=1).run_suite("gem5", ARM, VEXPRESS, scale=0.05)
        parallel = ExperimentRunner(jobs=4).run_suite("gem5", ARM, VEXPRESS, scale=0.05)
        assert [res.status for res in parallel] == [res.status for res in serial]
        assert "unsupported" in {res.status for res in parallel}


class TestDatasetStore:
    def test_warm_run_is_exact_and_executes_nothing(self, tmp_path, monkeypatch):
        dataset_dir = tmp_path / "ds"
        cold_runner = ExperimentRunner(dataset=Dataset(dataset_dir))
        cold = cold_runner.run_suite("simit", ARM, VEXPRESS, scale=0.05)
        assert cold_runner.last_stats["from_dataset"] == 0
        assert cold_runner.last_stats["executed"] == len(cold)

        # A warm run must never instantiate an engine.
        def _forbidden(*args, **kwargs):
            raise AssertionError("guest execution attempted on a warm dataset")

        monkeypatch.setattr("repro.sim.spec.EngineSpec.build", _forbidden)
        warm_runner = ExperimentRunner(dataset=Dataset(dataset_dir))
        warm = warm_runner.run_suite("simit", ARM, VEXPRESS, scale=0.05)
        assert warm_runner.last_stats["from_dataset"] == len(cold)
        assert warm_runner.last_stats["executed"] == 0
        # Exact reproduction; stored rows carry no host wall time.
        assert _dicts(warm) == _dicts(cold)
        assert {res.kernel_wall_ns for res in warm} == {0}

    def test_version_sweep_warms_from_structural_entries(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        sweep = VersionSweep(ARM, VEXPRESS, runner=ExperimentRunner(dataset=dataset))
        benchmark = get_benchmark("TLB Flush")
        cold = sweep.run(benchmark, iterations=20)
        assert dataset.stores == 2  # one per structural group
        warm_sweep = VersionSweep(
            ARM, VEXPRESS, runner=ExperimentRunner(dataset=Dataset(tmp_path / "ds"))
        )
        warm = warm_sweep.run(benchmark, iterations=20)
        assert warm.seconds == cold.seconds
        assert warm_sweep.runner.last_stats["executed"] == 0

    def test_wallclock_timing_bypasses_dataset(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        harness = Harness(timing=TimingPolicy.WALLCLOCK)
        runner = ExperimentRunner(harness=harness, dataset=dataset)
        runner.run([JobSpec("System Call", "simit", ARM, VEXPRESS, iterations=10)])
        assert dataset.stores == 0
        assert dataset.stats()["entries"] == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        spec = JobSpec("System Call", "simit", ARM, VEXPRESS, iterations=10)
        runner = ExperimentRunner(dataset=dataset)
        runner.run([spec])
        path = dataset._path(spec.fingerprint())
        with open(path, "w") as fh:
            fh.write("{not json")
        fresh = Dataset(tmp_path / "ds")
        assert fresh.get(spec.fingerprint()) is None
        # And a re-run repairs the entry.
        rerun = ExperimentRunner(dataset=fresh)
        results = rerun.run([spec])
        assert results[0].ok
        assert fresh.get(spec.fingerprint()) is not None

    def test_stats_and_clear(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        runner = ExperimentRunner(dataset=dataset)
        runner.run(
            [
                JobSpec("System Call", "simit", ARM, VEXPRESS, iterations=10),
                JobSpec("TLB Flush", "simit", ARM, VEXPRESS, iterations=10),
            ]
        )
        stats = dataset.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert dataset.clear() == 2
        assert dataset.stats()["entries"] == 0

    def test_counter_schema_change_is_clean_miss(self, tmp_path, monkeypatch):
        # A change to the counter vocabulary moves every fingerprint
        # (via the schema tag), so old rows become clean misses and
        # are re-executed -- never read back into a KeyError.
        dataset_dir = tmp_path / "ds"
        cold_runner = ExperimentRunner(dataset=Dataset(dataset_dir))
        cold = cold_runner.run_suite("simit", ARM, VEXPRESS, scale=0.05)
        assert cold_runner.last_stats["executed"] == len(cold)
        monkeypatch.setattr(
            resultcache,
            "COUNTER_NAMES",
            tuple(resultcache.COUNTER_NAMES) + ("speculative_fizzles",),
        )
        warm_runner = ExperimentRunner(dataset=Dataset(dataset_dir))
        warm = warm_runner.run_suite("simit", ARM, VEXPRESS, scale=0.05)
        assert warm_runner.last_stats["from_dataset"] == 0
        assert warm_runner.last_stats["executed"] == len(warm)
        assert _dicts(warm) == _dicts(cold)

    def test_execution_record_payload_roundtrip(self):
        record = ExecutionRecord(
            status="ok",
            kernel_delta={"instructions": 120, "loads": 7},
            kernel_wall_ns=4321,
            total_instructions=500,
        )
        clone = ExecutionRecord.from_payload(record.to_payload())
        assert clone.to_payload() == record.to_payload()
        assert clone.kernel_delta == record.kernel_delta

    def test_unsupported_record_roundtrip(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        spec = JobSpec("System Call", "gem5", ARM, VEXPRESS, iterations=10)
        record = ExecutionRecord(
            status="unsupported", error=UnsupportedFeatureError("gem5", "testctl")
        )
        assert dataset.store_records([(spec, record)]) == 1
        loaded = dataset.record(spec.fingerprint())
        assert loaded.status == "unsupported"
        assert isinstance(loaded.error, UnsupportedFeatureError)
        assert loaded.error.simulator == "gem5"
        assert loaded.error.feature == "testctl"


class TestCacheKey:
    def _fingerprint(self, **overrides):
        params = dict(
            benchmark=get_benchmark("System Call"),
            simulator="qemu-dbt",
            arch=ARM,
            platform=VEXPRESS,
            iterations=20,
            structure=spec_for("qemu-dbt").cache_key_payload(),
        )
        params.update(overrides)
        return job_fingerprint(**params)

    def test_iterations_change_key(self):
        assert self._fingerprint() != self._fingerprint(iterations=21)

    def test_structural_config_changes_key(self):
        other = spec_for("qemu-dbt", tlb_bits=7).cache_key_payload()
        assert self._fingerprint() != self._fingerprint(structure=other)

    def test_cost_overrides_share_key(self):
        a = dbt_spec_for_version("v2.1.0", "arm").cache_key_payload()
        b = dbt_spec_for_version("v2.4.1", "arm").cache_key_payload()
        assert self._fingerprint(structure=a) == self._fingerprint(structure=b)

    def test_benchmark_and_arch_change_key(self):
        assert self._fingerprint() != self._fingerprint(
            benchmark=get_benchmark("TLB Flush")
        )
        assert self._fingerprint() != self._fingerprint(simulator="simit")

    def test_schema_version_changes_key(self, monkeypatch):
        before = self._fingerprint()
        monkeypatch.setattr(
            resultcache, "COST_SCHEMA_VERSION", resultcache.COST_SCHEMA_VERSION + 1
        )
        assert self._fingerprint() != before

    def test_non_serialisable_structure_rejected(self):
        with pytest.raises(ValueError, match="JSON-serialisable"):
            self._fingerprint(structure=object())
