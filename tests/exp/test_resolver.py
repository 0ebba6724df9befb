"""Resumable-execution tests: the experiment runner's dataset probe.

Also pins the runner and dataset surface the frozen benchmark harness
(``perfbench/passes.py``, ``perfbench/layers.py``) drives, since those
files cannot change together with the program.
"""

import math

from repro.core.harness import Harness, TimingPolicy
from repro.core.runner import ExperimentRunner
from repro.exp import Dataset, Manifest, parse_query, run_manifest
from repro.exp.resolver import DatasetResolver


def tiny_manifest(**grid_overrides):
    grid = {
        "arch": "arm",
        "platform": "vexpress",
        "engines": ["simit", "qemu-dbt"],
        "benchmarks": ["tlb-*", "system-call"],
    }
    grid.update(grid_overrides)
    return Manifest(
        {
            "manifest": {"schema": 1, "name": "tiny", "seed": 0},
            "runner": {"scale": 0.02},
            "grid": [grid],
        }
    )


def table(results):
    return [
        (r.benchmark, r.simulator, r.status, r.kernel_ns if r.ok else None)
        for r in results
    ]


class TestRunManifest:
    def test_cold_run_executes_and_appends(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        with ExperimentRunner() as runner:
            result = run_manifest(tiny_manifest(), runner, dataset=dataset)
        assert result.stats["executed"] == 6
        assert result.stats["from_dataset"] == 0
        assert result.stats["dataset_appended"] == 6
        assert len(dataset.rows()) == 6
        assert result.failures() == []

    def test_warm_run_executes_nothing(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest()
        with ExperimentRunner() as runner:
            cold = run_manifest(manifest, runner, dataset=dataset)
        with ExperimentRunner() as runner:
            warm = run_manifest(manifest, runner, dataset=dataset)
        assert warm.stats["executed"] == 0
        assert warm.stats["from_dataset"] == 6
        assert all(row["source"] == "dataset" for row in warm.runner.last_jobs)
        assert table(warm.results) == table(cold.results)

    def test_partial_resume_executes_only_missing_cells(self, tmp_path):
        """The resumability contract: delete a subset of rows, re-run,
        and exactly the missing cells execute (checked through the
        runner's per-job source telemetry); the final table is
        bit-identical to the cold run's."""
        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest()
        with ExperimentRunner() as runner:
            cold = run_manifest(manifest, runner, dataset=dataset)
        victims = [
            row["cell"]
            for row in dataset.rows(parse_query("engine=simit bench=tlb-*"))
        ]
        assert len(victims) == 2
        for cell in victims:
            assert dataset.remove(cell)
        with ExperimentRunner() as runner:
            resumed = run_manifest(manifest, runner, dataset=dataset)
        executed = [
            (row["benchmark"], row["engine"])
            for row in resumed.runner.last_jobs
            if row["source"] == "executed"
        ]
        assert sorted(executed) == [
            ("TLB Eviction", "simit"),
            ("TLB Flush", "simit"),
        ]
        assert resumed.stats["executed"] == 2
        assert resumed.stats["from_dataset"] == 4
        assert resumed.stats["dataset_appended"] == 2
        assert table(resumed.results) == table(cold.results)

    def test_manifest_id_stamped_on_rows_and_jobs(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest()
        with ExperimentRunner() as runner:
            result = run_manifest(manifest, runner, dataset=dataset)
        for row in dataset.rows():
            assert row["manifest"] == manifest.manifest_id()
            assert row["provenance"]["manifest"] == manifest.manifest_id()
            assert row["provenance"]["seed"] == 0
        for job in result.runner.last_jobs:
            assert job["manifest"] == manifest.manifest_id()
            assert job["cell_id"]

    def test_without_dataset_is_plain_runner(self):
        with ExperimentRunner() as runner:
            result = run_manifest(tiny_manifest(), runner)
        assert result.runner is runner
        assert result.stats["executed"] == 6


class TestDatasetResolution:
    def test_pricing_variants_share_one_row(self, tmp_path):
        """Specs differing only in META/PRICING fields share a cell:
        the dataset stores one record, and each spec prices it under
        its own cost table -- the sweep's execute-once-price-many."""
        manifest = tiny_manifest(
            engines=[{"sweep": "qemu-versions"}], benchmarks=["system-call"]
        )
        dataset = Dataset(tmp_path / "ds")
        with ExperimentRunner() as runner:
            cold = run_manifest(manifest, runner, dataset=dataset)
        # 20 versions, but only the structural groups hit the dataset.
        assert len(dataset.rows()) == cold.stats["executed"]
        assert cold.stats["executed"] < len(manifest.jobs())
        with ExperimentRunner() as runner:
            warm = run_manifest(manifest, runner, dataset=dataset)
        assert warm.stats["executed"] == 0
        assert table(warm.results) == table(cold.results)
        # Different versions genuinely price differently from the same rows.
        seconds = {r.kernel_ns for r in warm.results if r.ok}
        assert len(seconds) > 1

    def test_wallclock_timing_bypasses_dataset(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest(benchmarks=["tlb-flush"])
        harness = Harness(timing=TimingPolicy.WALLCLOCK)
        with ExperimentRunner(harness=harness, dataset=dataset) as runner:
            runner.run(manifest.jobs())
            assert runner.last_stats["from_dataset"] == 0
            assert dataset.rows() == []
            runner.run(manifest.jobs())
            assert runner.last_stats["executed"] == 2

    def test_failures_not_appended_and_retry(self, tmp_path):
        """Failure rows never enter the dataset, so failed cells
        re-execute on the next run instead of pinning the failure."""
        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest(
            engines=["gem5"], benchmarks=["nonprivileged-access"]
        )
        with ExperimentRunner(deadline=1e-12, retries=0, dataset=dataset) as runner:
            results = runner.run(manifest.jobs())
        if any(not r.ok for r in results):
            failed_cells = {
                spec.fingerprint()
                for spec, r in zip(manifest.jobs(), results)
                if not r.ok
            }
            for cell in failed_cells:
                assert not dataset.contains(cell)

    def test_run_suite_resolves_from_dataset(self, tmp_path):
        from repro.arch import ARM
        from repro.platform import VEXPRESS

        dataset = Dataset(tmp_path / "ds")
        with ExperimentRunner(dataset=dataset) as runner:
            suite_result = runner.run_suite("simit", ARM, VEXPRESS, scale=0.02)
            assert len(list(suite_result)) == 18
            assert runner.last_stats["jobs"] == 18
            again = runner.run_suite("simit", ARM, VEXPRESS, scale=0.02)
            assert runner.last_stats["executed"] == 0
            assert table(list(again)) == table(list(suite_result))

    def test_telemetry_rows_join_dataset_rows(self, tmp_path):
        """Satellite contract: JSONL job rows carry cell_id + manifest,
        so telemetry joins dataset rows by key; dataset-resolved cells
        count under their own breakdown column."""
        from repro.obs.export import breakdown, read_jsonl, write_jsonl

        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest(engines=["simit"], benchmarks=["tlb-*"])
        with ExperimentRunner() as runner:
            run_manifest(manifest, runner, dataset=dataset)
        with ExperimentRunner() as runner:
            warm = run_manifest(manifest, runner, dataset=dataset)
        path = tmp_path / "jobs.jsonl"
        write_jsonl(path, meta={"command": "test"}, jobs=warm.runner.last_jobs)
        jobs = [line for line in read_jsonl(path) if line["type"] == "job"]
        assert len(jobs) == 2
        by_cell = {row["cell"]: row for row in dataset.rows()}
        for job in jobs:
            assert job["source"] == "dataset"
            assert job["manifest"] == manifest.manifest_id()
            joined = by_cell[job["cell_id"]]
            assert joined["benchmark"] == job["benchmark"]
        cells = breakdown(jobs)
        assert all(cell["dataset"] == 1 for cell in cells)
        assert all(cell["executed"] == 0 for cell in cells)

    def test_repeated_specs_collapse(self, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest(engines=["simit"], benchmarks=["tlb-flush"])
        specs = manifest.jobs() * 3
        with ExperimentRunner(dataset=dataset) as runner:
            results = runner.run(specs)
            assert runner.last_stats["unique"] == 1
            assert [
                (row["source"], row["submitted"]) for row in runner.last_jobs
            ] == [("executed", 3)]
        assert len(results) == 3
        assert len({id(r) for r in results}) == 3  # distinct result objects
        assert len(dataset.rows()) == 1
        values = {r.kernel_ns for r in results}
        assert len(values) == 1 and not any(math.isnan(v) for v in values)

    def test_equal_field_values_share_one_cell(self, tmp_path):
        """``chain_enabled=True`` and ``=1`` are one cell: the runner
        dedups them and the dataset keys them alike, so the ``=1`` spec
        alone is served from the row the pair stored."""
        from repro.arch import ARM
        from repro.core import JobSpec, get_benchmark
        from repro.platform import VEXPRESS
        from repro.sim.spec import spec_for

        dataset = Dataset(tmp_path / "ds")
        bench = get_benchmark("System Call")
        specs = [
            JobSpec(bench, spec_for("qemu-dbt", chain_enabled=value), ARM, VEXPRESS, 10)
            for value in (True, 1)
        ]
        with ExperimentRunner(dataset=dataset) as runner:
            runner.run(specs)
            assert (runner.last_stats["unique"], runner.last_stats["executed"]) == (1, 1)
        assert len(dataset.rows()) == 1
        with ExperimentRunner(dataset=dataset) as runner:
            runner.run(specs[1:])
            assert runner.last_stats["executed"] == 0
            assert runner.last_stats["from_dataset"] == 1

    def test_one_probe_per_unique_key_and_one_row_file(self, tmp_path, monkeypatch):
        """The probe sits in the dedup loop: pricing variants and
        repeats cost one ``Dataset.get`` per unique key, and an
        executed cell leaves exactly one entry file."""
        probes = []
        get = Dataset.get

        def counted_get(self, key):
            probes.append(key)
            return get(self, key)

        monkeypatch.setattr(Dataset, "get", counted_get)
        manifest = tiny_manifest(
            engines=[{"sweep": "qemu-versions"}], benchmarks=["system-call"]
        )
        dataset = Dataset(tmp_path / "ds")
        with ExperimentRunner(dataset=dataset) as runner:
            runner.run(manifest.jobs() * 2)
            unique = runner.last_stats["unique"]
        assert len(probes) == len(set(probes)) == unique
        entries = [p for p in (tmp_path / "ds").rglob("*.json") if p.parent.name != "ds"]
        assert len(entries) == unique

    def test_shared_dataset_totals_count_once(self, tmp_path):
        """Runners sharing one Dataset instance count each store event
        once in its session totals, and persist none of them."""
        dataset = Dataset(tmp_path / "ds")
        manifest = tiny_manifest()
        for _ in range(3):
            with ExperimentRunner() as runner:
                run_manifest(manifest, runner, dataset=dataset)
        assert dataset.totals() == {
            "hits": 12, "misses": 6, "stores": 6, "quarantined": 0,
        }
        assert not list((tmp_path / "ds").glob("_totals*"))


class TestFrozenBenchmarkSurface:
    """Exactly what ``perfbench/passes.py`` and ``perfbench/layers.py``
    use, on a two-cell grid over a two-worker pool."""

    def test_resolver_adapter_and_traced_layers(self, tmp_path, monkeypatch):
        calls = {"run": 0, "get": [], "append": []}
        run, get, append = ExperimentRunner.run, Dataset.get, Dataset.append

        def traced_run(self, specs):
            calls["run"] += 1
            return run(self, specs)

        def spied_get(self, key):
            calls["get"].append(key)
            return get(self, key)

        def spied_append(self, row):
            calls["append"].append(row["cell"])
            return append(self, row)

        monkeypatch.setattr(ExperimentRunner, "run", traced_run)
        monkeypatch.setattr(Dataset, "get", spied_get)
        monkeypatch.setattr(Dataset, "append", spied_append)

        manifest = tiny_manifest(
            engines=["simit"], benchmarks=["tlb-flush", "system-call"]
        )
        specs = manifest.jobs()
        cells = sorted(spec.fingerprint() for spec in specs)
        dataset = Dataset(tmp_path / "ds")
        runner = ExperimentRunner(jobs=2)
        resolver = DatasetResolver(runner, dataset, manifest=manifest)
        results = resolver.run(specs)

        assert calls["run"] == 1
        assert sorted(calls["get"]) == cells
        assert sorted(calls["append"]) == cells
        assert [r.ok for r in results] == [True, True]
        stats = resolver.last_stats
        assert (stats["jobs"], stats["unique"]) == (2, 2)
        assert stats["chunks"] >= 1 and stats["payload_bytes"] > 0
        executed = [row for row in resolver.last_jobs if row["source"] == "executed"]
        assert len(executed) == 2
        assert all(row["wall_ns"] > 0 for row in executed)
        assert all(row["queue_wait_ns"] >= 0 for row in executed)
        assert sum(r.total_instructions for r in runner.last_records.values()) > 0
        assert runner._pool is not None
        runner._pool.shutdown(wait=True)
        runner.close()
        totals = dataset.totals()
        assert (totals["misses"], totals["stores"]) == (2, 2)
        assert {row["manifest"] for row in dataset.rows()} == {
            manifest.manifest_id()
        }

        # A second adapter on the same runner: every cell from the
        # dataset, nothing new stored.
        warm = DatasetResolver(runner, dataset, manifest=manifest).run(specs)
        assert table(warm) == table(results)
        assert resolver.last_stats["from_dataset"] == 2
        assert calls["run"] == 2 and sorted(calls["append"]) == cells
        assert dataset.totals()["stores"] == 2

