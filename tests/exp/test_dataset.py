"""Dataset storage and query-grammar tests."""

import json
import os

import pytest

from repro.arch import ARM
from repro.core.harness import Harness, TimingPolicy
from repro.core.resultcache import schema_tag
from repro.core.runner import ExperimentRunner, JobSpec
from repro.core import get_benchmark
from repro.exp.dataset import DATASET_SCHEMA, Dataset, make_row
from repro.exp.provenance import capture
from repro.exp.query import QueryError, parse_query
from repro.platform import VEXPRESS
from repro.sim.spec import spec_for


@pytest.fixture(scope="module")
def executed():
    """One real (spec, record) pair to build rows from."""
    harness = Harness(timing=TimingPolicy.MODELED)
    spec = JobSpec(
        get_benchmark("TLB Flush"), spec_for("simit"), ARM, VEXPRESS, iterations=8
    )
    record = harness.execute_benchmark(
        spec.benchmark, spec.engine_spec, spec.arch, spec.platform, iterations=8
    )
    assert record.status == "ok"
    return spec, record


def row_for(executed, **overrides):
    spec, record = executed
    row = make_row(
        spec,
        record,
        provenance=capture(seed=1, manifest="m" * 64),
        manifest="m" * 64,
    )
    row.update(overrides)
    return row


class TestRows:
    def test_make_row_shape(self, executed):
        spec, record = executed
        row = make_row(spec, record)
        assert row["schema"] == DATASET_SCHEMA
        assert row["cell"] == spec.fingerprint()
        assert row["benchmark"] == "TLB Flush"
        assert row["bench_slug"] == "tlb-flush"
        assert row["engine"] == "simit"
        assert row["engine_fields"] == {}
        assert row["record"]["status"] == "ok"

    def test_provenance_stamp(self, executed):
        row = row_for(executed)
        stamp = row["provenance"]
        assert stamp["seed"] == 1
        assert stamp["spec_schema"]
        assert "python" in stamp["host"]


class TestDataset:
    def test_append_only(self, executed, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        row = row_for(executed)
        assert dataset.append(row) is True
        mutated = dict(row, iterations=999)
        assert dataset.append(mutated) is False
        assert dataset.rows()[0]["iterations"] == 8  # first write wins

    def test_contains_and_remove(self, executed, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        row = row_for(executed)
        dataset.append(row)
        assert dataset.contains(row["cell"])
        assert dataset.remove(row["cell"]) is True
        assert not dataset.contains(row["cell"])
        assert dataset.remove(row["cell"]) is False

    def test_corrupt_row_quarantined_on_scan(self, executed, tmp_path):
        """Corrupt entries are skipped, unlinked and counted -- never
        fatal, never silently ignored."""
        dataset = Dataset(tmp_path / "ds")
        dataset.append(row_for(executed))
        bad = tmp_path / "ds" / "ab" / ("ab" + "0" * 62 + ".json")
        os.makedirs(bad.parent, exist_ok=True)
        bad.write_text("{not json")
        missing = tmp_path / "ds" / "cd" / ("cd" + "0" * 62 + ".json")
        os.makedirs(missing.parent, exist_ok=True)
        missing.write_text(json.dumps({"schema": 1}))  # missing required keys
        rows = dataset.rows()
        assert len(rows) == 1
        assert dataset.quarantined == 2
        assert not bad.exists() and not missing.exists()
        assert dataset.stats()["entries"] == 1

    def test_quarantine_counts_surface_in_totals(self, executed, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        dataset.append(row_for(executed))
        bad = tmp_path / "ds" / "ab" / ("ab" + "0" * 62 + ".json")
        os.makedirs(bad.parent, exist_ok=True)
        bad.write_text("{not json")
        dataset.rows()
        dataset.fold_totals()
        fresh = Dataset(tmp_path / "ds")
        assert fresh.stats()["totals"]["quarantined"] == 1

    def test_foreign_entries_are_quarantined_and_reexecuted(self, tmp_path):
        """A row of another schema and a leftover result-cache entry
        (``{"schema", "record", "meta"}``) are never read as hits: each
        probe counts one miss and one quarantine, and the cell
        re-executes and is appended afresh."""
        specs = [
            JobSpec("System Call", "simit", ARM, VEXPRESS, iterations=4),
            JobSpec("TLB Flush", "simit", ARM, VEXPRESS, iterations=4),
        ]
        seeded = Dataset(tmp_path / "ds")
        with ExperimentRunner(dataset=seeded) as runner:
            runner.run(specs)
        stale, leftover = (spec.fingerprint() for spec in specs)
        old_row = dict(seeded.get(stale), schema=0)
        seeded.put(stale, old_row)
        seeded.put(
            leftover,
            {
                "schema": schema_tag(),
                "record": seeded.get(leftover)["record"],
                "meta": {"benchmark": "TLB Flush", "simulator": "simit"},
            },
        )

        dataset = Dataset(tmp_path / "ds")
        with ExperimentRunner(dataset=dataset) as runner:
            runner.run(specs)
            stats = runner.last_stats
        assert (dataset.hits, dataset.misses, dataset.quarantined) == (0, 2, 2)
        assert (stats["executed"], stats["dataset_appended"]) == (2, 2)
        assert [row["schema"] for row in dataset.rows()] == [DATASET_SCHEMA] * 2

    def test_rows_sorted_by_cell(self, executed, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        first = row_for(executed)
        second = dict(first, cell="f" * 64)
        third = dict(first, cell="0" * 64)
        for row in (first, second, third):
            dataset.append(row)
        cells = [row["cell"] for row in dataset.rows()]
        assert cells == sorted(cells)


class TestQuery:
    def rows(self, executed):
        base = row_for(executed)
        other = dict(
            base,
            cell="9" * 64,
            benchmark="System Call",
            bench_slug="system-call",
            engine="qemu-dbt",
            engine_fields={"tlb_bits": 7},
            iterations=100,
            status="unsupported",
        )
        return [base, other]

    def match(self, executed, text):
        query = parse_query(text)
        return [row["engine"] for row in self.rows(executed) if query.match(row)]

    def test_empty_matches_all(self, executed):
        assert len(self.match(executed, "")) == 2

    def test_equality_and_glob(self, executed):
        assert self.match(executed, "engine=simit") == ["simit"]
        assert self.match(executed, "bench=tlb-*") == ["simit"]
        assert self.match(executed, "bench=SYSTEM*") == ["qemu-dbt"]

    def test_name_and_slug_both_match(self, executed):
        assert self.match(executed, "bench=tlb-flush") == ["simit"]
        assert self.match(executed, "'bench=TLB Flush'") == ["simit"]

    def test_conjunction(self, executed):
        assert self.match(executed, "engine=* status=ok") == ["simit"]

    def test_negation(self, executed):
        assert self.match(executed, "engine!=simit") == ["qemu-dbt"]

    def test_numeric_comparison(self, executed):
        assert self.match(executed, "iterations>=100") == ["qemu-dbt"]
        assert self.match(executed, "iterations<100") == ["simit"]

    def test_fields_reach_engine_delta(self, executed):
        assert self.match(executed, "fields.tlb_bits=7") == ["qemu-dbt"]
        assert self.match(executed, "fields.tlb_bits=none") == ["simit"]

    def test_prefix_match_on_ids(self, executed):
        rows = self.rows(executed)
        short = rows[0]["cell"][:12]
        query = parse_query("cell=%s" % short)
        assert [row["engine"] for row in rows if query.match(row)] == ["simit"]

    def test_manifest_and_seed_from_provenance(self, executed):
        assert len(self.match(executed, "manifest=mmm")) == 2
        assert len(self.match(executed, "seed=1")) == 2

    def test_unknown_key_is_parse_error(self, executed):
        with pytest.raises(QueryError, match="unknown query key"):
            parse_query("bogus=1")

    def test_malformed_term_is_parse_error(self):
        with pytest.raises(QueryError, match="malformed term"):
            parse_query("enginesimit")

    def test_numeric_op_requires_number(self):
        with pytest.raises(QueryError, match="numeric"):
            parse_query("iterations>=lots")

    def test_two_char_ops_win(self, executed):
        assert self.match(executed, "iterations>=8") == ["simit", "qemu-dbt"]
