"""Dataset storage and query-grammar tests."""

import json
import os
import time

import pytest

from repro.arch import ARM
from repro.core.harness import ExecutionRecord, Harness, TimingPolicy
from repro.core.resultcache import schema_tag
from repro.core.runner import ExperimentRunner, JobSpec
from repro.core import get_benchmark
import repro.exp.dataset as dataset_module
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

    def test_make_row_leaves_out_host_wall_time(self, executed):
        spec, record = executed
        assert record.kernel_wall_ns > 0
        row = make_row(spec, record)
        assert "kernel_wall_ns" not in row["record"]
        assert ExecutionRecord.from_payload(row["record"]).kernel_wall_ns == 0

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
        assert dataset.totals()["quarantined"] == 1
        assert dataset.stats()["quarantined"] == 1
        # Counts are per session: a fresh handle starts from zero.
        assert Dataset(tmp_path / "ds").totals()["quarantined"] == 0

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


def aged(dataset, cell_id, seconds=60):
    """Backdate a row file's mtime, as for a row written in an earlier
    run; a row younger than ``_RACY_NS`` is re-read on every probe."""
    stamp = time.time_ns() - seconds * 10**9
    os.utime(dataset._path(cell_id), ns=(stamp, stamp))


def refuse_open(monkeypatch):
    def no_open(*args, **kwargs):
        raise AssertionError("row file opened on a memo hit")

    monkeypatch.setattr(dataset_module, "open", no_open, raising=False)


class TestRowMemo:
    def test_unchanged_row_is_not_reopened(self, executed, tmp_path, monkeypatch):
        dataset = Dataset(tmp_path / "ds")
        row = row_for(executed)
        dataset.append(row)
        aged(dataset, row["cell"])
        first = dataset.get(row["cell"])
        refuse_open(monkeypatch)
        assert dataset.get(row["cell"]) == first
        assert [r["cell"] for r in dataset.rows()] == [row["cell"]]
        assert (dataset.hits, dataset.misses) == (2, 0)

    def test_young_row_is_read_every_time(self, executed, tmp_path, monkeypatch):
        dataset = Dataset(tmp_path / "ds")
        row = row_for(executed)
        dataset.append(row)
        dataset.get(row["cell"])
        refuse_open(monkeypatch)
        with pytest.raises(AssertionError, match="opened"):
            dataset.get(row["cell"])

    def test_young_row_is_decoded_once(self, executed, tmp_path, monkeypatch):
        dataset = Dataset(tmp_path / "ds")
        row = row_for(executed)
        dataset.append(row)
        decodes = []
        loads = json.loads

        def counted_loads(*args, **kwargs):
            decodes.append(1)
            return loads(*args, **kwargs)

        monkeypatch.setattr(dataset_module.json, "loads", counted_loads)
        first = dataset.get(row["cell"])
        for _ in range(4):
            assert dataset.get(row["cell"]) is first
        assert dataset.rows() == [first]
        assert len(decodes) == 1
        assert (dataset.hits, dataset.misses) == (5, 0)

    def test_young_row_rewritten_in_place_is_decoded_again(self, executed, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        row = row_for(executed)
        dataset.append(row)
        path = dataset._path(row["cell"])
        assert dataset.get(row["cell"])["manifest"] == "m" * 64
        # Same inode, same size and, once restored, the same mtime: the
        # stat signature cannot tell this write from the first one.
        st = os.stat(path)
        with open(path, "r+b") as fh:
            data = fh.read().replace(b"m" * 64, b"n" * 64)
            fh.seek(0)
            fh.write(data)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
            st.st_ino,
            st.st_size,
            st.st_mtime_ns,
        )
        assert dataset.get(row["cell"])["manifest"] == "n" * 64
        assert dataset.rows()[0]["manifest"] == "n" * 64

    def test_row_removed_by_another_handle_misses(self, executed, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        row = row_for(executed)
        dataset.append(row)
        aged(dataset, row["cell"])
        assert dataset.get(row["cell"]) is not None
        assert Dataset(tmp_path / "ds").remove(row["cell"]) is True
        assert dataset.get(row["cell"]) is None
        assert dataset.rows() == []
        assert (dataset.hits, dataset.misses) == (1, 1)

    @pytest.mark.parametrize("age", [60, 0])
    def test_row_reappended_after_removal_is_read_fresh(self, executed, tmp_path, age):
        dataset = Dataset(tmp_path / "ds")
        row = row_for(executed)
        dataset.append(row)
        if age:
            aged(dataset, row["cell"], age)
        assert dataset.get(row["cell"])["manifest"] == "m" * 64
        other = Dataset(tmp_path / "ds")
        other.remove(row["cell"])
        # Same length, so the new file can match the old one in size
        # (and, on a reused inode, everything but the mtime).
        assert other.append(dict(row, manifest="n" * 64)) is True
        assert dataset.get(row["cell"])["manifest"] == "n" * 64
        assert dataset.rows()[0]["manifest"] == "n" * 64

    def test_removal_and_clear_through_the_same_handle(self, executed, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        row = row_for(executed)
        dataset.append(row)
        aged(dataset, row["cell"])
        dataset.get(row["cell"])
        dataset.remove(row["cell"])
        assert dataset.get(row["cell"]) is None
        dataset.append(row)
        aged(dataset, row["cell"])
        dataset.get(row["cell"])
        assert dataset.clear() == 1
        assert dataset.get(row["cell"]) is None

    def test_corrupt_entry_is_quarantined_on_its_first_read(self, executed, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        row = row_for(executed)
        dataset.append(row)
        aged(dataset, row["cell"])
        assert dataset.get(row["cell"]) is not None
        path = dataset._path(row["cell"])
        # Another writer forces a torn entry over the memoized row.
        os.unlink(path)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert dataset.get(row["cell"]) is None
        assert (dataset.misses, dataset.quarantined) == (1, 1)
        assert not os.path.exists(path)
        assert dataset.get(row["cell"]) is None
        assert (dataset.misses, dataset.quarantined) == (2, 1)

    def test_counts_match_unmemoized_reads(self, executed, tmp_path):
        dataset = Dataset(tmp_path / "ds")
        first = row_for(executed)
        second = dict(first, cell="f" * 64)
        for row in (first, second):
            dataset.append(row)
            aged(dataset, row["cell"])
        reads = [
            ("get", first["cell"]),
            ("get", first["cell"]),
            ("get", "0" * 64),
            ("rows", None),
            ("get", second["cell"]),
            ("rows", None),
        ]

        def replay(handle_for):
            totals = dict.fromkeys(("hits", "misses", "stores", "quarantined"), 0)
            out = []
            for op, key in reads:
                handle = handle_for()
                out.append(handle.get(key) if op == "get" else handle.rows())
                for name, value in handle.totals().items():
                    totals[name] += value
            return out, totals

        memoized = Dataset(tmp_path / "ds")
        with_memo = replay(lambda: memoized)
        memoized_totals = memoized.totals()
        fresh = replay(lambda: Dataset(tmp_path / "ds"))
        assert with_memo[0] == fresh[0]
        assert memoized_totals == fresh[1]
        assert memoized_totals["hits"] == 3 and memoized_totals["misses"] == 1

    def test_runner_and_record_leave_memoized_rows_untouched(self, tmp_path):
        """``get``/``rows`` hand out the memoized row itself; no caller
        in the program mutates it, and :meth:`Dataset.record` copies."""
        specs = [
            JobSpec("System Call", "simit", ARM, VEXPRESS, iterations=4),
            JobSpec("TLB Flush", "qemu-dbt", ARM, VEXPRESS, iterations=4),
        ]
        with ExperimentRunner(dataset=Dataset(tmp_path / "ds")) as runner:
            runner.run(specs)
        dataset = Dataset(tmp_path / "ds")
        for spec in specs:
            aged(dataset, spec.fingerprint())
        with ExperimentRunner(dataset=dataset) as runner:
            for _ in range(2):
                for result in runner.run(specs):
                    result.kernel_delta["instructions"] = -1
                for record in runner.last_records.values():
                    record.kernel_delta["loads"] = -1
        record = dataset.record(specs[0].fingerprint())
        record.kernel_delta.clear()
        assert dataset.hits == 5
        for row in dataset.rows():
            with open(dataset._path(row["cell"])) as fh:
                assert row == json.load(fh)


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
