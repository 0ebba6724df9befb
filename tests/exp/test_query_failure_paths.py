"""Regression tests: numeric query terms over messy datasets.

A dataset accumulated across real runs mixes ok rows with rows whose
fields hold strings, nulls, or out-of-float-range ints.  A numeric
comparison against such a row must *skip* it (no match), never raise
and kill the whole query.
"""

import pytest

from repro.core.harness import Harness, TimingPolicy
from repro.core.runner import ExperimentRunner
from repro.exp import Dataset, parse_query
from repro.exp.query import QueryError


def _seed_dataset(tmp_path):
    """A small real dataset plus hand-planted pathological rows."""
    dataset = Dataset(tmp_path / "ds")
    from repro.core.runner import JobSpec, resolve_benchmark
    from repro.arch import ARM
    from repro.platform import VEXPRESS
    from repro.sim.spec import spec_for

    with ExperimentRunner(
        harness=Harness(timing=TimingPolicy.MODELED), dataset=dataset
    ) as runner:
        runner.run(
            [
                JobSpec(
                    resolve_benchmark("System Call"),
                    spec_for("qemu-dbt"),
                    ARM,
                    VEXPRESS,
                    iterations=4,
                )
            ]
        )
    ok_row = dataset.rows()[0]

    # A crashed row (the append path never stores failures, so plant it
    # directly, as a salvage/import tool would).
    crashed = dict(ok_row)
    crashed["cell"] = "deadbeef" * 8
    crashed["status"] = "crashed"
    crashed["iterations"] = "not-a-number"
    crashed["record"] = None
    dataset.put(crashed["cell"], crashed)

    # A row whose engine field holds an int too large for float().
    huge = dict(ok_row)
    huge["cell"] = "feedface" * 8
    huge["engine_fields"] = {"tcache_capacity": 10**400}
    dataset.put(huge["cell"], huge)
    return dataset


class TestNumericTermsOverMixedRows:
    def test_numeric_comparison_skips_non_numeric_cells(self, tmp_path):
        dataset = _seed_dataset(tmp_path)
        # The crashed row's iterations is a string: it must simply not
        # match, while the ok rows still do.
        rows = dataset.rows(parse_query("iterations>=1"))
        assert len(rows) == 2
        assert all(row["status"] == "ok" for row in rows)

    def test_overflowing_int_field_skips_not_raises(self, tmp_path):
        dataset = _seed_dataset(tmp_path)
        # 10**400 overflows float(); the row is skipped, not fatal.
        rows = dataset.rows(parse_query("fields.tcache_capacity<99999"))
        assert rows == []
        # And the rest of a conjunction still works alongside it.
        rows = dataset.rows(parse_query("status=ok iterations<100"))
        assert len(rows) == 2

    def test_numeric_comparison_against_status_strings(self, tmp_path):
        dataset = _seed_dataset(tmp_path)
        # status holds strings in every row; a numeric op over it must
        # return no matches rather than ValueError.
        assert dataset.rows(parse_query("status>=1")) == []

    def test_string_queries_still_find_the_crashed_row(self, tmp_path):
        dataset = _seed_dataset(tmp_path)
        rows = dataset.rows(parse_query("status=crashed"))
        assert len(rows) == 1
        assert rows[0]["iterations"] == "not-a-number"

    def test_non_numeric_rhs_still_rejected_at_parse_time(self):
        with pytest.raises(QueryError):
            parse_query("iterations>=fast")
