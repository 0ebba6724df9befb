"""Cost model and version-timeline tests."""

import pytest

from repro.sim.base import CostModel, Counters
from repro.sim.costs import (
    DBT_BASE_COSTS,
    dbt_cost_model,
    detailed_cost_model,
    interp_cost_model,
    native_cost_model,
    virt_cost_model,
)
from repro.sim.dbt.versions import (
    BASELINE_VERSION,
    CHANGELOG,
    QEMU_VERSIONS,
    dbt_spec_for_version,
)
from repro.sim.spec import DBTSpec


class TestCostModel:
    def test_linear_evaluation(self):
        model = CostModel({"instructions": 2.0, "loads": 10.0})
        assert model.evaluate({"instructions": 5, "loads": 3}) == 40.0

    def test_missing_counters_cost_zero(self):
        model = CostModel({"instructions": 2.0})
        assert model.evaluate({"loads": 100}) == 0.0

    def test_unknown_counter_rejected(self):
        with pytest.raises(ValueError):
            CostModel({"bogus_counter": 1.0})

    def test_scaled(self):
        model = CostModel({"instructions": 2.0, "loads": 10.0})
        scaled = model.scaled({"loads": 3.0})
        assert scaled.costs["loads"] == 30.0
        assert scaled.costs["instructions"] == 2.0
        assert model.costs["loads"] == 10.0  # original untouched

    def test_with_overrides(self):
        model = CostModel({"instructions": 2.0})
        new = model.with_overrides({"instructions": 5.0, "loads": 1.0})
        assert new.costs == {"instructions": 5.0, "loads": 1.0}


class TestCounters:
    def test_snapshot_delta(self):
        counters = Counters()
        before = counters.snapshot()
        counters.instructions += 10
        counters.loads += 2
        delta = Counters.delta(before, counters.snapshot())
        assert delta["instructions"] == 10
        assert delta["loads"] == 2
        assert delta["stores"] == 0

    def test_derived_views(self):
        counters = Counters()
        counters.branches_direct_intra = 1
        counters.branches_indirect_inter = 2
        assert counters.taken_branches == 3
        counters.syscalls = 4
        counters.undefs = 1
        assert counters.exceptions == 5

    def test_reset(self):
        counters = Counters()
        counters.instructions = 5
        counters.reset()
        assert counters.instructions == 0


class TestEngineTables:
    def test_all_tables_construct(self):
        for model in (
            interp_cost_model(),
            detailed_cost_model(),
            dbt_cost_model(),
            virt_cost_model("arm"),
            virt_cost_model("x86"),
            native_cost_model("arm"),
            native_cost_model("x86"),
        ):
            assert model.evaluate({"instructions": 1}) >= 0

    def test_per_insn_ordering(self):
        """The engines' per-instruction base cost ordering matches the
        paper: native < kvm < dbt-generated-code < interpreter < gem5."""
        per_insn = {
            "native": native_cost_model("arm").costs["instructions"],
            "kvm": virt_cost_model("arm").costs["instructions"],
            "dbt": dbt_cost_model().costs["instructions"],
            "interp": interp_cost_model().costs["instructions"],
            "gem5": detailed_cost_model().costs["instructions"],
        }
        assert (
            per_insn["native"]
            < per_insn["kvm"]
            < per_insn["dbt"]
            < per_insn["interp"]
            < per_insn["gem5"]
        )

    def test_dbt_overrides_applied(self):
        model = dbt_cost_model({"translations": 1.0})
        assert model.costs["translations"] == 1.0
        assert model.costs["instructions"] == DBT_BASE_COSTS["instructions"]


class TestVersionTimeline:
    def test_twenty_versions(self):
        assert len(QEMU_VERSIONS) == 20
        assert QEMU_VERSIONS[0] == BASELINE_VERSION == "v1.7.0"
        assert QEMU_VERSIONS[-1] == "v2.5.0-rc2"

    def test_every_version_has_a_spec(self):
        for version in QEMU_VERSIONS:
            spec = dbt_spec_for_version(version)
            assert spec.version == version

    def test_unknown_version_rejected(self):
        with pytest.raises(KeyError):
            dbt_spec_for_version("v9.9.9")

    def test_baseline_is_identity(self):
        spec = dbt_spec_for_version(BASELINE_VERSION)
        for counter, cost in spec.cost_overrides.items():
            assert cost == pytest.approx(DBT_BASE_COSTS[counter])

    def test_v2_0_0_improves_codegen_and_exec(self):
        spec = dbt_spec_for_version("v2.0.0")
        assert spec.cost_overrides["translations"] < DBT_BASE_COSTS["translations"]
        assert spec.cost_overrides["instructions"] < DBT_BASE_COSTS["instructions"]

    def test_v1_series_has_smaller_tlb(self):
        assert dbt_spec_for_version("v1.7.0").tlb_bits < dbt_spec_for_version("v2.0.0").tlb_bits

    def test_data_fault_fast_path_is_arch_dependent(self):
        arm = dbt_spec_for_version("v2.5.0-rc0", "arm")
        x86 = dbt_spec_for_version("v2.5.0-rc0", "x86")
        assert arm.cost_overrides["data_aborts"] < x86.cost_overrides["data_aborts"]
        # ~8x on ARM, ~4x on x86, vs the baseline cost.
        assert DBT_BASE_COSTS["data_aborts"] / arm.cost_overrides["data_aborts"] == pytest.approx(8.0)
        assert DBT_BASE_COSTS["data_aborts"] / x86.cost_overrides["data_aborts"] == pytest.approx(4.0)

    def test_control_flow_declines_monotonically_after_2_1(self):
        dispatch = [
            dbt_spec_for_version(v).cost_overrides["slow_dispatches"]
            for v in QEMU_VERSIONS
        ]
        tail = dispatch[6:]  # from v2.1.0 on
        assert all(a <= b for a, b in zip(tail, tail[1:]))

    def test_tlb_maintenance_improves(self):
        flushes = [
            dbt_spec_for_version(v).cost_overrides["tlb_flushes"]
            for v in QEMU_VERSIONS
        ]
        assert flushes[-1] < 0.5 * flushes[0]

    def test_changelog_mentions_key_versions(self):
        assert "v2.0.0" in CHANGELOG
        assert "v2.5.0-rc0" in CHANGELOG


class TestDBTSpec:
    def test_replace(self):
        spec = DBTSpec(tlb_bits=8)
        other = spec.replace(tlb_bits=4)
        assert other.tlb_bits == 4
        assert spec.tlb_bits == 8

    def test_validation(self):
        with pytest.raises(ValueError, match="max_block_insns"):
            DBTSpec(max_block_insns=0)
        with pytest.raises(ValueError, match="tlb_bits"):
            DBTSpec(tlb_bits=1)
        with pytest.raises(ValueError, match="tlb_bits"):
            DBTSpec().replace(tlb_bits=17)
        assert DBTSpec(tlb_bits=2).tlb_bits == 2
        assert DBTSpec(tlb_bits=16).tlb_bits == 16
