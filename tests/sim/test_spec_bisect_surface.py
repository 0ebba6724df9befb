"""Spec-layer surface for bisection: field diffs, ablation pairs, and
the sweep's ordered version axis."""

import pytest

from repro.analysis.sweep import version_axis
from repro.sim.dbt.versions import QEMU_VERSIONS, dbt_spec_for_version
from repro.sim.spec import DBTSpec, InterpSpec, SPEC_CLASSES


class TestDiff:
    def test_equal_specs_have_empty_diff(self):
        assert DBTSpec().diff(DBTSpec()) == {}

    def test_diff_reports_both_sides_per_field(self):
        mine = DBTSpec(tlb_bits=7, chain_enabled=False)
        theirs = DBTSpec()
        assert mine.diff(theirs) == {
            "tlb_bits": (7, 8),
            "chain_enabled": (False, True),
        }

    def test_cross_engine_diff_raises(self):
        with pytest.raises(ValueError, match="different engines"):
            DBTSpec().diff(InterpSpec())


class TestBisectableFields:
    def test_ablation_pairs_are_structural_and_valid(self):
        for name, spec_class in SPEC_CLASSES.items():
            structural = {f.name for f in spec_class.structural_fields()}
            default = spec_class()
            for field, (low, high) in spec_class.bisectable_fields().items():
                assert field in structural, (name, field)
                assert low != high
                # Both settings must construct valid specs.
                default.replace(**{field: low})
                default.replace(**{field: high})

    def test_dbt_declares_the_headline_fields(self):
        fields = DBTSpec.bisectable_fields()
        assert fields["tlb_bits"] == (7, 8)  # the v2.0.0 step
        assert "chain_enabled" in fields
        assert "max_block_insns" in fields


class TestVersionAxis:
    def test_axis_is_ordered_and_complete(self):
        axis = version_axis("arm")
        assert tuple(v for v, _spec in axis) == QEMU_VERSIONS
        assert all(spec.engine == "qemu-dbt" for _v, spec in axis)

    def test_v2_boundary_changes_tlb_geometry(self):
        specs = dict(version_axis("arm"))
        diff = specs["v1.7.2"].diff(specs["v2.0.0"])
        assert diff["tlb_bits"] == (7, 8)

    def test_repeated_calls_share_one_axis(self):
        axis = version_axis("arm")
        assert version_axis("arm", QEMU_VERSIONS) is axis
        assert version_axis("arm", list(QEMU_VERSIONS)) == axis
        fresh = tuple(
            (version, dbt_spec_for_version(version, "arm"))
            for version in QEMU_VERSIONS
        )
        assert axis == fresh
        assert version_axis("x86") != axis
        assert version_axis("arm", QEMU_VERSIONS[:2]) == axis[:2]
