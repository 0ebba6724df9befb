"""EngineSpec layer tests.

The contracts under test:

- payload round-trips are identities for every registered engine;
- structural and pricing fields are kept apart: pricing never leaks
  into structural or cache keys, but always survives serialization;
- object-valued options are rejected loudly instead of silently
  splitting keys on their repr;
- the registry is the single source of truth: simulator classes, cost
  models and arch column layouts all agree with it, and unknown-engine
  errors are worded identically at every entry point.
"""

import pickle

import pytest

from repro.arch import ARM, X86
from repro.errors import IncompatibleEngineError
from repro.machine import Board
from repro.platform import PCPLAT, VEXPRESS
from repro.sim import SIMULATOR_CLASSES
from repro.sim.dbt.versions import dbt_spec_for_version
from repro.sim.spec import (
    DBTSpec,
    DetailedSpec,
    EngineSpec,
    InterpSpec,
    NativeSpec,
    SPEC_CLASSES,
    VirtSpec,
    as_engine_spec,
    engines_for_arch,
    spec_class_for,
    spec_for,
)

ALL_ENGINES = sorted(SPEC_CLASSES)


class TestRegistry:
    def test_simulator_classes_derive_from_specs(self):
        assert set(SIMULATOR_CLASSES) == set(SPEC_CLASSES)
        for name, spec_class in SPEC_CLASSES.items():
            assert SIMULATOR_CLASSES[name] is spec_class.simulator_class
            assert spec_class.engine == name

    def test_registry_order_is_figure_column_order(self):
        assert tuple(SPEC_CLASSES) == (
            DBTSpec.engine,
            InterpSpec.engine,
            DetailedSpec.engine,
            VirtSpec.engine,
            NativeSpec.engine,
        )

    def test_engines_for_arch(self):
        assert engines_for_arch("arm") == tuple(SPEC_CLASSES)
        x86 = engines_for_arch(X86)
        assert InterpSpec.engine not in x86
        assert DetailedSpec.engine not in x86
        assert DBTSpec.engine in x86 and NativeSpec.engine in x86

    def test_unknown_engine_error_worded_identically(self):
        board = Board(VEXPRESS)
        messages = set()
        with pytest.raises(KeyError) as build_err:
            spec_for("bogus").build(board, ARM)
        messages.add(str(build_err.value))
        with pytest.raises(KeyError) as cost_err:
            as_engine_spec("bogus").cost_model(ARM)
        messages.add(str(cost_err.value))
        with pytest.raises(KeyError) as spec_err:
            spec_class_for("bogus")
        messages.add(str(spec_err.value))
        assert len(messages) == 1
        assert "unknown simulator 'bogus'" in messages.pop()


class TestPayloadRoundTrip:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_default_spec_round_trips_identically(self, engine):
        spec = spec_for(engine)
        clone = EngineSpec.from_payload(spec.to_payload())
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone.to_payload() == spec.to_payload()
        assert clone.structural_key() == spec.structural_key()
        assert clone.cache_key_payload() == spec.cache_key_payload()

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_delta_payload_rebuild_preserves_structural_key(self, engine):
        """The manifest transport contract: delta_payload -> rebuild via
        from_delta_payload is a structural identity for every registry
        engine, so manifest-declared engines hash to the same cells as
        programmatically built ones."""
        spec = spec_for(engine)
        clone = EngineSpec.from_delta_payload(spec.delta_payload())
        assert clone == spec
        assert clone.structural_key() == spec.structural_key()
        assert clone.cache_key_payload() == spec.cache_key_payload()

    def test_delta_payload_rebuild_with_non_default_fields(self):
        for spec in (
            dbt_spec_for_version("v2.5.0-rc2", "arm"),
            DBTSpec(tlb_bits=7, chain_enabled=False),
            InterpSpec(tlb_capacity=16),
        ):
            clone = EngineSpec.from_delta_payload(spec.delta_payload())
            assert clone == spec
            assert clone.structural_key() == spec.structural_key()

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize("arch", [ARM, X86], ids=["arm", "x86"])
    def test_cost_model_under_both_arch_profiles(self, engine, arch):
        spec = EngineSpec.from_payload(spec_for(engine).to_payload())
        model = spec.cost_model(arch)
        assert model.evaluate({"instructions": 100}) >= 0

    def test_non_default_dbt_spec_round_trips(self):
        spec = DBTSpec(
            tlb_bits=7,
            chain_enabled=False,
            cost_overrides={"translations": 9000.0},
            version="v1.7.0",
        )
        clone = EngineSpec.from_payload(spec.to_payload())
        assert clone == spec
        assert clone.cost_overrides == {"translations": 9000.0}
        assert clone.version == "v1.7.0"

    def test_version_spec_round_trips(self):
        spec = dbt_spec_for_version("v2.4.1", "arm")
        clone = EngineSpec.from_payload(spec.to_payload())
        assert clone == spec
        assert clone.cost_overrides == spec.cost_overrides
        assert clone.version == "v2.4.1"


class TestStructuralVsPricing:
    def test_cost_overrides_absent_from_structural_identity(self):
        cheap = DBTSpec()
        priced = DBTSpec(cost_overrides={"translations": 1.0}, version="vX")
        assert cheap.structural_key() == priced.structural_key()
        assert cheap.cache_key_payload() == priced.cache_key_payload()
        assert cheap != priced  # full identity still distinguishes them

    def test_structural_fields_change_the_key(self):
        assert DBTSpec(tlb_bits=7).structural_key() != DBTSpec().structural_key()
        assert (
            InterpSpec(tlb_capacity=128).structural_key()
            != InterpSpec().structural_key()
        )

    def test_separately_built_specs_are_equal(self):
        a = DBTSpec(tlb_bits=7)
        b = DBTSpec(tlb_bits=7)
        assert a == b
        assert hash(a) == hash(b)
        assert a.structural_key() == b.structural_key()

    def test_replace_revalidates(self):
        spec = InterpSpec().replace(tlb_capacity=256)
        assert spec.tlb_capacity == 256
        with pytest.raises(ValueError):
            DetailedSpec().replace(mode="cycle-exact")


class TestImmutability:
    @pytest.mark.parametrize("engine", list(SPEC_CLASSES))
    def test_assignment_after_init_raises(self, engine):
        spec = spec_for(engine)
        name = type(spec).fields[0].name
        with pytest.raises(AttributeError, match="immutable"):
            setattr(spec, name, getattr(spec, name))
        with pytest.raises(AttributeError, match="immutable"):
            spec.anything_new = 1
        with pytest.raises(AttributeError, match="immutable"):
            del spec.engine

    def test_structural_key_is_computed_once(self):
        spec = DBTSpec(tlb_bits=7)
        assert spec.structural_key() is spec.structural_key()
        assert spec.structural_key() == DBTSpec(tlb_bits=7).structural_key()

    def test_cost_model_is_built_once_per_arch(self):
        spec = VirtSpec()
        assert spec.cost_model(ARM) is spec.cost_model("arm")
        assert spec.cost_model(X86) is not spec.cost_model(ARM)
        assert spec.cost_model(X86).costs == VirtSpec().cost_model(X86).costs

    def test_pickled_spec_keeps_its_values(self):
        spec = DBTSpec(tlb_bits=7, cost_overrides={"translations": 1.0})
        spec.cost_model(ARM)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.structural_key() == spec.structural_key()
        assert clone.cost_model(ARM).costs == spec.cost_model(ARM).costs


class TestValidation:
    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown engine option"):
            spec_for("simit", bogus=1)

    def test_object_valued_option_rejected(self):
        class Shape:
            pass

        with pytest.raises(ValueError, match="tlb_capacity"):
            InterpSpec(tlb_capacity=Shape())

    def test_object_inside_dict_rejected(self):
        with pytest.raises(ValueError, match="cost_overrides"):
            DBTSpec(cost_overrides={"translations": object()})

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(ValueError, match="keys must be strings"):
            DBTSpec(cost_overrides={1: 2.0})

    def test_detailed_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            DetailedSpec(mode="warp")


class TestAsEngineSpec:
    def test_spec_passthrough(self):
        spec = InterpSpec()
        assert as_engine_spec(spec) is spec

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_registry_name_is_the_default_spec(self, engine):
        assert as_engine_spec(engine) == spec_for(engine)


class TestBuildAndCapabilities:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_build_constructs_the_registered_class(self, engine):
        spec = spec_for(engine)
        platform = VEXPRESS if "arm" in spec.evaluated_archs else PCPLAT
        sim = spec.build(Board(platform), ARM)
        assert isinstance(sim, SIMULATOR_CLASSES[engine])

    def test_build_applies_structural_fields(self):
        sim = InterpSpec(tlb_capacity=16).build(Board(VEXPRESS), ARM)
        assert sim._dtlb.capacity == 16
        dbt = DBTSpec(tlb_bits=6).build(Board(VEXPRESS), ARM)
        assert dbt.spec.tlb_bits == 6

    def test_capability_flags_follow_execution_model(self):
        # The whole functional-core family is per-instruction traceable;
        # only the DBT engine executes at block granularity.
        assert InterpSpec().supports_insn_trace
        assert not InterpSpec().supports_block_trace
        assert VirtSpec().supports_insn_trace
        assert DBTSpec().supports_block_trace
        assert not DBTSpec().supports_insn_trace

    def test_describe_is_registry_driven(self):
        info = DBTSpec().describe()
        assert info["engine"] == DBTSpec.engine
        assert info["class"] == "DBTSimulator"
        assert "cost_overrides" in info["pricing"]
        assert "cost_overrides" not in info["structural"]


class TestIncompatibleEngineError:
    def test_is_a_type_error_for_legacy_callers(self):
        error = IncompatibleEngineError("Tracer", "qemu-dbt", hint="why")
        assert isinstance(error, TypeError)
        assert "Tracer cannot attach to engine 'qemu-dbt'" in str(error)
        assert "why" in str(error)

    def test_pickles_by_reduce(self):
        import pickle

        error = pickle.loads(
            pickle.dumps(IncompatibleEngineError("Debugger", "native"))
        )
        assert error.tool == "Debugger"
        assert error.engine == "native"
