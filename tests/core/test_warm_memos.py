"""Exactness of the values the warm path computes once per process.

Cell fingerprints are memoized, registry-default engine specs are
shared and cost models evaluate a flattened, read-only term list.  Each
must give exactly what the unmemoized computation gives: the dataset
keys rows by the fingerprint, and figures compare modeled times bit for
bit.
"""

import json
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.resultcache as resultcache
from repro.arch import ARM, X86
from repro.core.resultcache import job_fingerprint
from repro.core.runner import JobSpec
from repro.core.suite import SUITE
from repro.exp import Dataset, resolve_manifest
from repro.platform import PCPLAT, VEXPRESS
from repro.sim.base import COUNTER_NAMES, CostModel
from repro.sim.dbt.versions import QEMU_VERSIONS, dbt_spec_for_version
from repro.sim.spec import as_engine_spec, engines_for_arch, spec_for

HERE = os.path.dirname(os.path.abspath(__file__))


def reference_evaluate(model, delta):
    """The cost-model sum before flattening: every entry of ``costs``,
    in table order, zero-cost entries included."""
    total = 0.0
    for counter, cost in model.costs.items():
        count = delta.get(counter, 0)
        if count:
            total += count * cost
    return total


def figure_cost_models():
    """Every cost model figures 2, 6, 7 and 8 price with."""
    models = []
    for arch in (ARM, X86):
        for version in QEMU_VERSIONS:
            models.append(dbt_spec_for_version(version, arch.name).cost_model(arch))
        for engine in engines_for_arch(arch):
            models.append(as_engine_spec(engine).cost_model(arch))
    return models


MODELS = figure_cost_models()


def same_float(a, b):
    """Bit-for-bit equality (``==`` alone would let ``0.0 == -0.0``)."""
    return a == b and repr(a) == repr(b)


@pytest.fixture(scope="module")
def stored_deltas(tmp_path_factory):
    """Kernel deltas read back from real dataset rows (every engine on
    both arches), plus the recorded qemu-dbt counter snapshots."""
    from repro.core.runner import ExperimentRunner

    dataset = Dataset(tmp_path_factory.mktemp("ds"))
    specs = [
        JobSpec(benchmark, engine, arch, platform, iterations=4)
        for arch, platform in ((ARM, VEXPRESS), (X86, PCPLAT))
        for engine in engines_for_arch(arch)
        for benchmark in SUITE[:4]
    ]
    with ExperimentRunner(dataset=dataset) as runner:
        runner.run(specs)
    deltas = [
        row["record"]["kernel_delta"] for row in dataset.rows() if row["status"] == "ok"
    ]
    assert deltas
    with open(os.path.join(HERE, "..", "sim", "dbt_counters.json")) as fh:
        recorded = json.load(fh)["benchmarks"]
    deltas.extend(entry["counters"] for entry in recorded.values())
    return deltas


class TestFlattenedCostModels:
    def test_models_cover_every_figure_engine(self):
        # 20 versions x 2 arches plus 5 ARM and 3 x86 registry defaults.
        assert len(MODELS) == 2 * len(QEMU_VERSIONS) + 8

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(COUNTER_NAMES),
            st.one_of(st.just(0), st.integers(-(10**9), 10**12)),
        )
    )
    def test_random_deltas_match_reference(self, delta):
        for model in MODELS:
            assert same_float(model.evaluate(delta), reference_evaluate(model, delta))

    def test_stored_deltas_match_reference(self, stored_deltas):
        for model in MODELS:
            for delta in stored_deltas:
                assert same_float(
                    model.evaluate(delta), reference_evaluate(model, delta)
                )

    def test_zero_cost_terms_are_dropped_exactly(self):
        model = CostModel({"loads": 0.0, "instructions": 3.0, "stores": -0.0})
        delta = {"loads": 7, "instructions": 5, "stores": -2}
        assert same_float(model.evaluate(delta), reference_evaluate(model, delta))
        assert same_float(CostModel({"loads": 0.0}).evaluate({"loads": -3}), 0.0)

    def test_costs_are_read_only(self):
        model = spec_for("qemu-dbt").cost_model(ARM)
        with pytest.raises(TypeError):
            model.costs["loads"] = 1.0
        with pytest.raises(AttributeError):
            model.costs = {}

    def test_pickle_round_trip(self):
        for model in MODELS:
            clone = pickle.loads(pickle.dumps(model))
            assert clone.name == model.name
            assert clone.costs == model.costs
            delta = {name: index + 1 for index, name in enumerate(COUNTER_NAMES)}
            assert same_float(clone.evaluate(delta), model.evaluate(delta))


def manifest_jobs():
    names = ("figure2", "figure6", "figure7", "figure8", "smoke")
    return [job for name in names for job in resolve_manifest(name).jobs()]


def fresh_fingerprint(job):
    return job_fingerprint(
        job.benchmark,
        job.engine_spec.engine,
        job.arch,
        job.platform,
        job.iterations,
        job.engine_spec.cache_key_payload(),
    )


class TestFingerprintMemo:
    def test_bundled_manifest_cells_match_fresh_fingerprints(self):
        jobs = manifest_jobs()
        assert len(jobs) > 500
        for job in jobs:
            first = job.fingerprint()
            assert job.fingerprint() == first == fresh_fingerprint(job)

    def test_values_that_compare_equal_keep_their_own_fingerprints(self):
        bench = SUITE[0]
        jobs = [
            JobSpec(bench, spec_for("qemu-dbt", chain_enabled=value), ARM, VEXPRESS, 10)
            for value in (True, 1, 1.0)
        ]
        prints = [job.fingerprint() for job in jobs]
        assert prints == [fresh_fingerprint(job) for job in jobs]
        assert len(set(prints)) == 3

    def test_schema_inputs_are_part_of_the_key(self, monkeypatch):
        job = JobSpec(SUITE[0], "simit", ARM, VEXPRESS, 10)
        before = job.fingerprint()
        monkeypatch.setattr(
            resultcache, "COUNTER_NAMES", tuple(COUNTER_NAMES) + ("speculative_fizzles",)
        )
        renamed = job.fingerprint()
        assert renamed != before and renamed == fresh_fingerprint(job)
        monkeypatch.setattr(
            resultcache, "COST_SCHEMA_VERSION", resultcache.COST_SCHEMA_VERSION + 1
        )
        bumped = job.fingerprint()
        assert bumped not in (before, renamed) and bumped == fresh_fingerprint(job)

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(resultcache, "_FINGERPRINTS", {})
        monkeypatch.setattr(resultcache, "_FINGERPRINT_LIMIT", 8)
        for iterations in range(1, 30):
            job = JobSpec(SUITE[0], "simit", ARM, VEXPRESS, iterations)
            assert job.fingerprint() == fresh_fingerprint(job)
            assert len(resultcache._FINGERPRINTS) <= 8


class TestSharedDefaultSpecs:
    def test_registry_name_yields_one_shared_spec(self):
        assert as_engine_spec("qemu-dbt") is as_engine_spec("qemu-dbt")

    def test_jobs_naming_an_engine_share_its_cost_models(self):
        first = JobSpec(SUITE[0], "gem5", ARM, VEXPRESS, 10)
        second = JobSpec(SUITE[1], "gem5", ARM, VEXPRESS, 10)
        assert first.engine_spec is second.engine_spec
        assert first.engine_spec.cost_model(ARM) is second.engine_spec.cost_model(ARM)
