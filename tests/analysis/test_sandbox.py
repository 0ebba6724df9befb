"""Sandbox-detection tests (the paper's future-work suggestion)."""

import pytest

from repro.analysis.sandbox import (
    Fingerprint,
    classify,
    detect,
    detect_registry_engine,
    fingerprint,
)
from repro.arch import ARM
from repro.sim import FastInterpreter
from repro.sim.spec import DBTSpec

EXPECTED = {
    "qemu-dbt": "dbt",
    "simit": "interpreter",
    "gem5": "detailed-simulator",
    "qemu-kvm": "virtualized",
    "native": "native",
}


class TestDetection:
    @pytest.mark.parametrize("name,expected", sorted(EXPECTED.items()))
    def test_every_engine_identified(self, name, expected):
        label, fp = detect_registry_engine(name)
        assert label == expected, fp

    def test_dbt_smc_signature_dominates(self):
        _label, fp = detect_registry_engine("qemu-dbt")
        assert fp.smc_ratio > 10

    def test_kvm_mmio_signature_dominates(self):
        _label, fp = detect_registry_engine("qemu-kvm")
        assert fp.mmio_ratio > 50

    def test_unchained_dbt_still_detected(self):
        """A DBT engine with chaining disabled still betrays itself via
        retranslation cost."""
        spec = DBTSpec(chain_enabled=False)
        label, _fp = detect(lambda board: spec.build(board, ARM))
        assert label == "dbt"

    def test_interpreter_without_decode_cache(self):
        label, _fp = detect(
            lambda board: FastInterpreter(board, arch=ARM, use_decode_cache=False)
        )
        assert label == "interpreter"


class TestClassifier:
    def test_thresholds(self):
        assert classify(Fingerprint(30, 1, 1, 5)) == "dbt"
        assert classify(Fingerprint(1, 1, 90, 30)) == "virtualized"
        assert classify(Fingerprint(1, 1, 1, 2000)) == "detailed-simulator"
        assert classify(Fingerprint(1, 3, 1, 40)) == "interpreter"
        assert classify(Fingerprint(1, 2, 1, 3)) == "native"

    def test_fingerprint_dict(self):
        fp = Fingerprint(1.0, 2.0, 3.0, 4.0)
        assert fp.as_dict() == {
            "smc_ratio": 1.0,
            "trap_ratio": 2.0,
            "mmio_ratio": 3.0,
            "ns_per_insn": 4.0,
        }

    def test_fingerprint_repr(self):
        assert "smc=" in repr(Fingerprint(1, 2, 3, 4))


class TestProbeHygiene:
    def test_fresh_engine_per_probe(self):
        """The factory is invoked once per probe so caches never leak
        between probes."""
        calls = []

        def factory(board):
            engine = FastInterpreter(board, arch=ARM)
            calls.append(engine)
            return engine

        fingerprint(factory)
        # baseline, SMC baseline, SMC, trap, MMIO
        assert len(calls) == 5
