"""Persistent code store: roundtrip, keying, and corruption survival.

The store holds marshalled compiled-code payloads, so a damaged entry
is a real hazard (``marshal`` is not robust against truncation).  The
contract is that any corrupt entry reads as a miss, is unlinked, and
bumps the ``quarantined`` counter -- never a crash.
"""

import marshal
import pathlib

import pytest

from repro.sim.dbt import codestore
from repro.sim.dbt.codestore import CodeStore, block_key
from repro.sim.dbt.translator import TRANSLATION_MEMO
from tests.sim.util import run_asm
from repro.sim import DBTSimulator

HOT_BODY = """
    li r1, 50
loop:
    addi r2, r2, 3
    subi r1, r1, 1
    cmpi r1, 0
    bne loop
    halt #0
"""


def _payload():
    source = "def make(block):\n    return lambda engine: None\n"
    code = compile(source, "<test block>", "exec")
    return (b"\x01\x02\x03\x04", 1, source, code)


class TestRoundtrip:
    def test_put_get(self, tmp_path):
        store = CodeStore(tmp_path)
        payload = _payload()
        key = block_key((True, False, 64), 0x8000, payload[0])
        store.put(key, payload)
        word_bytes, insn_count, source, code = store.get(key)
        assert word_bytes == payload[0]
        assert insn_count == 1
        namespace = {}
        exec(code, namespace)
        assert callable(namespace["make"](None))
        assert store.stats()["hits"] == 1

    def test_key_is_content_addressed(self):
        base = block_key((True, False, 64), 0x8000, b"\x00\x01")
        assert block_key((True, False, 64), 0x8000, b"\x00\x02") != base
        assert block_key((True, False, 64), 0x8004, b"\x00\x01") != base
        assert block_key((False, False, 64), 0x8000, b"\x00\x01") != base


class TestCodegenVersion:
    def test_key_covers_codegen_version(self, monkeypatch):
        base = block_key((True, False, 64), 0x8000, b"\x00\x01")
        monkeypatch.setattr(codestore, "CODEGEN_VERSION", codestore.CODEGEN_VERSION - 1)
        assert block_key((True, False, 64), 0x8000, b"\x00\x01") != base

    def test_previous_version_entry_is_relowered(self, tmp_path, monkeypatch):
        """A store filled by the previous emitter must not serve its
        source: every block misses, is lowered afresh, and the run
        counts exactly what a cold run does."""
        try:
            store = codestore.configure(str(tmp_path))
            with monkeypatch.context() as patch:
                patch.setattr(codestore, "CODEGEN_VERSION", codestore.CODEGEN_VERSION - 1)
                TRANSLATION_MEMO.clear()
                run_asm(DBTSimulator, HOT_BODY)
            stale = {pathlib.Path(p).name for p in store._entry_paths()}
            assert stale
            # Poison the stale entries: loading any of them would halt
            # the guest with a nonzero code.
            source = (
                "def make(blk):\n"
                "    def block(s):\n"
                "        s.cpu.halted = True\n"
                "        s.cpu.halt_code = 99\n"
                "    return block\n"
            )
            poison = compile(source, "<stale block>", "exec")
            for path in map(pathlib.Path, store._entry_paths()):
                word_bytes, insn_count, _source, _code = marshal.loads(path.read_bytes())
                path.write_bytes(marshal.dumps((word_bytes, insn_count, source, poison)))
            TRANSLATION_MEMO.clear()
            before = store.stats()
            engine, _board, res = run_asm(DBTSimulator, HOT_BODY)
            assert res.halted_ok
            after = store.stats()
            assert after["hits"] == before["hits"]
            assert after["misses"] - before["misses"] == engine.counters.translations
            fresh = {pathlib.Path(p).name for p in store._entry_paths()} - stale
            assert len(fresh) == engine.counters.translations
        finally:
            codestore.configure(None)
            TRANSLATION_MEMO.clear()


class TestCorruption:
    def _stored(self, tmp_path):
        store = CodeStore(tmp_path)
        payload = _payload()
        key = block_key((True, False, 64), 0x8000, payload[0])
        store.put(key, payload)
        (path,) = (pathlib.Path(p) for p in store._entry_paths())
        return store, key, path

    @pytest.mark.parametrize(
        "damage",
        [b"", b"garbage not marshal at all", marshal.dumps((1, 2))],
        ids=["truncated", "garbage", "wrong-shape"],
    )
    def test_corrupt_entry_is_quarantined(self, tmp_path, damage):
        store, key, path = self._stored(tmp_path)
        path.write_bytes(damage)
        assert store.get(key) is None  # miss, not a crash
        assert not path.exists()  # unlinked
        stats = store.stats()
        assert stats["quarantined"] == 1
        assert stats["misses"] == 1

    def test_partial_truncation(self, tmp_path):
        store, key, path = self._stored(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert store.get(key) is None
        assert store.stats()["quarantined"] == 1

    def test_engine_survives_corrupt_store(self, tmp_path):
        """End to end: a DBT run over a store full of garbage entries
        quarantines them all and still produces a correct run."""
        try:
            store = codestore.configure(str(tmp_path))
            TRANSLATION_MEMO.clear()
            engine, board, res = run_asm(DBTSimulator, HOT_BODY)
            assert res.halted_ok
            clean = engine.counters.snapshot()
            for path in store._entry_paths():
                pathlib.Path(path).write_bytes(b"\xff\xfebad")
            TRANSLATION_MEMO.clear()
            engine, board, res = run_asm(DBTSimulator, HOT_BODY)
            assert res.halted_ok
            assert engine.counters.snapshot() == clean
            assert store.stats()["quarantined"] > 0
        finally:
            codestore.configure(None)


class TestConfigure:
    def test_configure_none_disables(self, tmp_path):
        try:
            assert codestore.configure(str(tmp_path)) is not None
            assert codestore.active() is not None
            assert codestore.configure(None) is None
            assert codestore.active() is None
        finally:
            codestore.configure(None)

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_CACHE_DIR", str(tmp_path))
        try:
            codestore._CONFIGURED = False
            codestore._ACTIVE = None
            store = codestore.active()
            assert store is not None
            assert str(store.root) == str(tmp_path)
        finally:
            codestore.configure(None)

    def test_clear_removes_entries(self, tmp_path):
        store = CodeStore(tmp_path)
        payload = _payload()
        key = block_key((True, False, 64), 0x8000, payload[0])
        store.put(key, payload)
        assert store.stats()["entries"] == 1
        assert store.clear() == 1
        assert store.stats()["entries"] == 0
