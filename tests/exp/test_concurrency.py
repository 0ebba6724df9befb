"""Store-concurrency and crash-safety tests.

- ``Dataset.append`` was check-then-write, so two writers racing the
  same cell could both "win"; ``put_new`` link-publishes exclusively
  and the loser discards its row.
- Concurrent writers, processes or threads, lose no entries, and no
  write leaves a sidecar file (totals, lock) beside the entries.
- A writer killed between its temp-file write and the publishing
  ``os.replace``/``os.link`` leaves only a stray ``*.tmp``: no entry,
  nothing that ``get``, ``scan`` or ``stats`` count, and the next
  writer stores the key exactly once.
"""

import glob
import multiprocessing
import os
import signal
import threading

import pytest

from repro.arch import ARM
from repro.core import get_benchmark
from repro.core.harness import Harness, TimingPolicy
from repro.core.runner import JobSpec
from repro.exp.dataset import Dataset
from repro.platform import VEXPRESS
from repro.sim.spec import spec_for
from repro.storage import DirectoryStore


class JSONStore(DirectoryStore):
    """Minimal concrete store for exercising the base-class machinery."""

    def _read_entry(self, path):
        import json

        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def _write_entry(self, fd, value):
        import json

        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(value, fh, sort_keys=True)


@pytest.fixture(scope="module")
def executed():
    """One real (spec, record) pair to build dataset rows from."""
    harness = Harness(timing=TimingPolicy.MODELED)
    spec = JobSpec(
        get_benchmark("TLB Flush"), spec_for("simit"), ARM, VEXPRESS, iterations=8
    )
    record = harness.execute_benchmark(
        spec.benchmark, spec.engine_spec, spec.arch, spec.platform, iterations=8
    )
    assert record.status == "ok"
    return spec, record


class TestPutNew:
    def test_first_writer_wins(self, tmp_path):
        store = JSONStore(os.fspath(tmp_path / "store"))
        assert store.put_new("c" * 8, {"v": "first"}) is True
        assert store.put_new("c" * 8, {"v": "second"}) is False
        assert store.get("c" * 8) == {"v": "first"}
        assert store.stores == 1  # loser did not count a store

    def test_no_temp_file_leaks(self, tmp_path):
        store = JSONStore(os.fspath(tmp_path / "store"))
        store.put_new("c" * 8, {"v": 1})
        store.put_new("c" * 8, {"v": 2})
        names = [
            name
            for _dir, _sub, files in os.walk(tmp_path / "store")
            for name in files
        ]
        assert names.count("%s.json" % ("c" * 8)) == 1
        assert all(not name.startswith(".") for name in names)

    def test_racing_appends_store_one_row(self, tmp_path, executed):
        from tests.exp.test_dataset import row_for

        row = row_for(executed)
        dataset = Dataset(os.fspath(tmp_path / "ds"))
        wins = []
        barrier = threading.Barrier(8)

        def append():
            # Bypass any read-side fast path timing by lining every
            # writer up on a barrier first.
            barrier.wait()
            wins.append(dataset.append(dict(row)))

        threads = [threading.Thread(target=append) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert wins.count(True) == 1
        assert wins.count(False) == 7
        assert len(dataset.rows()) == 1
        assert dataset.stores == 1

    def test_append_still_updates_existing_check(self, tmp_path, executed):
        from tests.exp.test_dataset import row_for

        row = row_for(executed)
        dataset = Dataset(os.fspath(tmp_path / "ds"))
        assert dataset.append(row) is True
        assert dataset.append(dict(row, iterations=999)) is False
        stored = dataset.get(row["cell"])
        assert stored["iterations"] == row["iterations"]


WRITERS = 4
KEYS_PER_WRITER = 25
SHARED_KEY = "f" * 8


def _write_keys(store, writer):
    for index in range(KEYS_PER_WRITER):
        store.put_new("%08d" % (writer * KEYS_PER_WRITER + index), {"v": index})
    store.put_new(SHARED_KEY, {"writer": writer})


def _assert_every_key_stored(root):
    store = JSONStore(root)
    keys = [key for key, _value in store.scan()]
    expected = ["%08d" % n for n in range(WRITERS * KEYS_PER_WRITER)]
    assert keys == expected + [SHARED_KEY]
    assert store.stats()["entries"] == len(expected) + 1
    assert not glob.glob(os.path.join(root, "*", "*.tmp"))


class TestConcurrentWriters:
    def test_concurrent_processes_lose_no_entries(self, tmp_path):
        root = os.fspath(tmp_path / "store")
        procs = [
            multiprocessing.Process(target=_write_keys, args=(JSONStore(root), n))
            for n in range(WRITERS)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        _assert_every_key_stored(root)

    def test_concurrent_threads_lose_no_entries(self, tmp_path):
        root = os.fspath(tmp_path / "store")
        store = JSONStore(root)
        threads = [
            threading.Thread(target=_write_keys, args=(store, n))
            for n in range(WRITERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        _assert_every_key_stored(root)

    def test_store_writes_no_sidecar(self, tmp_path):
        """Reads, writes and accounting leave only the key fan-out
        directories in the root: no totals file, no lockfile."""
        root = tmp_path / "store"
        store = JSONStore(os.fspath(root))
        store.put("ab" + "1" * 6, {"v": 1})
        store.put_new("cd" + "2" * 6, {"v": 2})
        store.get("ab" + "1" * 6)
        store.get("ef" + "3" * 6)
        list(store.scan())
        store.stats()
        store.fold_totals()
        assert sorted(os.listdir(root)) == ["ab", "cd"]


def _die_before_publish(store, method, publish, key, value):
    """Write ``value`` under ``key`` and SIGKILL this process between
    the temp-file write and its publishing ``os.<publish>`` call."""

    def kill(*_args):
        os.kill(os.getpid(), signal.SIGKILL)

    setattr(os, publish, kill)
    getattr(store, method)(key, value)


def _kill_writer(store, method, publish, key, value):
    child = multiprocessing.Process(
        target=_die_before_publish, args=(store, method, publish, key, value)
    )
    child.start()
    child.join(timeout=60)
    assert child.exitcode == -signal.SIGKILL
    strays = glob.glob(os.path.join(store.root, "*", "*.tmp"))
    assert len(strays) == 1, strays  # the torn write is on disk


PUBLISHERS = [("put", "replace"), ("put_new", "link")]


class TestKilledWriter:
    @pytest.mark.parametrize("method,publish", PUBLISHERS)
    def test_stray_temp_file_is_no_entry(self, tmp_path, method, publish):
        root = os.fspath(tmp_path / "store")
        key = "d" * 8
        _kill_writer(JSONStore(root), method, publish, key, {"v": 1})

        store = JSONStore(root)
        assert store.get(key) is None
        assert list(store.scan()) == []
        stats = store.stats()
        assert (stats["entries"], stats["bytes"]) == (0, 0)
        assert (store.misses, store.quarantined) == (1, 0)

        # A second writer publishes the key exactly once.
        assert store.put_new(key, {"v": 2}) is True
        assert store.put_new(key, {"v": 3}) is False
        assert list(store.scan()) == [(key, {"v": 2})]
        assert store.stats()["entries"] == 1

    def test_killed_append_leaves_no_row(self, tmp_path, executed):
        from tests.exp.test_dataset import row_for

        row = row_for(executed)
        root = os.fspath(tmp_path / "ds")
        _kill_writer(Dataset(root), "put_new", "link", row["cell"], row)

        dataset = Dataset(root)
        assert not dataset.contains(row["cell"])
        assert dataset.get(row["cell"]) is None
        assert dataset.rows() == []
        assert dataset.stats()["entries"] == 0

        assert dataset.append(dict(row)) is True
        assert dataset.append(dict(row)) is False
        assert [stored["cell"] for stored in dataset.rows()] == [row["cell"]]
        assert dataset.stores == 1
