"""Shared on-disk storage machinery.

:class:`DirectoryStore` is the content-addressed two-level directory
store underlying both persistent stores -- the experiment dataset of
execution records (:mod:`repro.exp.dataset`) and compiled DBT blocks
(:mod:`repro.sim.dbt.codestore`).  It lives here, close to
dependency-free, so either side can import it without dragging in the
other's package.

Accounting is per process: the session counters (``hits``/``misses``/
``stores``/``quarantined``) live on the instance, and are mirrored into
the process-global metrics registry under ``<metrics_name>.<event>``
names, which pool workers ship back to the parent with every chunk.
Nothing about a store's traffic is persisted: what a run did stays with
the run (its runner stats and metrics), and what the store holds is
read off the directory itself (:meth:`DirectoryStore.stats`, and a
:meth:`DirectoryStore.scan` for corrupt entries).
"""

import os
import tempfile

from repro.obs.metrics import METRICS

#: The session-counter vocabulary.
SESSION_KEYS = ("hits", "misses", "stores", "quarantined")


class DirectoryStore:
    """Content-addressed two-level directory store with quarantine.

    Entries fan out as ``root/<key[:2]>/<key><suffix>``, writes go
    through a temp file + atomic rename so concurrent runs never
    observe torn entries, and entries that exist but fail to decode
    are *quarantined* (unlinked, counted) rather than left to make
    every future run re-pay a doomed open+parse.

    Subclasses define :attr:`suffix`, :attr:`decode_errors`, the
    :meth:`_read_entry`/:meth:`_write_entry` codecs and
    :attr:`metrics_name` (the registry prefix for hit/miss/store/
    quarantine counters; ``None`` disables mirroring).
    """

    suffix = ".json"
    #: Exception types that mark an on-disk entry as corrupt (beyond
    #: ``OSError``, which is a plain miss -- e.g. entry absent).
    decode_errors = (ValueError, KeyError, TypeError)
    #: Prefix for mirrored metrics counters (``<name>.hits``, ...).
    metrics_name = None

    def __init__(self, root):
        self.root = os.fspath(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    def _path(self, key):
        return os.path.join(self.root, key[:2], key + self.suffix)

    def _record(self, event):
        # Store traffic is rare (at most once per unique job / per
        # translated block) and sits on I/O paths, so it records
        # unconditionally -- the registry's enabled gate is a *hot-path*
        # economy, and cache accounting must never be lossy.
        if self.metrics_name is not None:
            METRICS.inc("%s.%s" % (self.metrics_name, event))

    def _read_entry(self, path):
        """Decode one entry file; raise ``decode_errors`` on corruption."""
        raise NotImplementedError

    def _write_entry(self, fd, value):
        """Encode ``value`` to the open (binary-capable) descriptor."""
        raise NotImplementedError

    def get(self, key):
        """The stored value, or ``None`` on a miss or quarantine."""
        path = self._path(key)
        try:
            value = self._read_entry(path)
        except OSError:
            self.misses += 1
            self._record("misses")
            return None
        except self.decode_errors:
            self.misses += 1
            self.quarantined += 1
            self._record("misses")
            self._record("quarantined")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        self._record("hits")
        return value

    def scan(self):
        """Iterate every decodable entry as ``(key, value)`` pairs.

        The shared full-store read path (dataset queries, audits).
        Corrupt entries get exactly the :meth:`get` treatment --
        quarantined (unlinked, counted, mirrored to metrics) rather
        than aborting the scan or being silently skipped -- so a bad
        row costs one scan, not every future one.  Entries are yielded
        in sorted key order, so scans are deterministic.
        """
        for path in self._entry_paths():
            name = os.path.basename(path)
            key = name[: -len(self.suffix)] if self.suffix else name
            try:
                value = self._read_entry(path)
            except OSError:
                continue  # raced with a concurrent quarantine/clear
            except self.decode_errors:
                self.quarantined += 1
                self._record("quarantined")
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            yield key, value

    def put(self, key, value):
        """Store a value atomically (write to a temp file, then rename)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            self._write_entry(fd, value)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        self._record("stores")

    def put_new(self, key, value):
        """Store a value only if the key has no entry yet.

        The exclusive-create counterpart of :meth:`put` for append-only
        stores: the value is encoded to a temp file and *linked* into
        place, so when two writers race the same key exactly one link
        succeeds -- the loser observes the existing entry, discards its
        temp file, and returns ``False`` without counting a store.
        """
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            self._write_entry(fd, value)
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
            except OSError:
                # Filesystem without hard links: degrade to a checked
                # replace (a window remains, but the entry content for
                # one key is identical across writers by construction).
                if os.path.exists(path):
                    return False
                os.replace(tmp, path)
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self.stores += 1
        self._record("stores")
        return True

    # ------------------------------------------------------------------
    def totals(self):
        """This instance's session counters, keyed by :data:`SESSION_KEYS`."""
        return {key: getattr(self, key) for key in SESSION_KEYS}

    def fold_totals(self):
        """:meth:`totals`; writes nothing.  Kept only for the frozen
        ``perfbench/layers.py``, which wraps it; leaves with ROADMAP item 5."""
        return self.totals()

    # ------------------------------------------------------------------
    def _entry_paths(self):
        if not os.path.isdir(self.root):
            return
        for prefix in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, prefix)
            if not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(self.suffix):
                    yield os.path.join(subdir, name)

    def stats(self):
        """Summary of the on-disk store plus this session's counters."""
        entries = 0
        total_bytes = 0
        for path in self._entry_paths():
            entries += 1
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
        return {
            "root": self.root,
            "entries": entries,
            "bytes": total_bytes,
            **self.totals(),
        }

    def clear(self):
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.root)
