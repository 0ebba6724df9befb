"""The append-only, provenance-stamped experiment result dataset.

A :class:`Dataset` is the one persistent store of execution results:
one row per *cell* -- a (benchmark, engine structure, arch, platform,
iterations) point -- keyed by the job's structural fingerprint
(:meth:`repro.core.runner.JobSpec.fingerprint`).  An
:class:`~repro.core.runner.ExperimentRunner` handed a dataset probes
it once per unique cell id (:meth:`Dataset.record`), prices hits
at zero guest cost, and appends what it executed
(:meth:`Dataset.store_records`).  Rows are:

- **append-only**: the first write of a cell wins; re-running a
  manifest never rewrites history (a cell whose inputs change gets a
  *new* fingerprint and therefore a new row);
- **provenance-stamped**: every row records the git revision, host,
  interpreter, spec/cost schema tag, manifest id and seed that
  produced it (:mod:`repro.exp.provenance`);
- **queryable**: :meth:`Dataset.rows` evaluates a
  :class:`repro.exp.query.Query` over a full scan, and
  ``repro query 'engine=qemu-dbt arch=arm bench=tlb-*'`` exposes the
  same engine on the command line.

Storage rides :class:`repro.storage.DirectoryStore`, so rows get the
same two-level fan-out, atomic writes, and corrupt-entry quarantine
(skipped, unlinked, counted -- surfaced in ``repro cache stats``) as
the DBT code store.  A row of another :data:`DATASET_SCHEMA`, or an
entry of any other shape, is quarantined the same way -- never
misread.  Failure rows (``crashed``/``timeout``/``error``) are never
appended, so a failed cell re-executes on the next run.

Reads are memoized per :class:`Dataset` object: each decoded row is
kept with its file's ``(st_ino, st_size, st_mtime_ns)``, and a later
:meth:`~repro.storage.DirectoryStore.get` or scan that stats the same
signature returns that row without opening the file.  Rows are
write-once (:meth:`Dataset.append` links a complete file into place
and nothing rewrites one), so an unchanged signature means unchanged
content; a row removed, quarantined or cleared -- by this process or
another -- fails the stat and misses exactly as an unmemoized read
would, and a row written again gets a later mtime.  A row younger
than :data:`_RACY_NS` is memoized together with the bytes it was
decoded from, and each later read re-reads the file and reuses the
decoded row only if the bytes are unchanged, so a rewrite within the
same timestamp tick cannot slip by; once the row is older, the
signature alone is trusted.  Hit, miss and quarantine accounting is
the same either way.
Memoized rows are shared between callers: treat what ``get``/``rows``
return as read-only (:meth:`Dataset.record` hands out a fresh
:class:`~repro.core.harness.ExecutionRecord`).
"""

import json
import os
import time

from repro.core.harness import STORABLE_STATUSES, ExecutionRecord
from repro.core.suite import slugify
from repro.exp.provenance import capture
from repro.storage import DirectoryStore

#: Bump when the row shape changes incompatibly.
DATASET_SCHEMA = 1

#: Keys every row must decode with; anything less is a corrupt entry
#: and gets quarantined rather than crashing a query.
_REQUIRED_KEYS = (
    "schema",
    "cell",
    "benchmark",
    "engine",
    "arch",
    "platform",
    "iterations",
    "status",
    "record",
)

#: Rows modified less than this long before they are read are
#: memoized with their bytes, which every later read compares: a row
#: removed and re-appended within one file-system timestamp tick can
#: get back the same inode, size and mtime, so only a row older than
#: the coarsest common tick (2 s) has a signature that no later write
#: can repeat.
_RACY_NS = 2_000_000_000


def make_row(spec, record, provenance=None, manifest=None):
    """One dataset row for an executed job.

    ``spec`` is the :class:`~repro.core.runner.JobSpec` that ran,
    ``record`` its :class:`~repro.core.harness.ExecutionRecord`.  The
    engine ships as its registry name plus the defaults-stripped field
    delta (:meth:`~repro.sim.spec.EngineSpec.delta_payload`), so the
    row is self-contained: a view can rebuild the exact spec and price
    the record under any cost table.  The record's host-measured
    ``kernel_wall_ns`` is left out, so a row is a pure function of its
    cell (WALLCLOCK runs never consult the dataset).
    """
    delta = spec.engine_spec.delta_payload()
    stored = record.to_payload()
    del stored["kernel_wall_ns"]
    return {
        "schema": DATASET_SCHEMA,
        "cell": spec.fingerprint(),
        "manifest": manifest,
        "benchmark": spec.benchmark.name,
        "bench_slug": slugify(spec.benchmark.name),
        "engine": spec.engine_spec.engine,
        "engine_fields": delta["fields"],
        "arch": spec.arch.name,
        "platform": spec.platform.name,
        "iterations": spec.iterations,
        "status": record.status,
        "record": stored,
        "provenance": provenance or {},
    }


def _signature(st):
    """What identifies one write of a row file."""
    return (st.st_ino, st.st_size, st.st_mtime_ns)


class Dataset(DirectoryStore):
    """On-disk dataset of provenance-stamped execution rows."""

    metrics_name = "dataset"

    def __init__(self, root):
        DirectoryStore.__init__(self, root)
        #: ``path -> (stat signature, decoded row, raw bytes or None)``;
        #: see the module docstring for when a matching signature is
        #: enough and when the bytes must match too.
        self._memo = {}

    def _read_entry(self, path):
        memo = self._memo.get(path)
        if memo is not None and memo[2] is None:
            if memo[0] == _signature(os.stat(path)):
                return memo[1]
        self._memo.pop(path, None)
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            data = fh.read()
        if memo is not None and data == memo[2]:
            # A young row read back unchanged: the bytes vouch for the
            # decoded row where the signature alone could not.
            row = memo[1]
        else:
            row = self._decode(json.loads(data.decode("utf-8")))
        young = time.time_ns() - st.st_mtime_ns < _RACY_NS
        self._memo[path] = (_signature(st), row, data if young else None)
        return row

    @staticmethod
    def _decode(row):
        if not isinstance(row, dict):
            raise ValueError("dataset row is not an object")
        for key in _REQUIRED_KEYS:
            if key not in row:
                raise KeyError(key)
        if row["schema"] != DATASET_SCHEMA:
            raise ValueError("dataset row schema %r" % (row["schema"],))
        return row

    def _write_entry(self, fd, row):
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(row, fh, sort_keys=True)

    # ------------------------------------------------------------------
    def contains(self, cell_id):
        """Whether a row exists for ``cell_id`` (no decode, no counters)."""
        return os.path.exists(self._path(cell_id))

    def record(self, cell_id):
        """The stored :class:`~repro.core.harness.ExecutionRecord` of
        ``cell_id``, or ``None``: one counted :meth:`get` probe."""
        row = self.get(cell_id)
        return None if row is None else ExecutionRecord.from_payload(row["record"])

    def store_records(self, executed, manifest=None):
        """Append one provenance-stamped row per storable ``(spec,
        record)`` pair in ``executed``; returns how many were new.

        ``manifest`` is the :class:`~repro.exp.manifest.Manifest` the
        rows belong to, if any; one stamp, captured on the first
        storable record, covers the whole call.
        """
        seed = manifest_id = None
        if manifest is not None:
            seed, manifest_id = manifest.seed, manifest.manifest_id()
        stamp = None
        appended = 0
        for spec, record in executed:
            if record.status not in STORABLE_STATUSES:
                continue
            if stamp is None:
                stamp = capture(seed=seed, manifest=manifest_id)
            row = make_row(spec, record, provenance=stamp, manifest=manifest_id)
            appended += self.append(row)
        return appended

    def append(self, row):
        """Append one row (keyed by its ``cell`` fingerprint).

        Append-only *and* race-safe: if the cell already has a row --
        including one that appeared between the existence probe and the
        write, as happens when two runners (the experiment service
        plus a CLI run, or two concurrent manifest runs) store the same
        cell -- the existing row is kept untouched, this writer's temp
        file is discarded, and ``False`` is returned.  History never
        gets rewritten, the ``stores`` counter never double-counts a cell,
        and :meth:`~repro.storage.DirectoryStore.scan` sees exactly one
        row per cell.
        """
        cell_id = row["cell"]
        if self.contains(cell_id):
            return False
        return self.put_new(cell_id, row)

    def remove(self, cell_id):
        """Delete one row (the resumability escape hatch: a removed
        cell is simply re-executed by the next manifest run)."""
        path = self._path(cell_id)
        self._memo.pop(path, None)
        try:
            os.unlink(path)
        except OSError:
            return False
        return True

    def rows(self, query=None):
        """Every row matching ``query`` (all rows when ``None``), in
        deterministic (sorted cell id) order.  Corrupt rows are
        quarantined by the shared :meth:`~repro.storage.DirectoryStore.scan`
        path, never returned and never fatal."""
        out = []
        for _key, row in self.scan():
            if query is None or query.match(row):
                out.append(row)
        return out

    def clear(self):
        self._memo.clear()
        return DirectoryStore.clear(self)

    def stats(self):
        stats = DirectoryStore.stats(self)
        stats["schema"] = DATASET_SCHEMA
        return stats
