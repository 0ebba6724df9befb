"""The append-only, provenance-stamped experiment result dataset.

A :class:`Dataset` is the one persistent store of execution results:
one row per *cell* -- a (benchmark, engine structure, arch, platform,
iterations) point -- keyed by the job's structural fingerprint
(:meth:`repro.core.runner.JobSpec.fingerprint`).  An
:class:`~repro.core.runner.ExperimentRunner` handed a dataset probes
it once per unique execution key (:meth:`Dataset.record`), prices hits
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
"""

import json
import os

from repro.core.harness import ExecutionRecord
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

#: Statuses worth persisting: completed cells and known engine
#: limitations.  Failures are transient by policy, so a failed cell
#: re-executes instead of pinning the failure.
STORABLE_STATUSES = ("ok", "unsupported")


def make_row(spec, record, provenance=None, manifest=None):
    """One dataset row for an executed job.

    ``spec`` is the :class:`~repro.core.runner.JobSpec` that ran,
    ``record`` its :class:`~repro.core.harness.ExecutionRecord`.  The
    engine ships as its registry name plus the defaults-stripped field
    delta (:meth:`~repro.sim.spec.EngineSpec.delta_payload`), so the
    row is self-contained: a view can rebuild the exact spec and price
    the record under any cost table.
    """
    delta = spec.engine_spec.delta_payload()
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
        "record": record.to_payload(),
        "provenance": provenance or {},
    }


class Dataset(DirectoryStore):
    """On-disk dataset of provenance-stamped execution rows."""

    metrics_name = "dataset"

    def _read_entry(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            row = json.load(fh)
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
        gets rewritten, ``stores`` totals never double-count a cell,
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
        try:
            os.unlink(self._path(cell_id))
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

    def stats(self):
        stats = DirectoryStore.stats(self)
        stats["schema"] = DATASET_SCHEMA
        return stats
