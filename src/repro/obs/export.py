"""Exporting observability data: JSONL events and breakdown tables.

The JSONL format is line-delimited JSON with a ``type`` discriminator
per line, so consumers can stream-filter with nothing smarter than
``json.loads`` per line:

- ``{"type": "meta", ...}`` -- one header line: schema version plus
  whatever run description the caller supplies (command, grid shape);
- ``{"type": "job", ...}`` -- one line per unique cell, in
  first-submission order: benchmark/engine/arch/platform/iterations
  identity, final ``status`` and ``error``, ``source``
  (``executed``/``dataset``/``reused``/``static``), ``sources`` (how
  often each source resolved the cell, when the rows span several
  runs),
  ``submitted`` (the specs that shared the cell), ``wall_ns``/
  ``queue_wait_ns`` host timings,
  ``attempts``, and the join keys ``cell_id`` (the structural
  fingerprint that keys the experiment dataset) plus the ``manifest``
  id (``None`` outside manifest runs), so telemetry rows join dataset
  rows directly;
- ``{"type": "counter"|"gauge"|"phase"|"histogram", "name": ...}`` --
  one line per instrument in the merged registry snapshot.

Everything is emitted in sorted/submission order, so two runs of the
same grid produce line-for-line comparable files (up to timings).
"""

import json

#: Bump when line shapes change incompatibly.
EXPORT_SCHEMA = 2


def jsonl_lines(meta=None, jobs=(), snapshot=None):
    """Yield the export as already-encoded JSON lines (no newlines)."""
    header = {"type": "meta", "schema": EXPORT_SCHEMA}
    if meta:
        header.update(meta)
    yield json.dumps(header, sort_keys=True)
    for row in jobs:
        line = {"type": "job"}
        line.update(row)
        yield json.dumps(line, sort_keys=True)
    if snapshot:
        for group, kind in (
            ("counters", "counter"),
            ("gauges", "gauge"),
            ("phases", "phase"),
            ("histograms", "histogram"),
        ):
            for name, value in snapshot.get(group, {}).items():
                line = {"type": kind, "name": name}
                if isinstance(value, dict):
                    line.update(value)
                else:
                    line["value"] = value
                yield json.dumps(line, sort_keys=True)


def write_jsonl(path, meta=None, jobs=(), snapshot=None):
    """Write one JSONL export file; returns the number of lines."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in jsonl_lines(meta=meta, jobs=jobs, snapshot=snapshot):
            fh.write(line)
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path):
    """Parse a JSONL export back into a list of dicts (blank-line safe)."""
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if raw:
                lines.append(json.loads(raw))
    return lines


def breakdown(jobs):
    """Aggregate per-cell job rows per (benchmark, engine, arch).

    Returns rows in first-seen (submission) order, each with the job
    count, per-source counts, failure count and summed host wall time.
    A row stands for its ``submitted`` specs: all of them count as
    jobs (and as failed when the cell failed), one per resolution under
    its source and the rest as ``dedup``.  A row resolved once names
    its ``source``; a row spanning several runs counts each run's
    source in ``sources``.
    """
    cells = {}
    order = []
    for row in jobs:
        key = (row.get("benchmark"), row.get("engine"), row.get("arch"))
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = {
                "benchmark": key[0],
                "engine": key[1],
                "arch": key[2],
                "jobs": 0,
                "executed": 0,
                "dataset": 0,
                "reused": 0,
                "static": 0,
                "dedup": 0,
                "failed": 0,
                "wall_ns": 0,
                "queue_wait_ns": 0,
            }
            order.append(key)
        submitted = int(row.get("submitted", 1))
        sources = row.get("sources") or {row.get("source"): 1}
        cell["jobs"] += submitted
        cell["dedup"] += submitted - sum(sources.values())
        for source, count in sources.items():
            if source in ("executed", "dataset", "reused", "static"):
                cell[source] += count
        if row.get("status") in ("error", "crashed", "timeout"):
            cell["failed"] += submitted
        cell["wall_ns"] += int(row.get("wall_ns") or 0)
        cell["queue_wait_ns"] += int(row.get("queue_wait_ns") or 0)
    return [cells[key] for key in order]


_COLUMNS = (
    ("benchmark", "benchmark"),
    ("engine", "engine"),
    ("arch", "arch"),
    ("jobs", "jobs"),
    ("executed", "exec"),
    ("dataset", "dataset"),
    ("reused", "reused"),
    ("static", "static"),
    ("dedup", "dedup"),
    ("failed", "failed"),
    ("wall_ms", "wall_ms"),
)


def render_breakdown(rows):
    """Render breakdown rows as an aligned text table."""
    table = []
    for row in rows:
        table.append(
            {
                "benchmark": str(row["benchmark"]),
                "engine": str(row["engine"]),
                "arch": str(row["arch"]),
                "jobs": str(row["jobs"]),
                "executed": str(row["executed"]),
                "dataset": str(row["dataset"]),
                "reused": str(row["reused"]),
                "static": str(row["static"]),
                "dedup": str(row["dedup"]),
                "failed": str(row["failed"]),
                "wall_ms": "%.2f" % (row["wall_ns"] / 1e6),
            }
        )
    widths = {
        key: max(len(title), max((len(row[key]) for row in table), default=0))
        for key, title in _COLUMNS
    }
    lines = [
        "  ".join(title.ljust(widths[key]) for key, title in _COLUMNS),
        "  ".join("-" * widths[key] for key, _ in _COLUMNS),
    ]
    for row in table:
        lines.append("  ".join(row[key].ljust(widths[key]) for key, _ in _COLUMNS))
    return "\n".join(lines)


def render_histograms(snapshot):
    """Render the snapshot's histograms as an aligned text table.

    One row per histogram: count, mean, min/max, and the power-of-two
    bucket spread as ``bit_length:count`` pairs (the registry buckets
    by ``value.bit_length()``, so the layout is range-independent).
    """
    histograms = snapshot.get("histograms", {})
    rows = []
    for name in sorted(histograms):
        hist = histograms[name]
        count = hist.get("count", 0)
        buckets = hist.get("buckets", {})
        spread = " ".join(
            "%s:%d" % (key, buckets[key])
            for key in sorted(buckets, key=int)
        )
        rows.append(
            (
                name,
                str(count),
                "%.1f" % (hist.get("sum", 0) / max(1, count)),
                str(hist.get("min", 0)),
                str(hist.get("max", 0)),
                spread or "-",
            )
        )
    header = ("histogram", "count", "mean", "min", "max", "buckets")
    widths = [
        max(len(header[col]), max((len(row[col]) for row in rows), default=0))
        for col in range(6)
    ]
    lines = [
        "  ".join(header[col].ljust(widths[col]) for col in range(6)),
        "  ".join("-" * widths[col] for col in range(6)),
    ]
    for row in rows:
        lines.append("  ".join(row[col].ljust(widths[col]) for col in range(6)))
    return "\n".join(lines)


def render_phases(snapshot, limit=None):
    """Render the snapshot's phase timers as an aligned text table."""
    phases = snapshot.get("phases", {})
    names = sorted(phases, key=lambda name: -phases[name]["total_ns"])
    if limit is not None:
        names = names[:limit]
    rows = [
        (
            name,
            str(phases[name]["count"]),
            "%.3f" % (phases[name]["total_ns"] / 1e6),
            "%.1f" % (phases[name]["total_ns"] / max(1, phases[name]["count"]) / 1e3),
        )
        for name in names
    ]
    header = ("phase", "count", "total_ms", "mean_us")
    widths = [
        max(len(header[col]), max((len(row[col]) for row in rows), default=0))
        for col in range(4)
    ]
    lines = [
        "  ".join(header[col].ljust(widths[col]) for col in range(4)),
        "  ".join("-" * widths[col] for col in range(4)),
    ]
    for row in rows:
        lines.append("  ".join(row[col].ljust(widths[col]) for col in range(4)))
    return "\n".join(lines)
