"""Declarative, schema-versioned experiment manifests.

A manifest is the *complete* description of an experiment grid --
engines (as :class:`~repro.sim.spec.EngineSpec` delta payloads or
expansion macros), benchmarks (by registry name, slug or glob),
iteration policy and runner knobs -- loadable from TOML or JSON and
expandable into the exact :class:`~repro.core.runner.JobSpec` set the
:class:`~repro.core.runner.ExperimentRunner` executes.  The canonical
payload hashes to a stable ``manifest id``, so two checkouts agreeing
on a manifest agree on its identity; each expanded cell is keyed by
the existing structural fingerprint, which is what makes manifest runs
resumable against a result dataset (:mod:`repro.exp.dataset`).

TOML shape::

    [manifest]
    schema = 1
    name = "figure7"
    description = "the main results table"
    seed = 0

    [runner]
    scale = 0.5            # iteration scale over benchmark defaults

    [[grid]]
    arch = "arm"
    platform = "vexpress"  # optional; defaults per arch
    engines = ["qemu-dbt", { engine = "simit", fields = { tlb_capacity = 16 } }]
    benchmarks = ["small-blocks", "tlb-*"]
    scale = 1.0            # optional per-grid override
    iterations = 0         # optional explicit count (overrides scale)

Engine entries are registry names, ``{engine, fields}`` delta payloads
(:meth:`~repro.sim.spec.EngineSpec.from_delta_payload`), or the macro
``{ sweep = "qemu-versions" }`` which expands to one structurally
exact :class:`~repro.sim.spec.DBTSpec` per simulated QEMU version.
Benchmark entries resolve through
:func:`repro.core.suite.find_benchmarks` (names, slugs, globs) plus
the macros ``suite``, ``spec-proxies`` and ``group:<name>``.
"""

import hashlib
import json
import os
import tomllib

from repro.arch import get_arch
from repro.core.harness import FAILURE_STATUSES
from repro.core.runner import JobSpec
from repro.core.suite import (
    SUITE,
    benchmarks_in_group,
    find_benchmarks,
)
from repro.platform import get_platform
from repro.sim.spec import EngineSpec, canonical
from repro.workloads import SPEC_PROXIES

#: Bump when the manifest payload shape changes incompatibly.
MANIFEST_SCHEMA = 1

#: The directory of manifests bundled with the package (one per
#: published figure, plus the CI smoke grid).
BUNDLED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "manifests")

#: Runner knobs a manifest may pin (everything else is host policy
#: chosen at invocation time).
_RUNNER_KEYS = ("scale", "deadline", "retries")

_GRID_KEYS = ("arch", "platform", "engines", "benchmarks", "scale", "iterations")


class ManifestError(ValueError):
    """Malformed manifest payload, file or reference."""


def _default_platform(arch_name):
    return "vexpress" if arch_name == "arm" else "pcplat"


def _expand_engines(entries, arch_name, where):
    """Expand a grid's engine list into concrete :class:`EngineSpec`."""
    from repro.sim.dbt.versions import QEMU_VERSIONS, dbt_config_for_version
    from repro.sim.spec import DBTSpec

    specs = []
    for entry in entries:
        if isinstance(entry, str):
            specs.append(EngineSpec.from_delta_payload({"engine": entry}))
        elif isinstance(entry, dict) and "sweep" in entry:
            if entry.get("sweep") != "qemu-versions" or len(entry) != 1:
                raise ManifestError(
                    "%s: unknown engine sweep %r (known: 'qemu-versions')"
                    % (where, entry)
                )
            specs.extend(
                DBTSpec.from_config(dbt_config_for_version(version, arch_name))
                for version in QEMU_VERSIONS
            )
        elif isinstance(entry, dict) and "engine" in entry:
            specs.append(EngineSpec.from_delta_payload(entry))
        else:
            raise ManifestError(
                "%s: engine entries must be a registry name, an "
                "{engine, fields} payload or {sweep = ...}, got %r"
                % (where, entry)
            )
    if not specs:
        raise ManifestError("%s: empty engine list" % where)
    return specs


def _expand_benchmarks(entries, where):
    """Expand benchmark references (macros, names, slugs, globs)."""
    found = []
    seen = set()
    for entry in entries:
        if not isinstance(entry, str):
            raise ManifestError(
                "%s: benchmark entries must be strings, got %r" % (where, entry)
            )
        if entry == "suite":
            matches = list(SUITE)
        elif entry == "spec-proxies":
            matches = list(SPEC_PROXIES)
        elif entry.startswith("group:"):
            try:
                matches = benchmarks_in_group(entry[len("group:") :])
            except KeyError as exc:
                raise ManifestError("%s: %s" % (where, exc)) from None
        else:
            try:
                matches = find_benchmarks(entry)
            except KeyError as exc:
                raise ManifestError("%s: %s" % (where, exc)) from None
        for benchmark in matches:
            if benchmark.name not in seen:
                seen.add(benchmark.name)
                found.append(benchmark)
    if not found:
        raise ManifestError("%s: empty benchmark list" % where)
    return found


class Manifest:
    """A loaded, validated experiment manifest."""

    def __init__(self, payload):
        payload = canonical(payload, "manifest payload")
        head = payload.get("manifest")
        if not isinstance(head, dict):
            raise ManifestError("missing [manifest] section")
        unknown = sorted(set(payload) - {"manifest", "runner", "grid"})
        if unknown:
            raise ManifestError("unknown top-level section(s): %s" % ", ".join(unknown))
        schema = head.get("schema")
        if schema != MANIFEST_SCHEMA:
            raise ManifestError(
                "unsupported manifest schema %r (this build reads schema %d)"
                % (schema, MANIFEST_SCHEMA)
            )
        name = head.get("name")
        if not name or not isinstance(name, str):
            raise ManifestError("[manifest] needs a non-empty string 'name'")
        runner = payload.get("runner") or {}
        unknown = sorted(set(runner) - set(_RUNNER_KEYS))
        if unknown:
            raise ManifestError("unknown [runner] key(s): %s" % ", ".join(unknown))
        grids = payload.get("grid")
        if not isinstance(grids, list) or not grids:
            raise ManifestError("manifest needs at least one [[grid]] block")
        for index, grid in enumerate(grids):
            where = "grid[%d]" % index
            if not isinstance(grid, dict):
                raise ManifestError("%s: not a table" % where)
            unknown = sorted(set(grid) - set(_GRID_KEYS))
            if unknown:
                raise ManifestError(
                    "%s: unknown key(s): %s" % (where, ", ".join(unknown))
                )
            for required in ("arch", "engines", "benchmarks"):
                if required not in grid:
                    raise ManifestError("%s: missing %r" % (where, required))
        self.name = name
        self.description = head.get("description") or ""
        self.seed = head.get("seed")
        self.runner_knobs = dict(runner)
        self.grids = grids
        self._payload = {
            "manifest": dict(head),
            "runner": dict(runner),
            "grid": [dict(grid) for grid in grids],
        }
        # Expansion validates eagerly: a manifest that loads is a
        # manifest that runs (unknown engines/benchmarks/arches fail
        # here, not mid-grid).
        self._jobs = self._expand()

    # -- identity ----------------------------------------------------------
    def to_payload(self):
        """The canonical JSON-serializable payload (load/save identity)."""
        return json.loads(json.dumps(self._payload))

    def manifest_id(self):
        """Stable content hash of the canonical payload.

        Covers everything that determines the expanded grid (and the
        pinned runner knobs); deliberately excludes provenance, which
        describes a *run*, not the experiment.
        """
        blob = json.dumps(self._payload, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @property
    def short_id(self):
        return self.manifest_id()[:12]

    # -- expansion ---------------------------------------------------------
    def _expand(self):
        scale = float(self.runner_knobs.get("scale", 1.0))
        jobs = []
        for index, grid in enumerate(self.grids):
            where = "grid[%d]" % index
            try:
                arch = get_arch(grid["arch"])
            except KeyError as exc:
                raise ManifestError("%s: %s" % (where, exc)) from None
            platform_name = grid.get("platform") or _default_platform(arch.name)
            try:
                platform = get_platform(platform_name)
            except KeyError as exc:
                raise ManifestError("%s: %s" % (where, exc)) from None
            try:
                engines = _expand_engines(grid["engines"], arch.name, where)
            except (KeyError, ValueError) as exc:
                raise ManifestError("%s: %s" % (where, exc)) from None
            benchmarks = _expand_benchmarks(grid["benchmarks"], where)
            grid_scale = float(grid.get("scale", scale))
            explicit = int(grid.get("iterations") or 0)
            for engine_spec in engines:
                for benchmark in benchmarks:
                    iterations = explicit or max(
                        1, int(benchmark.default_iterations * grid_scale)
                    )
                    jobs.append(
                        JobSpec(
                            benchmark,
                            engine_spec,
                            arch,
                            platform,
                            iterations=iterations,
                        )
                    )
        return jobs

    def jobs(self):
        """The expanded :class:`JobSpec` grid, in declaration order."""
        return list(self._jobs)

    def cells(self):
        """``(cell_id, JobSpec)`` pairs -- cell ids are the structural
        fingerprints that key the dataset.
        Structurally identical cells repeat their id (the runner/
        dataset dedup them)."""
        return [(spec.fingerprint(), spec) for spec in self._jobs]

    def describe(self):
        """Summary dict for ``repro manifest show``."""
        cells = self.cells()
        return {
            "name": self.name,
            "id": self.manifest_id(),
            "schema": MANIFEST_SCHEMA,
            "description": self.description,
            "seed": self.seed,
            "runner": dict(self.runner_knobs),
            "grids": len(self.grids),
            "cells": len(cells),
            "unique_cells": len({cell_id for cell_id, _ in cells}),
        }

    def diff(self, other):
        """Cell-level difference against another manifest.

        Returns ``{"added": [...], "removed": [...], "common": N}``
        where added/removed hold one human-readable descriptor per cell
        present in only one manifest, keyed by cell id.
        """

        def _index(manifest):
            index = {}
            for cell_id, spec in manifest.cells():
                index.setdefault(cell_id, spec)
            return index

        mine, theirs = _index(self), _index(other)

        def _describe(index, cell_id):
            spec = index[cell_id]
            return {
                "cell": cell_id,
                "benchmark": spec.benchmark.name,
                "engine": spec.engine_spec.engine,
                "arch": spec.arch.name,
                "platform": spec.platform.name,
                "iterations": spec.iterations,
            }

        added = [_describe(theirs, c) for c in sorted(set(theirs) - set(mine))]
        removed = [_describe(mine, c) for c in sorted(set(mine) - set(theirs))]
        return {
            "added": added,
            "removed": removed,
            "common": len(set(mine) & set(theirs)),
        }

    # -- serialization -----------------------------------------------------
    def to_toml(self):
        """Render the canonical payload as TOML (the bundled-manifest
        format; ``Manifest.load`` of the output round-trips to the same
        manifest id)."""
        lines = ["[manifest]"]
        for key, value in self._payload["manifest"].items():
            lines.append("%s = %s" % (key, _toml_value(value)))
        if self._payload["runner"]:
            lines.append("")
            lines.append("[runner]")
            for key, value in self._payload["runner"].items():
                lines.append("%s = %s" % (key, _toml_value(value)))
        for grid in self._payload["grid"]:
            lines.append("")
            lines.append("[[grid]]")
            for key in _GRID_KEYS:
                if key in grid:
                    lines.append("%s = %s" % (key, _toml_value(grid[key])))
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, path):
        """Load a manifest from a ``.toml`` or ``.json`` file."""
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ManifestError("cannot read manifest %s: %s" % (path, exc)) from None
        try:
            if os.fspath(path).endswith(".json"):
                payload = json.loads(raw.decode("utf-8"))
            else:
                payload = tomllib.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ManifestError("unparseable manifest %s: %s" % (path, exc)) from None
        return cls(payload)

    def __repr__(self):
        return "Manifest(%s, %d cells, id=%s)" % (
            self.name,
            len(self._jobs),
            self.short_id,
        )


def _toml_value(value):
    """Encode one canonical value as TOML (scalars, lists, inline
    tables -- the full range of what a manifest payload may hold)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return '"%s"' % value.replace("\\", "\\\\").replace('"', '\\"')
    if isinstance(value, list):
        return "[%s]" % ", ".join(_toml_value(item) for item in value)
    if isinstance(value, dict):
        return "{ %s }" % ", ".join(
            "%s = %s" % (key, _toml_value(item)) for key, item in value.items()
        )
    raise ManifestError("cannot encode %r as TOML" % (value,))


def bundled_manifests():
    """``{name: path}`` of the manifests shipped with the package."""
    out = {}
    if os.path.isdir(BUNDLED_DIR):
        for name in sorted(os.listdir(BUNDLED_DIR)):
            if name.endswith(".toml"):
                out[name[: -len(".toml")]] = os.path.join(BUNDLED_DIR, name)
    return out


def resolve_manifest(ref):
    """Load a manifest by path or bundled name (``figure7``, ``smoke``)."""
    if os.path.exists(ref):
        return Manifest.load(ref)
    bundled = bundled_manifests()
    if ref in bundled:
        return Manifest.load(bundled[ref])
    raise ManifestError(
        "no manifest file %r and no bundled manifest of that name "
        "(bundled: %s)" % (ref, ", ".join(sorted(bundled)) or "none")
    )


class ManifestResult:
    """The outcome of one manifest run."""

    def __init__(self, manifest, specs, results, stats, runner):
        self.manifest = manifest
        self.specs = specs
        self.results = results
        self.stats = dict(stats)
        #: The runner that executed the grid -- callers reach
        #: telemetry/failures through it.
        self.runner = runner

    def failures(self):
        return [r for r in self.results if r.status in FAILURE_STATUSES]

    def __repr__(self):
        return "ManifestResult(%s, %d cells)" % (
            self.manifest.name,
            len(self.results),
        )


def run_manifest(manifest, runner, dataset=None):
    """Execute a manifest's grid on ``runner``, resuming from its
    dataset (or ``dataset``, which replaces it).

    Sets ``runner.manifest`` so appended rows and telemetry rows carry
    the manifest id.  Re-running the same manifest against the same
    dataset executes only cells whose rows are missing (none, on a
    fully warm dataset).
    """
    if dataset is not None:
        runner.dataset = dataset
    runner.manifest = manifest
    specs = manifest.jobs()
    results = runner.run(specs)
    return ManifestResult(manifest, specs, results, runner.last_stats, runner)
