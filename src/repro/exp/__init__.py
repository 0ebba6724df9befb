"""Declarative experiments: manifests and the result dataset.

The :mod:`repro.exp` package turns experiment definitions from
imperative driver code into declarative, schema-versioned *manifests*
(:mod:`repro.exp.manifest`), executes them resumably against an
append-only, provenance-stamped *dataset* of result rows
(:mod:`repro.exp.dataset`, :mod:`repro.exp.provenance`) through the
experiment runner, and exposes a predicate *query* grammar
over the accumulated rows (:mod:`repro.exp.query`).  The analysis
figures are pure views over this layer; ``repro manifest`` and
``repro query`` are its command-line surface.
"""

from repro.exp.dataset import DATASET_SCHEMA, Dataset, STORABLE_STATUSES, make_row
from repro.exp.manifest import (
    MANIFEST_SCHEMA,
    Manifest,
    ManifestError,
    ManifestResult,
    bundled_manifests,
    resolve_manifest,
    run_manifest,
)
from repro.exp.provenance import capture, git_revision, host_info
from repro.exp.query import Query, QueryError, parse_query

__all__ = [
    "DATASET_SCHEMA",
    "Dataset",
    "MANIFEST_SCHEMA",
    "Manifest",
    "ManifestError",
    "ManifestResult",
    "Query",
    "QueryError",
    "STORABLE_STATUSES",
    "bundled_manifests",
    "capture",
    "git_revision",
    "host_info",
    "make_row",
    "parse_query",
    "resolve_manifest",
    "run_manifest",
]
