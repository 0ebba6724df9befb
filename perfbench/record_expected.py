"""Record the output digests every benchmark pass is checked against.

    PYTHONPATH=src python perfbench/record_expected.py

Runs the figure 7, 2 and 6 manifests serially into a fresh dataset
and writes ``perfbench/expected.json``: a digest of every cell's status
and kernel counter delta (keyed by cell fingerprint), of each rendered
figure 7, 2, 6 and 8 regenerated from that dataset, and the row count
of every warm-rerun query.  Re-record only when a change is meant to
alter guest-visible results; a speed-only change must pass against the
recorded file unchanged.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import passes  # noqa: E402
from repro.core.runner import ExperimentRunner  # noqa: E402
from repro.exp import Dataset, parse_query, resolve_manifest  # noqa: E402
from repro.exp.resolver import DatasetResolver  # noqa: E402


def record(workdir):
    dataset = Dataset(os.path.join(workdir, "dataset"))
    runner = ExperimentRunner(jobs=1)
    cells = {}
    for name in passes.FILL_MANIFESTS:
        manifest = resolve_manifest(name)
        specs = manifest.jobs()
        results = DatasetResolver(runner, dataset, manifest=manifest).run(specs)
        for spec, result in zip(specs, results):
            if result.status in passes.FAILURE_STATUSES:
                raise SystemExit("%r failed: %s" % (spec, result.error))
            cells[spec.fingerprint()] = passes.cell_digest(result)
    figures = {
        name: passes.digest(passes.render(name, dataset)) for name in passes.FIGURES
    }
    queries = {
        query: len(dataset.rows(parse_query(query))) for query in passes.QUERIES
    }
    return {"cells": cells, "figures": figures, "queries": queries}


def main():
    root = os.path.dirname(HERE)
    work = os.path.join(root, ".perfbench")
    os.makedirs(work, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work)
    try:
        expected = record(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(passes.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(
        "wrote %s: %d cells, %d figures, %d queries"
        % (
            passes.EXPECTED_PATH,
            len(expected["cells"]),
            len(expected["figures"]),
            len(expected["queries"]),
        )
    )


if __name__ == "__main__":
    main()
