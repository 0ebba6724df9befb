"""Cell fingerprints stay the keys the repository benchmark recorded.

``perfbench/expected.json`` keys the expected status and counter digest
of every cell of the bundled figure 7, 2 and 6 manifests by
:meth:`~repro.core.runner.JobSpec.fingerprint`.  A spec change that
moves a fingerprint would make the benchmark report its outputs as
incorrect; this test catches it without running a cell.
"""

import json
import os

from repro.exp.manifest import resolve_manifest

EXPECTED_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "perfbench", "expected.json"
)


def test_every_figure_cell_has_a_recorded_digest():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        recorded = set(json.load(fh)["cells"])
    cells = {
        spec.fingerprint()
        for name in ("figure7", "figure2", "figure6")
        for spec in resolve_manifest(name).jobs()
    }
    assert len(cells) == 186
    assert sorted(cells - recorded) == []
