"""Bisect smoke: plant a regression, find it twice, query the dataset.

Builds a 16-step pricing axis whose loads cost jumps at step 9, bisects
it cold (must pinpoint step-08 -> step-09 in at most 5 executed probe
versions) and warm (must execute 0 cells, resolving every probe from
the dataset).  Finally ``repro query`` over the populated dataset is
gated on returning rows.

Runnable standalone: ``PYTHONPATH=src python benchmarks/smoke_bisect.py``.
"""

import shutil
import subprocess
import sys
import tempfile

from repro.arch import get_arch
from repro.attrib import BisectAxis, Bisector
from repro.core.harness import Harness, TimingPolicy
from repro.core.runner import ExperimentRunner, resolve_benchmark
from repro.exp import Dataset
from repro.platform import get_platform
from repro.sim.spec import DBTSpec

STEPS = 16
BAD_FROM = 9


def _axis():
    steps = []
    for index in range(STEPS):
        overrides = {"loads": 40.0} if index >= BAD_FROM else {}
        steps.append(
            ("step-%02d" % index, DBTSpec(cost_overrides=overrides))
        )
    return BisectAxis(steps)


def _bisect(dataset):
    with ExperimentRunner(
        harness=Harness(timing=TimingPolicy.MODELED), dataset=dataset
    ) as runner:
        result = Bisector(
            runner,
            _axis(),
            resolve_benchmark("Attrib TLB Bits"),
            get_arch("arm"),
            get_platform("vexpress"),
            "seconds",
            iterations=4,
        ).run()
    return result


def main():
    root = tempfile.mkdtemp(prefix="bisect-smoke-")
    try:
        dataset = Dataset(root)
        cold = _bisect(dataset)
        assert cold.status == "found", cold.as_dict()
        assert cold.last_good == BAD_FROM - 1, cold.as_dict()
        assert cold.first_bad == BAD_FROM, cold.as_dict()
        assert cold.executed_cells <= 5, (
            "cold bisect executed %d cells" % cold.executed_cells
        )

        warm = _bisect(dataset)
        assert warm.status == "found", warm.as_dict()
        assert warm.first_bad == cold.first_bad
        assert warm.executed_cells == 0, (
            "warm re-bisect executed %d cells" % warm.executed_cells
        )
        assert warm.dataset_hits == warm.probes, warm.as_dict()

        query = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "query",
                "status=ok",
                "--dataset-dir",
                root,
            ],
            capture_output=True,
            text=True,
        )
        if query.returncode != 0:
            raise SystemExit(
                "repro query returned %d (no rows?)\n%s%s"
                % (query.returncode, query.stdout, query.stderr)
            )
        rows = [line for line in query.stdout.splitlines() if line.strip()]
        assert rows, "query over the bisect dataset returned nothing"
    finally:
        shutil.rmtree(root, ignore_errors=True)

    print(
        "bisect smoke: found step-%02d -> step-%02d, cold %d executed "
        "(%d probes) -> warm 0 executed (%d dataset hits), query "
        "returned %d row(s)"
        % (cold.last_good, cold.first_bad, cold.executed_cells,
           cold.probes, warm.dataset_hits, len(rows))
    )


if __name__ == "__main__":
    main()
