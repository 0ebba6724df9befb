"""Figures as dataset views: manifest-populated regeneration identity.

The contract under test (tiny iteration scale to stay fast): running a
figure's manifest fills the dataset, after which the figure function
regenerates *identical* values through the dataset without executing a
single guest instruction.
"""

import math

import pytest

from repro.analysis import figures
from repro.core.runner import ExperimentRunner
from repro.exp import Dataset, run_manifest

SCALE = 0.02


def deep_equal(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, dict):
        return set(a) == set(b) and all(deep_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(deep_equal(x, y) for x, y in zip(a, b))
    return a == b


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A dataset pre-populated by the figure-2 and figure-7 manifests."""
    dataset = Dataset(tmp_path_factory.mktemp("exp") / "dataset")
    for number in (2, 7):
        manifest = figures.figure_manifest(number, scale=SCALE)
        with ExperimentRunner() as runner:
            result = run_manifest(manifest, runner, dataset=dataset)
        assert result.stats["from_dataset"] == 0
    return dataset


class TestFigureManifests:
    @pytest.mark.parametrize("number", [2, 6, 7, 8])
    def test_manifest_cells_cover_figure_grid(self, number):
        manifest = figures.figure_manifest(number, scale=SCALE)
        assert manifest.name == "figure%d" % number
        assert len(manifest.jobs()) > 0

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="figure"):
            figures.figure_manifest(3)


class TestFigureViews:
    def test_figure2_identical_with_zero_executions(self, warm):
        imperative = figures.figure2(scale=SCALE)
        with ExperimentRunner(dataset=warm) as runner:
            view = figures.figure2(scale=SCALE, runner=runner)
            executed = [
                row for row in runner.cells.values() if row["source"] == "executed"
            ]
        assert executed == []
        assert deep_equal(imperative, view)

    def test_figure7_identical_with_zero_executions(self, warm):
        imperative = figures.figure7(scale=SCALE)
        with ExperimentRunner() as runner:
            view = figures.figure7(scale=SCALE, runner=runner, dataset=warm)
        assert deep_equal(imperative, view)
        # Only figure7's non-executing (static) cells miss the dataset;
        # nothing was executed to regenerate the table.
        fresh = Dataset(warm.root)
        with ExperimentRunner(dataset=fresh) as runner:
            figures.figure7(scale=SCALE, runner=runner)
            assert not [
                row for row in runner.cells.values() if row["source"] == "executed"
            ]

    def test_figure8_from_figure2_panels(self, warm):
        """figure8 composed from dataset-backed figure2/6 data equals
        the imperative one (figure6 cells execute once into the same
        dataset first)."""
        manifest = figures.figure_manifest(6, scale=SCALE)
        with ExperimentRunner() as runner:
            run_manifest(manifest, runner, dataset=warm)
        imperative = figures.figure8(scale=SCALE)
        view = figures.figure8(scale=SCALE, dataset=warm)
        assert deep_equal(imperative, view)

    def test_sweep_accepts_dataset(self, warm):
        from repro.analysis.sweep import VersionSweep
        from repro.arch import ARM
        from repro.core import get_benchmark
        from repro.platform import VEXPRESS

        sweep = VersionSweep(ARM, VEXPRESS, dataset=warm)
        series = sweep.run(get_benchmark("System Call"), iterations=30)
        assert len(series.seconds) == 20
        assert all(s > 0 for s in series.seconds)


class CountingRunner(ExperimentRunner):
    """Counts :meth:`run` calls: each is one grid and one totals fold."""

    calls = 0

    def run(self, specs):
        self.calls += 1
        return ExperimentRunner.run(self, specs)


class TestOneGridPerFigure:
    @pytest.mark.parametrize("name", ["figure2", "figure6"])
    def test_sweep_figure_submits_one_grid(self, warm, name):
        with CountingRunner() as runner:
            getattr(figures, name)(scale=SCALE, runner=runner, dataset=warm)
        assert runner.calls == 1

    def test_warm_pass_makes_five_runner_calls(self, warm):
        with ExperimentRunner() as runner:
            run_manifest(figures.figure_manifest(6, scale=SCALE), runner, dataset=warm)
        with CountingRunner(dataset=warm) as runner:
            figures.figure7(scale=SCALE, runner=runner)
            figures.figure2(scale=SCALE, runner=runner)
            figures.figure6(scale=SCALE, runner=runner)
            figures.figure8(scale=SCALE, runner=runner)
        assert runner.calls == 5
        assert runner.total_stats["executed"] == 0
