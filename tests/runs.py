"""Single-cell runs through the experiment runner, for tests."""

from repro.core import ExperimentRunner, JobSpec


def run_cell(runner, benchmark, simulator, arch, platform, iterations=None):
    """Run one cell on ``runner`` (``None``: a fresh serial runner) and
    return its :class:`~repro.core.benchmark.BenchmarkResult`.
    ``simulator`` is an engine spec or a registry name."""
    if runner is None:
        runner = ExperimentRunner()
    [result] = runner.run(
        [JobSpec(benchmark, simulator, arch, platform, iterations=iterations)]
    )
    return result
