"""Single-cell runs through the experiment runner, for tests."""

from repro.core import ExperimentRunner, JobSpec


def run_cell(runner, benchmark, simulator, arch, platform, **job):
    """Run one cell on ``runner`` (``None``: a fresh serial runner) and
    return its :class:`~repro.core.benchmark.BenchmarkResult`.
    ``job`` holds :class:`JobSpec`'s keyword arguments (``iterations``,
    ``dbt_config``, ``sim_kwargs``)."""
    if runner is None:
        runner = ExperimentRunner()
    [result] = runner.run([JobSpec(benchmark, simulator, arch, platform, **job)])
    return result
