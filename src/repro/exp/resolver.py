"""A compatibility adapter over the dataset-backed runner.

Dataset resolution is part of
:class:`~repro.core.runner.ExperimentRunner` (``dataset=``); this module
only keeps the older wrapper spelling working for scripts that still
use it.  Nothing in the package uses it.
"""


class DatasetResolver:
    """Run ``runner`` against ``dataset``, stamping ``manifest``."""

    def __init__(self, runner, dataset, manifest=None):
        self.runner = runner
        self.dataset = dataset
        self.manifest = manifest

    def run(self, specs):
        self.runner.dataset = self.dataset
        self.runner.manifest = self.manifest
        return self.runner.run(specs)

    @property
    def last_stats(self):
        return self.runner.last_stats

    @property
    def last_jobs(self):
        return self.runner.last_jobs
