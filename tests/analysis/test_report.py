"""Report-generation tests."""

import pytest

from repro.analysis.report import generate_report, write_report


@pytest.fixture(scope="module")
def report_text():
    return generate_report(scale=0.1, timestamp="2026-07-06T00:00:00")


class TestReport:
    def test_contains_every_section(self, report_text):
        for heading in (
            "# SimBench reproduction report",
            "## Figure 4",
            "## Figure 7",
            "## Figure 2",
            "## Figure 6",
            "## Figure 8",
            "## Figure 3",
            "## Contribution 3",
            "Section III-B.1",
            "Section III-B.2",
        ):
            assert heading in report_text

    def test_timestamp_injected(self, report_text):
        assert "2026-07-06T00:00:00" in report_text

    def test_daggers_and_dashes_present(self, report_text):
        assert "(dagger)" in report_text

    def test_write_report(self, tmp_path, report_text):
        path = write_report(tmp_path / "r.md", scale=0.05)
        assert path.exists()
        assert path.read_text().startswith("# SimBench reproduction report")


class TestReportFromDataset:
    def test_warm_report_executes_nothing(self, tmp_path):
        from repro.core import ExperimentRunner
        from repro.exp import Dataset

        timestamp = "2026-07-06T00:00:00"
        # Without a dataset the runner reuses what its earlier runs
        # executed, so shared cells execute once there too.
        plain = ExperimentRunner()
        reference = generate_report(scale=0.05, timestamp=timestamp, runner=plain)
        assert plain.total_stats["executed"] == 206
        assert all(
            cell["sources"].get("executed", 0) <= 1 for cell in plain.cells.values()
        )
        texts = []
        executed = []
        for _ in range(2):
            runner = ExperimentRunner(dataset=Dataset(tmp_path / "ds"))
            texts.append(generate_report(scale=0.05, timestamp=timestamp, runner=runner))
            executed.append(runner.total_stats["executed"])
        assert texts == [reference, reference]
        # Sections share cells: the cold pass executes each unique cell
        # once (206 at this scale), the warm pass none.
        assert executed[0] <= 206
        assert executed[1] == 0
