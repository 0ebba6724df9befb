"""CLI tests (``python -m repro``)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_simulator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--sim", "bochs"])


class TestListCommand:
    def test_lists_inventory(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Small Blocks" in out
        assert "qemu-dbt" in out
        assert "v2.5.0-rc2" in out
        assert "mcf" in out


class TestEnginesCommand:
    def test_describes_registry_with_features(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ("qemu-dbt", "simit", "gem5", "qemu-kvm", "native"):
            assert name in out
        assert "structural options" in out
        assert "pricing options" in out
        assert "Execution Model" in out  # Figure 4 feature rows

    def test_no_features_flag(self, capsys):
        assert main(["engines", "--no-features"]) == 0
        out = capsys.readouterr().out
        assert "structural options" in out
        assert "Execution Model" not in out


class TestEngineOptions:
    def test_engine_opt_configures_spec(self, capsys):
        assert main([
            "run", "System Call", "--sim", "simit",
            "--engine-opt", "tlb_capacity=16",
            "--engine-opt", "asid_tagged=true",
            "--iterations", "20",
        ]) == 0
        assert "System Call" in capsys.readouterr().out

    def test_unknown_engine_opt_exits_2(self, capsys):
        code = main([
            "run", "System Call", "--sim", "simit",
            "--engine-opt", "bogus=1",
        ])
        assert code == 2
        assert "unknown engine option" in capsys.readouterr().err

    def test_removed_opt_level_exits_2(self, capsys):
        # The DBT has one lowering path, so there is no tier to select.
        code = main([
            "run", "System Call", "--sim", "qemu-dbt",
            "--engine-opt", "opt_level=2",
        ])
        assert code == 2
        assert "unknown engine option" in capsys.readouterr().err

    def test_malformed_engine_opt_exits_2(self, capsys):
        code = main([
            "run", "System Call", "--sim", "simit",
            "--engine-opt", "tlb_capacity",
        ])
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_engine_opt_exits_2(self, raw, capsys):
        code = main([
            "run", "System Call", "--sim", "simit",
            "--engine-opt", "tlb_capacity=%s" % raw,
        ])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err


class TestRunCommand:
    def test_run_benchmark(self, capsys):
        assert main(["run", "System Call", "--sim", "simit", "--iterations", "50"]) == 0
        out = capsys.readouterr().out
        assert "System Call" in out
        assert "50 iterations" in out
        assert "50,000,000" in out  # the paper's count is reported too

    def test_not_applicable_is_reported(self, capsys):
        code = main(["run", "Nonprivileged Access", "--sim", "simit", "--arch", "x86"])
        assert code == 0
        assert "not-applicable" in capsys.readouterr().out

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            main(["run", "Bogus Benchmark"])

    def test_wallclock_timing(self, capsys):
        assert main([
            "run", "System Call", "--sim", "simit",
            "--iterations", "20", "--timing", "wallclock",
        ]) == 0


class TestSuiteCommand:
    def test_small_suite(self, capsys):
        assert main(["suite", "--sim", "simit", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert out.count("iterations") >= 17


class TestRunnerOptions:
    def test_suite_parallel_with_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["suite", "--sim", "simit", "--scale", "0.05", "--cache-dir", cache_dir]
        assert main(args + ["--jobs", "2"]) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == cold  # warm run reproduces the cold run
        assert "cache hits" in captured.err

    def test_fault_knobs_accepted_on_clean_run(self, capsys):
        # --deadline/--retries/--keep-going parse and a clean grid
        # still exits 0 with no failure summary.
        args = ["suite", "--sim", "simit", "--scale", "0.05",
                "--deadline", "60", "--retries", "2", "--keep-going"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "cell(s) failed" not in captured.err

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["suite", "--sim", "simit", "--scale", "0.05",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries: 18" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 18" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out


class TestManifestCommand:
    def _write_tiny(self, tmp_path):
        from repro.exp import Manifest

        manifest = Manifest(
            {
                "manifest": {"schema": 1, "name": "cli-tiny", "seed": 0},
                "runner": {"scale": 0.02},
                "grid": [
                    {
                        "arch": "arm",
                        "platform": "vexpress",
                        "engines": ["simit"],
                        "benchmarks": ["tlb-*"],
                    }
                ],
            }
        )
        path = tmp_path / "tiny.toml"
        path.write_text(manifest.to_toml())
        return str(path), manifest

    def test_show_bundled(self, capsys):
        assert main(["manifest", "show", "smoke", "--cells"]) == 0
        out = capsys.readouterr().out
        assert "manifest smoke" in out
        assert "TLB Flush" in out

    def test_run_twice_second_executes_nothing(self, tmp_path, capsys):
        path, _ = self._write_tiny(tmp_path)
        dataset_dir = str(tmp_path / "ds")
        args = ["manifest", "run", path, "--dataset-dir", dataset_dir]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "2 executed" in cold.err
        assert main(args) == 0
        warm = capsys.readouterr()
        assert "0 executed" in warm.err
        assert "2 from dataset" in warm.err
        # Result tables (stdout) diff clean between cold and warm runs.
        assert warm.out == cold.out

    def test_diff(self, capsys):
        assert main(["manifest", "diff", "smoke", "figure7"]) == 0
        out = capsys.readouterr().out
        assert "0 common cell(s)" in out
        assert "only in figure7" in out

    def test_diff_needs_two(self, capsys):
        assert main(["manifest", "diff", "smoke"]) == 2
        assert "two manifests" in capsys.readouterr().err

    def test_unknown_manifest_exits_2(self, capsys):
        assert main(["manifest", "show", "no-such"]) == 2
        assert "bundled" in capsys.readouterr().err


class TestQueryCommand:
    def _populate(self, tmp_path, capsys):
        dataset_dir = str(tmp_path / "ds")
        manifest_path, manifest = TestManifestCommand()._write_tiny(tmp_path)
        assert main(["manifest", "run", manifest_path,
                     "--dataset-dir", dataset_dir]) == 0
        capsys.readouterr()
        return dataset_dir

    def test_query_matches(self, tmp_path, capsys):
        dataset_dir = self._populate(tmp_path, capsys)
        assert main(["query", "engine=simit", "bench=tlb-*",
                     "--dataset-dir", dataset_dir]) == 0
        captured = capsys.readouterr()
        assert "TLB Flush" in captured.out
        assert "2 row(s)" in captured.err

    def test_query_no_match_exits_1(self, tmp_path, capsys):
        dataset_dir = self._populate(tmp_path, capsys)
        assert main(["query", "engine=gem5", "--dataset-dir", dataset_dir]) == 1
        assert "0 row(s)" in capsys.readouterr().err

    def test_query_parse_error_exits_2(self, tmp_path, capsys):
        assert main(["query", "bogus=1",
                     "--dataset-dir", str(tmp_path / "ds")]) == 2
        assert "unknown query key" in capsys.readouterr().err

    def test_cache_stats_covers_dataset(self, tmp_path, capsys):
        dataset_dir = self._populate(tmp_path, capsys)
        assert main(["cache", "stats", "--dataset-dir", dataset_dir]) == 0
        out = capsys.readouterr().out
        assert "dataset %s" % dataset_dir in out
        assert "entries: 2" in out
        assert "quarantined" in out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path / "nope"),
                     "--dataset-dir", dataset_dir]) == 0
        assert "removed 2 dataset rows" in capsys.readouterr().out

    def test_suite_with_dataset_dir(self, tmp_path, capsys):
        dataset_dir = str(tmp_path / "ds")
        args = ["suite", "--sim", "simit", "--scale", "0.05",
                "--dataset-dir", dataset_dir]
        assert main(args) == 0
        first = capsys.readouterr()
        assert main(args) == 0
        second = capsys.readouterr()
        assert "0 executed" in second.err
        assert "from dataset" in second.err
        assert first.out == second.out


class TestFigureCommand:
    def test_figure1(self, capsys):
        assert main(["figure", "1"]) == 0
        assert "Full-system" in capsys.readouterr().out

    def test_figure4(self, capsys):
        assert main(["figure", "4"]) == 0
        assert "Block Chaining" in capsys.readouterr().out

    def test_figure5(self, capsys):
        assert main(["figure", "5"]) == 0
        assert "vexpress" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "12"]) == 2


class TestSweepCommand:
    def test_sweep(self, capsys):
        assert main(["sweep", "System Call", "--iterations", "20"]) == 0
        out = capsys.readouterr().out
        assert "v1.7.0" in out and "v2.5.0-rc2" in out


class TestCompareCommand:
    def test_side_by_side(self, capsys):
        assert main(["compare", "--sims", "qemu-dbt,simit", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Ratio simit/qemu-dbt" in out
        assert "Hot Memory Access" in out

    def test_unknown_simulator(self, capsys):
        assert main(["compare", "--sims", "qemu-dbt,bochs", "--scale", "0.05"]) == 2


class TestReportCommand:
    def test_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "R.md"
        assert main(["report", "--output", str(out_path), "--scale", "0.05"]) == 0
        assert out_path.exists()
        assert "# SimBench reproduction report" in out_path.read_text()


class TestDetectCommand:
    def test_detect_interpreter(self, capsys):
        assert main(["detect", "simit"]) == 0
        assert "interpreter" in capsys.readouterr().out


class TestFailureSummary:
    def _failed_runner(self):
        from repro.arch import ARM
        from repro.core import ExperimentRunner, JobSpec
        from repro.platform import VEXPRESS
        from tests.core.test_faults import CrashingBenchmark

        runner = ExperimentRunner()
        runner.run([JobSpec(CrashingBenchmark(), "simit", ARM, VEXPRESS)])
        return runner

    def test_failures_exit_distinct_status_with_summary(self, capsys):
        import argparse

        from repro.cli import EXIT_GRID_FAILURES, _failure_summary

        runner = self._failed_runner()
        code = _failure_summary(argparse.Namespace(keep_going=False), runner)
        assert code == EXIT_GRID_FAILURES == 3
        err = capsys.readouterr().err
        assert "1 cell(s) failed" in err
        assert "Crashing Cell" in err and "crashed" in err

    def test_keep_going_suppresses_failure_exit(self, capsys):
        from repro.cli import _failure_summary

        runner = self._failed_runner()
        code = _failure_summary(
            __import__("argparse").Namespace(keep_going=True), runner
        )
        assert code == 0
        # The summary is still printed; only the exit status changes.
        assert "Crashing Cell" in capsys.readouterr().err


class TestBrokenPipe:
    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    def test_broken_pipe_exits_quietly(self, stream, monkeypatch):
        # A broken stdout *or* stderr pipe (e.g. `repro suite | head`
        # with the failure summary mid-flight) must exit 0, not
        # traceback.  Real streams are replaced so the handler's
        # devnull redirection cannot touch pytest's capture fds (their
        # fileno() raising exercises the handler's degraded path).
        import io
        import sys as _sys

        import repro.cli as cli

        def _boom(_args):
            raise BrokenPipeError("broken %s" % stream)

        monkeypatch.setitem(cli._COMMANDS, "list", _boom)
        monkeypatch.setattr(_sys, "stdout", io.StringIO())
        monkeypatch.setattr(_sys, "stderr", io.StringIO())
        assert main(["list"]) == 0


class TestServeCommands:
    def test_submit_without_daemon_exits_1(self, tmp_path, capsys):
        sock = str(tmp_path / "nothing.sock")
        assert main(["submit", "smoke", "--socket", sock]) == 1
        assert "no daemon" in capsys.readouterr().err

    def test_status_without_daemon_exits_1(self, tmp_path, capsys):
        sock = str(tmp_path / "nothing.sock")
        assert main(["status", "--socket", sock]) == 1
        assert "no daemon" in capsys.readouterr().err

    def test_submit_needs_a_manifest_or_adhoc(self, tmp_path, capsys):
        sock = str(tmp_path / "nothing.sock")
        assert main(["submit", "--socket", sock]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_bad_tenant_weight_exits_2(self, tmp_path, capsys):
        assert (
            main(
                [
                    "serve",
                    "--socket",
                    str(tmp_path / "s.sock"),
                    "--tenant-weight",
                    "broken",
                ]
            )
            == 2
        )
        assert "TENANT=WEIGHT" in capsys.readouterr().err

    def test_submit_and_wait_against_a_live_service(self, tmp_path, capsys):
        from repro.serve import ExperimentService

        sock = str(tmp_path / "serve.sock")
        with ExperimentService(
            socket_path=sock, dataset_dir=str(tmp_path / "ds")
        ).start():
            assert (
                main(
                    [
                        "submit",
                        "--adhoc",
                        "--sims",
                        "simit",
                        "--benchmarks",
                        "system-call",
                        "--iterations",
                        "4",
                        "--wait",
                        "--timeout",
                        "60",
                        "--socket",
                        sock,
                    ]
                )
                == 0
            )
            captured = capsys.readouterr()
            assert "submitted j0001" in captured.err
            assert "j0001" in captured.out
            assert main(["status", "--socket", sock]) == 0
            assert "done" in capsys.readouterr().out
            assert main(["wait", "j0001", "--rows", "--socket", sock]) == 0
            out = capsys.readouterr().out
            assert "j0001" in out
            assert "System Call" in out
