"""ExperimentService tests: submission, FIFO scheduling, warm
resubmission, drain semantics and the socket round trip.

Scheduling tests drive :meth:`ExperimentService.run_next_slice`
synchronously (no scheduler thread), so slice order is deterministic
and assertable; the socket tests start the real daemon threads on a
per-test socket.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.exp.dataset import Dataset
from repro.obs.export import read_jsonl
from repro.obs.metrics import METRICS
from repro.serve import (
    PROTOCOL_VERSION,
    ExperimentService,
    ServeClient,
    ServeError,
    ServiceError,
    daemon,
    protocol,
)

SMOKE_GRID = {
    "arch": "arm",
    "engines": ["simit"],
    "benchmarks": ["system-call"],
    "iterations": 4,
}


def adhoc(benchmarks, arch="arm", engines=("simit",), iterations=4):
    return {
        "arch": arch,
        "engines": list(engines),
        "benchmarks": list(benchmarks),
        "iterations": iterations,
    }


@pytest.fixture
def service(tmp_path, monkeypatch):
    monkeypatch.setattr(daemon, "SLICE_SIZE", 1)
    svc = ExperimentService(
        socket_path=os.fspath(tmp_path / "serve.sock"),
        dataset_dir=os.fspath(tmp_path / "dataset"),
    )
    yield svc
    svc.runner.close()


def run_all(service):
    while service.run_next_slice(timeout=0):
        pass


class TestSubmit:
    def test_grid_submission_expands_cells(self, service):
        response = service.submit({"grid": adhoc(["system-call", "tlb-flush"])})
        assert response["cells"] == 2
        assert response["slices"] == 2
        assert response["job"] == "j0001"

    def test_manifest_ref_resolves_daemon_side(self, service):
        response = service.submit({"manifest_ref": "smoke"})
        assert response["cells"] > 0

    def test_manifest_payload_submission(self, service):
        payload = {
            "manifest": {"schema": 1, "name": "inline", "seed": 0},
            "grid": [adhoc(["system-call"])],
        }
        response = service.submit({"manifest": payload})
        assert response["cells"] == 1

    def test_bad_grid_is_refused_at_submit_time(self, service):
        with pytest.raises(ServiceError, match="bad manifest"):
            service.submit({"grid": adhoc(["no-such-benchmark"])})
        assert service.queue.qsize() == 0

    def test_submission_without_body_is_refused(self, service):
        with pytest.raises(ServiceError, match="needs"):
            service.submit({"op": "submit"})

    def test_grid_name_names_the_job(self, service):
        response = service.submit({"grid": SMOKE_GRID, "name": "nightly"})
        assert service._jobs[response["job"]].summary()["name"] == "nightly"

    def test_slices_honour_slice_size(self, tmp_path, monkeypatch):
        monkeypatch.setattr(daemon, "SLICE_SIZE", 2)
        svc = ExperimentService(socket_path=os.fspath(tmp_path / "s.sock"))
        try:
            response = svc.submit(
                {"grid": adhoc(["system-call", "tlb-flush", "tlb-eviction"])}
            )
            assert response["slices"] == 2  # ceil(3 / 2)
        finally:
            svc.runner.close()


class TestScheduling:
    def test_jobs_run_in_submission_order(self, service):
        first = service.submit({"grid": adhoc(["system-call", "tlb-flush"])})
        second = service.submit({"grid": adhoc(["tlb-eviction", "small-blocks"])})
        ran = []
        real_run = service.runner.run

        def spy(specs):
            ran.extend(spec.benchmark.name for spec in specs)
            return real_run(specs)

        service.runner.run = spy
        run_all(service)
        a, b = service._jobs[first["job"]], service._jobs[second["job"]]
        assert a.state == b.state == "done"
        assert ran == [
            spec.benchmark.name for job in (a, b) for spec in job.manifest.jobs()
        ]
        assert a.finished_ns < b.finished_ns

    def test_job_stats_accumulate_across_slices(self, service):
        response = service.submit({"grid": adhoc(["system-call", "tlb-flush"])})
        run_all(service)
        job = service._jobs[response["job"]]
        assert job.state == "done"
        assert job.stats["executed"] == 2
        assert job.stats["dataset_appended"] == 2
        assert len(job.rows) == 2
        assert {row["job"] for row in job.rows} == {response["job"]}

    def test_warm_resubmission_executes_nothing(self, service):
        cold = service.submit({"grid": SMOKE_GRID})
        run_all(service)
        assert service._jobs[cold["job"]].stats["executed"] == 1
        warm = service.submit({"grid": SMOKE_GRID})
        run_all(service)
        job = service._jobs[warm["job"]]
        assert job.state == "done"
        assert job.stats["executed"] == 0
        assert job.stats["from_dataset"] == 1
        assert job.rows[0]["source"] == "dataset"

    def test_service_metrics_track_the_queue(self, service):
        METRICS.reset()
        try:
            service.submit({"grid": adhoc(["system-call", "tlb-flush"])})
            assert METRICS.gauge("serve.queue_depth").value == 2
            assert METRICS.counter("serve.submissions").value == 1
            assert METRICS.counter("serve.cells").value == 2
            run_all(service)
            assert METRICS.gauge("serve.queue_depth").value == 0
            assert METRICS.gauge("serve.inflight_slices").value == 0
            assert METRICS.counter("serve.slices").value == 2
        finally:
            METRICS.reset()

    def test_run_next_slice_empty_queue_returns_false(self, service):
        assert service.run_next_slice(timeout=0) is False

    def test_failed_job_is_not_resurrected_by_later_slices(self, service):
        response = service.submit({"grid": adhoc(["system-call", "tlb-flush"])})
        real_run = service.runner.run
        calls = []

        def explode_once(specs):
            calls.append(specs)
            if len(calls) == 1:
                raise RuntimeError("slice exploded")
            return real_run(specs)

        service.runner.run = explode_once
        run_all(service)
        job = service._jobs[response["job"]]
        assert job.state == "failed"
        assert "slice exploded" in job.error
        # The second slice was dropped, not executed into a "done"
        # overwrite of the failure.
        assert len(calls) == 1
        assert job.slices_done == 1
        assert job.stats["executed"] == 0
        assert job.rows == []


class TestDrain:
    def test_drain_cancels_queued_jobs(self, service):
        queued = service.submit({"grid": adhoc(["system-call"])})
        service.drain()
        job = service._jobs[queued["job"]]
        assert job.state == "drained"
        assert job.done.is_set()
        assert service.queue.qsize() == 0

    def test_submit_after_drain_is_refused(self, service):
        service.drain()
        with pytest.raises(ServiceError, match="draining"):
            service.submit({"grid": adhoc(["system-call"])})

    def test_drain_is_idempotent(self, service):
        service.drain()
        service.drain()

    def test_completed_work_survives_drain(self, service):
        done = service.submit({"grid": SMOKE_GRID})
        run_all(service)
        queued = service.submit({"grid": adhoc(["tlb-flush"])})
        service.drain()
        assert service._jobs[done["job"]].state == "done"
        assert service._jobs[queued["job"]].state == "drained"


    def test_drain_lets_the_inflight_slice_finish(self, service):
        response = service.submit({"grid": adhoc(["system-call", "tlb-flush"])})
        real_run = service.runner.run

        def drain_midway(specs):
            service.drain()  # arrives while this slice is in flight
            return real_run(specs)

        service.runner.run = drain_midway
        run_all(service)
        job = service._jobs[response["job"]]
        # The in-flight slice completed and its stats count; the queued
        # one was cancelled.
        assert job.state == "drained"
        assert job.slices_done == 1
        assert job.stats["executed"] == 1
        assert len(job.rows) == 1
        assert len(service.dataset.rows()) == 1

    def test_serve_forever_returns_zero_after_drain(self, tmp_path):
        sock = os.fspath(tmp_path / "serve.sock")
        svc = ExperimentService(socket_path=sock).start()
        job_id = svc.submit({"grid": SMOKE_GRID})["job"]
        assert svc._jobs[job_id].done.wait(60)
        exits = []
        server = threading.Thread(
            target=lambda: exits.append(svc.serve_forever()), daemon=True
        )
        server.start()
        svc.drain()
        server.join(timeout=30)
        assert exits == [0], "serve_forever did not return after a drain"
        assert not svc._scheduler.is_alive()
        assert not os.path.exists(sock)
        assert svc._jobs[job_id].state == "done"


class TestRequests:
    def test_unknown_op_is_an_error_response(self, service):
        response = service.handle_request({"op": "frobnicate"})
        assert response["ok"] is False
        assert "frobnicate" in response["error"]

    def test_ping_reports_identity(self, service):
        response = service.handle_request({"op": "ping"})
        assert response["ok"] is True
        assert response["protocol"] == PROTOCOL_VERSION == 3
        assert response["pid"] == os.getpid()

    def test_status_unknown_job_is_refused(self, service):
        response = service.handle_request({"op": "status", "job": "j9999"})
        assert response["ok"] is False

    def test_request_exceptions_never_escape(self, service):
        response = service.handle_request({"op": "submit", "grid": 42})
        assert response["ok"] is False

    def test_wait_timeout_zero_answers_at_once(self, service):
        job_id = service.submit({"grid": SMOKE_GRID})["job"]
        answers = []
        waiter = threading.Thread(
            target=lambda: answers.append(
                service.handle_request({"op": "wait", "job": job_id, "timeout": 0})
            ),
            daemon=True,
        )
        waiter.start()
        waiter.join(timeout=10)
        try:
            assert answers, "wait with timeout 0 blocked on a queued job"
            assert answers[0]["ok"] is False
            assert "timed out" in answers[0]["error"]
        finally:
            service._jobs[job_id].done.set()  # release a blocked waiter

    def test_status_with_rows_returns_the_jobs_rows(self, service):
        job_id = service.submit({"grid": SMOKE_GRID})["job"]
        run_all(service)
        bare = service.handle_request({"op": "status", "job": job_id})
        assert "rows" not in bare
        full = service.handle_request({"op": "status", "job": job_id, "rows": True})
        assert full["job"]["state"] == "done"
        assert [row["benchmark"] for row in full["rows"]] == ["System Call"]

    def test_wait_on_a_finished_job_answers_rows(self, service):
        job_id = service.submit({"grid": SMOKE_GRID})["job"]
        run_all(service)
        response = service.handle_request({"op": "wait", "job": job_id, "timeout": 0})
        assert response["ok"] is True
        assert response["job"]["state"] == "done"
        assert response["rows"][0]["status"] == "ok"

    def test_responses_carry_no_tenancy_keys(self, service):
        job_id = service.submit({"grid": SMOKE_GRID})["job"]
        run_all(service)
        summary = service.handle_request({"op": "status", "job": job_id})["job"]
        assert not {"tenant", "priority"} & set(summary)
        assert not {"tenant", "priority"} & set(service._jobs[job_id].rows[0])
        assert "tenants" not in service.handle_request({"op": "status"})

    def test_service_status_counts_states(self, service):
        service.submit({"grid": SMOKE_GRID})
        run_all(service)
        service.submit({"grid": adhoc(["tlb-flush"])})
        response = service.handle_request({"op": "status"})
        assert response["ok"] is True
        assert response["states"] == {"done": 1, "queued": 1}
        assert response["queue_depth"] == 1

    def test_only_the_newest_finished_jobs_are_kept(self, service, monkeypatch):
        monkeypatch.setattr(daemon, "FINISHED_JOBS_KEPT", 2)
        ids = []
        for name in ("system-call", "tlb-flush", "undefined-instruction", "small-blocks"):
            ids.append(service.submit({"grid": adhoc([name])})["job"])
            run_all(service)
        queued = service.submit({"grid": SMOKE_GRID})["job"]
        response = service.handle_request({"op": "status"})
        assert response["states"] == {"done": 2, "queued": 1}
        assert [job["id"] for job in response["jobs"]] == ids[2:] + [queued]
        for job_id in ids[:2]:
            answer = service.handle_request({"op": "status", "job": job_id})
            assert answer["ok"] is False
            assert "unknown job" in answer["error"]
        assert service.handle_request({"op": "status", "job": ids[3]})["ok"] is True

    def test_slices_of_a_forgotten_failed_job_are_dropped(self, service, monkeypatch):
        monkeypatch.setattr(daemon, "FINISHED_JOBS_KEPT", 0)
        job_id = service.submit({"grid": adhoc(["system-call", "tlb-flush"])})["job"]

        def explode(specs):
            raise RuntimeError("slice exploded")

        service.runner.run = explode
        run_all(service)
        assert job_id not in service._jobs
        assert service.queue.qsize() == 0


class TestRunnerState:
    def test_identical_submissions_keep_one_row_per_cell(self, service):
        grid = adhoc(["system-call", "tlb-flush"])
        jobs = []
        for _ in range(5):
            jobs.append(service.submit({"grid": grid})["job"])
            run_all(service)
        assert len(service.runner.cells) == 2
        assert [row["submitted"] for row in service.runner.cells.values()] == [5, 5]
        for job_id in jobs:
            assert len(service._jobs[job_id].rows) == 2

    def test_job_failures_count_failing_rows(self, service):
        job_id = service.submit({"grid": adhoc(["system-call"])})["job"]
        run_all(service)
        job = service._jobs[job_id]
        assert job.summary()["failures"] == 0
        job.rows[0]["status"] = "crashed"
        assert job.summary()["failures"] == 1


class TestMetricsExport:
    def test_serve_export_keeps_the_cells_of_forgotten_jobs(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(daemon, "FINISHED_JOBS_KEPT", 1)
        sock = os.fspath(tmp_path / "serve.sock")
        out = tmp_path / "serve.jsonl"
        names = ["system-call", "tlb-flush", "small-blocks"]
        errors = []

        def client_side():
            client = ServeClient(sock)
            try:
                deadline = time.monotonic() + 20
                while not client.is_up():
                    assert time.monotonic() < deadline, "daemon never came up"
                    time.sleep(0.05)
                for name in names:
                    client.wait(client.submit(grid=adhoc([name]))["job"], timeout=60)
            except BaseException as exc:
                errors.append(exc)
            finally:
                client.drain()

        handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)}
        thread = threading.Thread(target=client_side, daemon=True)
        thread.start()
        try:
            args = ["serve", "--socket", sock, "--metrics-out", os.fspath(out)]
            assert main(args) == 0
        finally:
            for sig, handler in handlers.items():
                signal.signal(sig, handler)
        thread.join(timeout=30)
        assert errors == []
        jobs = [line for line in read_jsonl(out) if line["type"] == "job"]
        assert sorted(job["benchmark"] for job in jobs) == [
            "Small Blocks", "System Call", "TLB Flush",
        ]
        assert len({job["cell_id"] for job in jobs}) == 3


class TestSocket:
    def test_round_trip_over_the_socket(self, tmp_path):
        sock = os.fspath(tmp_path / "serve.sock")
        with ExperimentService(
            socket_path=sock, dataset_dir=os.fspath(tmp_path / "ds")
        ).start():
            client = ServeClient(sock)
            assert client.ping()["ok"] is True
            response = client.submit(grid=SMOKE_GRID)
            final = client.wait(response["job"], timeout=60)
            assert final["job"]["state"] == "done"
            assert final["job"]["executed"] == 1
            assert final["rows"][0]["status"] == "ok"
            overview = client.status()
            assert overview["states"] == {"done": 1}
            with pytest.raises(ServeError, match="unknown job"):
                client.wait("j9999", timeout=1)
        assert not os.path.exists(sock)  # stop() removed the socket

    def test_second_daemon_on_live_socket_is_refused(self, tmp_path):
        sock = os.fspath(tmp_path / "serve.sock")
        with ExperimentService(socket_path=sock).start():
            other = ExperimentService(socket_path=sock)
            try:
                with pytest.raises(ServiceError, match="already serving"):
                    other.start()
            finally:
                other.runner.close()

    def test_stale_socket_is_reclaimed(self, tmp_path):
        sock = tmp_path / "serve.sock"
        import socket as socket_mod

        dead = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        dead.bind(os.fspath(sock))
        dead.close()  # bound but never listening: connect will fail
        with ExperimentService(socket_path=os.fspath(sock)).start():
            assert ServeClient(os.fspath(sock)).is_up()

    def test_malformed_frame_is_answered_and_daemon_keeps_serving(self, tmp_path):
        sock = os.fspath(tmp_path / "serve.sock")
        with ExperimentService(socket_path=sock).start():
            with protocol.connect(sock, timeout=10) as stream:
                stream._sock.sendall(b"{not json\n")
                response = stream.recv()
            assert response["ok"] is False
            assert "undecodable" in response["error"]
            assert ServeClient(sock).ping()["ok"] is True

    def test_client_refuses_a_daemon_of_another_protocol(self, tmp_path, monkeypatch):
        sock = os.fspath(tmp_path / "serve.sock")
        with ExperimentService(socket_path=sock).start():
            monkeypatch.setattr(daemon, "PROTOCOL_VERSION", PROTOCOL_VERSION - 1)
            client = ServeClient(sock)
            with pytest.raises(protocol.ProtocolError, match="speaks protocol"):
                client.ping()
            assert client.is_up() is False

    def test_client_errors_when_no_daemon(self, tmp_path):
        client = ServeClient(os.fspath(tmp_path / "nothing.sock"))
        assert client.is_up() is False
        with pytest.raises(OSError):
            client.ping()


class TestManifestEquivalence:
    def test_service_stores_what_manifest_run_stores(self, service, tmp_path):
        response = service.submit({"manifest_ref": "smoke"})
        run_all(service)
        assert service._jobs[response["job"]].state == "done"
        cli_dir = os.fspath(tmp_path / "cli-dataset")
        assert main(["manifest", "run", "smoke", "--dataset-dir", cli_dir]) == 0

        def rows_by_cell(dataset):
            # The provenance stamp is a host measurement; everything
            # else must match exactly.
            out = {}
            for row in dataset.rows():
                row = dict(row)
                row.pop("provenance")
                out[row["cell"]] = row
            return out

        served = rows_by_cell(service.dataset)
        assert len(served) == response["cells"]
        assert served == rows_by_cell(Dataset(cli_dir))


class TestSigtermDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        sock = os.fspath(tmp_path / "serve.sock")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--socket",
                sock,
                "--dataset-dir",
                os.fspath(tmp_path / "ds"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            client = ServeClient(sock)
            deadline = time.monotonic() + 20
            while not client.is_up():
                assert time.monotonic() < deadline, "daemon never came up"
                assert proc.poll() is None, proc.communicate()
                time.sleep(0.1)
            response = client.submit(grid=SMOKE_GRID)
            client.wait(response["job"], timeout=60)
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, err
        assert "draining" in err
        assert not os.path.exists(sock)
        # The drain leaves the job's rows and writes nothing else.
        assert Dataset(tmp_path / "ds").stats()["entries"] > 0
        assert not list((tmp_path / "ds").glob("_totals*"))
