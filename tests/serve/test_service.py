"""ExperimentService tests: submission, fair scheduling, warm
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
import time

import pytest

from repro.serve import (
    ExperimentService,
    ServeClient,
    ServeError,
    ServiceError,
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
def service(tmp_path):
    svc = ExperimentService(
        socket_path=os.fspath(tmp_path / "serve.sock"),
        dataset_dir=os.fspath(tmp_path / "dataset"),
        slice_size=1,
    )
    yield svc
    svc.runner.close()


def run_all(service):
    while service.run_next_slice(timeout=0):
        pass


class TestSubmit:
    def test_grid_submission_expands_cells(self, service):
        response = service.submit(
            {"grid": adhoc(["system-call", "tlb-flush"]), "tenant": "t"}
        )
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
        assert service.queue.depth() == 0

    def test_submission_without_body_is_refused(self, service):
        with pytest.raises(ServiceError, match="needs"):
            service.submit({"op": "submit"})

    def test_slices_honour_slice_size(self, tmp_path):
        svc = ExperimentService(
            socket_path=os.fspath(tmp_path / "s.sock"), slice_size=2
        )
        try:
            response = svc.submit(
                {"grid": adhoc(["system-call", "tlb-flush", "tlb-eviction"])}
            )
            assert response["slices"] == 2  # ceil(3 / 2)
        finally:
            svc.runner.close()


class TestScheduling:
    def test_two_tenants_interleave_slice_by_slice(self, service):
        a = service.submit(
            {"grid": adhoc(["system-call", "tlb-flush"]), "tenant": "alice"}
        )
        b = service.submit(
            {"grid": adhoc(["tlb-eviction", "small-blocks"]), "tenant": "bob"}
        )
        run_all(service)
        tenants = [tenant for _job, tenant in service.slice_log]
        assert tenants == ["alice", "bob", "alice", "bob"]
        for job_id in (a["job"], b["job"]):
            assert service._jobs[job_id].state == "done"

    def test_priority_orders_one_tenants_lane(self, service):
        low = service.submit(
            {"grid": adhoc(["system-call"]), "tenant": "t", "priority": 0}
        )
        high = service.submit(
            {"grid": adhoc(["tlb-flush"]), "tenant": "t", "priority": 5}
        )
        run_all(service)
        order = [job for job, _tenant in service.slice_log]
        assert order == [high["job"], low["job"]]

    def test_job_stats_accumulate_across_slices(self, service):
        response = service.submit(
            {"grid": adhoc(["system-call", "tlb-flush"]), "tenant": "t"}
        )
        run_all(service)
        job = service._jobs[response["job"]]
        assert job.state == "done"
        assert job.stats["executed"] == 2
        assert job.stats["dataset_appended"] == 2
        assert len(job.rows) == 2
        assert {row["tenant"] for row in job.rows} == {"t"}
        assert {row["job"] for row in job.rows} == {response["job"]}

    def test_warm_resubmission_executes_nothing(self, service):
        cold = service.submit({"grid": SMOKE_GRID, "tenant": "t"})
        run_all(service)
        assert service._jobs[cold["job"]].stats["executed"] == 1
        warm = service.submit({"grid": SMOKE_GRID, "tenant": "t"})
        run_all(service)
        job = service._jobs[warm["job"]]
        assert job.state == "done"
        assert job.stats["executed"] == 0
        assert job.stats["from_dataset"] == 1
        assert job.rows[0]["source"] == "dataset"

    def test_run_next_slice_empty_queue_returns_false(self, service):
        assert service.run_next_slice(timeout=0) is False

    def test_failed_job_is_not_resurrected_by_later_slices(self, service):
        response = service.submit(
            {"grid": adhoc(["system-call", "tlb-flush"]), "tenant": "t"}
        )
        job_id = response["job"]

        def explode(_specs):
            raise RuntimeError("slice exploded")

        service.runner.run = explode
        run_all(service)
        job = service._jobs[job_id]
        assert job.state == "failed"
        assert "slice exploded" in job.error
        # The second slice was dropped, not executed into a "done"
        # overwrite of the failure.
        assert all(logged != (job_id, "t") for logged in service.slice_log)


class TestDrain:
    def test_drain_cancels_queued_jobs(self, service):
        queued = service.submit({"grid": adhoc(["system-call"]), "tenant": "t"})
        service.drain()
        job = service._jobs[queued["job"]]
        assert job.state == "drained"
        assert job.done.is_set()
        assert service.queue.depth() == 0

    def test_submit_after_drain_is_refused(self, service):
        service.drain()
        with pytest.raises(ServiceError, match="draining"):
            service.submit({"grid": adhoc(["system-call"])})

    def test_drain_is_idempotent(self, service):
        service.drain()
        service.drain()

    def test_completed_work_survives_drain(self, service):
        done = service.submit({"grid": SMOKE_GRID, "tenant": "t"})
        run_all(service)
        queued = service.submit({"grid": adhoc(["tlb-flush"]), "tenant": "t"})
        service.drain()
        assert service._jobs[done["job"]].state == "done"
        assert service._jobs[queued["job"]].state == "drained"


class TestRequests:
    def test_unknown_op_is_an_error_response(self, service):
        response = service.handle_request({"op": "frobnicate"})
        assert response["ok"] is False
        assert "frobnicate" in response["error"]

    def test_ping_reports_identity(self, service):
        response = service.handle_request({"op": "ping"})
        assert response["ok"] is True
        assert response["protocol"] == 1
        assert response["pid"] == os.getpid()

    def test_status_unknown_job_is_refused(self, service):
        response = service.handle_request({"op": "status", "job": "j9999"})
        assert response["ok"] is False

    def test_request_exceptions_never_escape(self, service):
        response = service.handle_request({"op": "submit", "grid": 42})
        assert response["ok"] is False

    def test_service_status_counts_states(self, service):
        service.submit({"grid": SMOKE_GRID, "tenant": "t"})
        run_all(service)
        service.submit({"grid": adhoc(["tlb-flush"]), "tenant": "t"})
        response = service.handle_request({"op": "status"})
        assert response["ok"] is True
        assert response["states"] == {"done": 1, "queued": 1}
        assert response["queue_depth"] == 1


class TestSocket:
    def test_round_trip_over_the_socket(self, tmp_path):
        sock = os.fspath(tmp_path / "serve.sock")
        with ExperimentService(
            socket_path=sock, dataset_dir=os.fspath(tmp_path / "ds")
        ).start():
            client = ServeClient(sock, tenant="t")
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

    def test_client_errors_when_no_daemon(self, tmp_path):
        client = ServeClient(os.fspath(tmp_path / "nothing.sock"))
        assert client.is_up() is False
        with pytest.raises(OSError):
            client.ping()


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
        assert os.path.exists(tmp_path / "ds" / "_totals.json")
