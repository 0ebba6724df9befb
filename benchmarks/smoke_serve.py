"""Experiment-service smoke: the serve/submit/wait loop end to end.

Starts a real ``repro serve`` daemon (subprocess, 2 workers, throwaway
dataset), then gates the service contract:

1. two clients concurrently submit the bundled ``smoke`` manifest plus
   ad-hoc grids -- every job must finish ``done`` with zero failures,
   and jobs must finish in submission order (job ids are assigned in
   submission order, and the service runs one FIFO queue);
2. a warm resubmission of the same manifest must execute **zero**
   cells (every cell priced from the dataset);
3. SIGTERM must drain gracefully: exit code 0 and no dataset rows
   lost (the warm pass's row count survives the restart), and the
   jobs' ``dataset_appended`` counts add up to the rows on disk.

Runnable standalone: ``PYTHONPATH=src python benchmarks/smoke_serve.py``.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.serve import ServeClient

SOCKET_WAIT_S = 20.0
DRAIN_WAIT_S = 60.0


def _start_daemon(root, sock):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            sock,
            "--dataset-dir",
            os.path.join(root, "dataset"),
            "--jobs",
            "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    client = ServeClient(sock)
    deadline = time.monotonic() + SOCKET_WAIT_S
    while time.monotonic() < deadline:
        if client.is_up():
            return proc
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    out, err = proc.communicate(timeout=5)
    raise SystemExit("daemon never came up\n%s%s" % (out, err))


def _submit_jobs(sock):
    """Two clients race their submissions in; returns one list of job
    ids per client."""
    clients = [
        [
            {"manifest_ref": "smoke"},
            {
                "grid": {
                    "arch": "arm",
                    "engines": ["simit"],
                    "benchmarks": ["small-blocks"],
                    "iterations": 4,
                }
            },
        ],
        [
            {
                "grid": {
                    "arch": "x86",
                    "engines": ["qemu-dbt"],
                    "benchmarks": ["cold-memory-access", "system-call"],
                    "iterations": 4,
                }
            },
        ],
    ]
    jobs = [[] for _requests in clients]
    errors = []

    def _submit(index):
        client = ServeClient(sock)
        try:
            for request in clients[index]:
                jobs[index].append(client.submit(**request)["job"])
        except Exception as exc:  # surfaced below; a thread must not die silently
            errors.append("client %d: %s" % (index, exc))

    threads = [
        threading.Thread(target=_submit, args=(index,))
        for index in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise SystemExit("submission failed: %s" % "; ".join(errors))
    return jobs


def main():
    root = tempfile.mkdtemp(prefix="serve-smoke-")
    sock = os.path.join(root, "serve.sock")
    proc = _start_daemon(root, sock)
    try:
        jobs = _submit_jobs(sock)
        client = ServeClient(sock)
        finals = {}
        for ids in jobs:
            for job_id in ids:
                finals[job_id] = client.wait(job_id, timeout=120)["job"]
        for job_id, info in finals.items():
            assert info["state"] == "done", (job_id, info)
            assert info["failures"] == 0, (job_id, info)

        # FIFO: job ids count up in submission order, so finish times
        # taken in id order must never go backwards.
        finished = [finals[job_id]["finished_ns"] for job_id in sorted(finals)]
        assert finished == sorted(finished), finals

        smoke_job = finals[jobs[0][0]]
        executed_cold = smoke_job["executed"] + smoke_job["from_dataset"]
        assert executed_cold == smoke_job["cells"], smoke_job

        # Warm resubmission: every smoke cell is in the dataset now.
        warm = client.submit(manifest_ref="smoke")
        warm_info = client.wait(warm["job"], timeout=120)["job"]
        assert warm_info["state"] == "done", warm_info
        assert warm_info["executed"] == 0, (
            "warm resubmission executed %d cell(s)" % warm_info["executed"]
        )
        assert warm_info["from_dataset"] == warm_info["cells"], warm_info

        # Row accounting before the drain.
        dataset_dir = os.path.join(root, "dataset")
        rows_before = sum(
            1
            for _dir, _sub, files in os.walk(dataset_dir)
            for name in files
            if name.endswith(".json") and not name.startswith("_")
        )
        assert rows_before > 0

        # Graceful drain: SIGTERM -> exit 0, no rows lost.
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=DRAIN_WAIT_S)
        assert proc.returncode == 0, (proc.returncode, out, err)
        rows_after = sum(
            1
            for _dir, _sub, files in os.walk(dataset_dir)
            for name in files
            if name.endswith(".json") and not name.startswith("_")
        )
        assert rows_after == rows_before, (rows_before, rows_after)
        assert not os.path.exists(sock), "drain left the socket behind"
        # Every row on disk was appended by exactly one job.
        appended = sum(
            info["dataset_appended"] for info in [*finals.values(), warm_info]
        )
        assert appended == rows_after, (appended, rows_after)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)
        shutil.rmtree(root, ignore_errors=True)

    print(
        "serve smoke: %d job(s) from 2 clients done in submission order, "
        "warm resubmission executed 0/%d, drain kept %d dataset row(s), exit 0"
        % (len(finals), warm_info["cells"], rows_after)
    )


if __name__ == "__main__":
    main()
