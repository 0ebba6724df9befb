"""The repository benchmark: cold figure grid, SPEC sweep and warm rerun.

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the program is imported from
``src/``.  The workloads (README.md says why each was chosen):

- ``fig7-cold``: the bundled figure7 manifest (144 cells, 140 executed)
  through ``ExperimentRunner(jobs=2)`` into an empty ``Dataset``;
- ``spec-sweep``: the bundled figure2 manifest (240 cells, 24 executed,
  work shared 10x) run serially into an empty ``Dataset``;
- ``warm-rerun``: figures 7, 2, 6 and 8 regenerated from a dataset the
  set-up filled, rendered, plus one ``Dataset.rows`` scan, per pass.

Every pass of a cold workload runs in a fresh interpreter
(``passes.py``) with an empty dataset and no code-cache directory.  The
load is a closed loop: one client process submits a grid, or a
regeneration pass, and waits for it before the next.  ``--seed`` picks
the cell submission order and, on warm-rerun, the figure order and
query of each pass; no seed changes an expected output.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
untraced.  ``--trace 1`` makes separate traced passes for the
per-layer split and writes their spans under ``.perfbench/traces/``.
Readable lines come first, each timing with its sample count, then a
provenance stamp; the last stdout line is the JSON result.  A failed
pass exits 1 and a checkout without ``src/repro`` exits 2, neither
printing a result.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import stats  # noqa: E402

#: Every run, set-up included, ends inside this many seconds.
RUN_LIMIT_S = 170.0

#: Cold workloads: ``(manifest, pool workers, minimum passes)``.
#: spec-sweep executes 24 cells a pass; five passes give the 100
#: samples a p90 needs.  fig7-cold passes vary more from pass to pass
#: (two workers zero-filling a 64 MiB board per cell), so a run takes
#: the median of six.
COLD = {"fig7-cold": ("figure7", 2, 6), "spec-sweep": ("figure2", 1, 5)}

#: warm-rerun fills one dataset per run (about half of a run's time)
#: and splits its passes among this many processes reading it, so
#: per-process effects and the host's slower and faster phases average
#: out.
WARM_PROCESSES = 3
WARM_MIN_PASSES = 120
#: Seconds of untraced (then as many traced) warm passes when tracing.
WARM_TRACE_SECONDS = 3.0

WORKLOADS = tuple(COLD) + ("warm-rerun",)


class PassFailed(Exception):
    pass


def run_pass(kind, options, hash_seed, deadline):
    """Run one ``passes.py`` process and return its JSON result, plus
    ``process_s``, its wall time from launch to exit."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(hash_seed % 2**32)
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "passes.py"), kind, "--t0", repr(t0)]
    proc = subprocess.Popen(
        cmd + options,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # The session holds the pass and its pool workers.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed("%s pass overran the run's %gs limit" % (kind, RUN_LIMIT_S))
    if proc.returncode != 0:
        raise PassFailed("%s pass exited %d:\n%s" % (kind, proc.returncode, err[-3000:]))
    result = json.loads(out.strip().splitlines()[-1])
    result["process_s"] = time.monotonic() - t0
    return result


# -- cold workloads ---------------------------------------------------------
def grid_pass(workload, index, jobs, seed, workdir, deadline, extra=()):
    manifest = COLD[workload][0]
    dataset = os.path.join(workdir, "dataset-%d" % index)
    options = [
        "--manifest", manifest,
        "--jobs", str(jobs),
        "--seed", "%d.%d" % (seed, index),
        "--dataset", dataset,
    ]
    try:
        return run_pass("grid", options + list(extra), seed, deadline)
    finally:
        shutil.rmtree(dataset, ignore_errors=True)


def cold_timed(workload, seed, seconds, workdir, deadline):
    _manifest, jobs, min_passes = COLD[workload]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(grid_pass(workload, len(passes), jobs, seed, workdir, deadline))
        elapsed = time.monotonic() - start
        # Start another pass only if it should end within ``seconds``.
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    cell_ms = [ms for p in passes for ms in p["cell_ms"]]
    samples = {
        "cells_per_s": [p["cells"] / p["wall_s"] for p in passes],
        "latency_ms": cell_ms,
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["rss_mb"] for p in passes],
    }
    extras = {"guest_mips": [p["guest_insns"] / p["wall_s"] / 1e6 for p in passes]}
    return passes, samples, extras


def cold_traced(workload, seed, workdir, deadline, spans_path):
    """A pool pass for the pool's own numbers (fig7-cold only), an
    untraced serial pass as the overhead reference, then the traced
    serial pass, so every span lands in one process."""
    jobs = COLD[workload][1]
    passes = []
    if jobs > 1:
        passes.append(grid_pass(workload, 0, jobs, seed, workdir, deadline))
    serial = grid_pass(workload, 1, 1, seed, workdir, deadline)
    traced = grid_pass(workload, 2, 1, seed, workdir, deadline, ["--trace", spans_path])
    passes += [serial, traced]
    pool = passes[0]
    layers = dict(traced["layers"])
    layers["trace_overhead_pct"] = (traced["wall_s"] / serial["wall_s"] - 1.0) * 100.0
    layers["core.runner.queue_wait_ms_p50"] = stats.median(pool["queue_wait_ms"])
    layers["core.runner.chunks"] = pool["chunks"]
    layers["core.runner.payload_bytes"] = pool["payload_bytes"]
    return passes, layers


# -- warm-rerun -------------------------------------------------------------
def warm_processes(count, seed, workdir, deadline, options):
    """Fill a dataset in one process, then run ``count`` processes of
    warm passes from it; each one's set-up time covers the fill."""
    dataset = os.path.join(workdir, "dataset")
    try:
        filled = run_pass("fill", ["--dataset", dataset], seed, deadline)
        warm = [
            run_pass(
                "warm",
                ["--dataset", dataset, "--seed", "%d.%d" % (seed, k)] + options,
                seed,
                deadline,
            )
            for k in range(count)
        ]
    finally:
        shutil.rmtree(dataset, ignore_errors=True)
    for process in warm:
        process["setup_s"] += filled["process_s"]
    return [filled] + warm, warm


def warm_timed(seed, seconds, workdir, deadline):
    share = [
        "--seconds", repr(seconds / WARM_PROCESSES),
        "--min-passes", str(math.ceil(WARM_MIN_PASSES / WARM_PROCESSES)),
    ]
    passes, warm = warm_processes(WARM_PROCESSES, seed, workdir, deadline, share)
    pass_ms = [ms for p in warm for ms in p["pass_ms"]]
    cells = warm[0]["cells_per_pass"]
    samples = {
        "cells_per_s": [cells / (ms / 1e3) for ms in pass_ms],
        "latency_ms": pass_ms,
        "setup_s": [p["setup_s"] for p in warm],
        "peak_rss_mb": [p["rss_mb"] for p in warm],
    }
    return passes, samples, {}


def warm_traced(seed, workdir, deadline, spans_path):
    options = [
        "--seconds", repr(WARM_TRACE_SECONDS),
        "--min-passes", "1",
        "--trace", spans_path,
    ]
    passes, (warm,) = warm_processes(1, seed, workdir, deadline, options)
    layers = dict(warm["layers"])
    # Warm passes run through no pool.
    layers.update(
        {
            "core.runner.queue_wait_ms_p50": 0.0,
            "core.runner.chunks": 0,
            "core.runner.payload_bytes": 0,
        }
    )
    return passes, layers


# -- reporting --------------------------------------------------------------
def tree_digest(top):
    """sha256 over every source file under ``top``: identifies the
    measured code where no git metadata exists."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".toml")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, top).encode("utf-8") + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git(*args):
    try:
        out = subprocess.run(
            ["git", "-C", ROOT] + list(args), capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed, runs):
    top = git("rev-parse", "--show-toplevel")
    in_git = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    return {
        "git_rev": git("rev-parse", "HEAD") if in_git else None,
        "dirty": bool(git("status", "--porcelain")) if in_git else None,
        "src_sha256": tree_digest(os.path.join(SRC, "repro")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "runs": runs,
    }


def end_to_end_values(samples):
    """Medians, and the named percentiles of latency."""
    return {
        "cells_per_s": stats.median(samples["cells_per_s"]),
        "latency_ms_p50": stats.percentile(samples["latency_ms"], 50),
        "latency_ms_p90": stats.percentile(samples["latency_ms"], 90),
        "setup_s": stats.median(samples["setup_s"]),
        "peak_rss_mb": stats.median(samples["peak_rss_mb"]),
    }


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def measure(args, workdir, deadline, spans_path):
    """``(passes, values, samples)`` for the requested run."""
    warm = args.workload == "warm-rerun"
    if args.trace and warm:
        return warm_traced(args.seed, workdir, deadline, spans_path) + ({},)
    if args.trace:
        return cold_traced(args.workload, args.seed, workdir, deadline, spans_path) + ({},)
    if warm:
        passes, samples, extras = warm_timed(args.seed, args.seconds, workdir, deadline)
    else:
        passes, samples, extras = cold_timed(
            args.workload, args.seed, args.seconds, workdir, deadline
        )
    return passes, end_to_end_values(samples), dict(samples, **extras)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no src/repro under %s; run from a checkout" % ROOT, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    end_to_end, per_layer = declared_metrics()
    compileall.compile_dir(SRC, quiet=1)
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    spans_path = os.path.join(WORK, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed))
    try:
        passes, values, samples = measure(args, workdir, deadline, spans_path)
    except PassFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["checked"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    declared = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    units = dict(
        {"guest_mips": "Minsn/s", "latency_ms": "ms"},
        **{m["name"]: m["unit"] for m in declared},
    )
    stamp = provenance(args.seed, len(passes))

    print("%s seed %d trace %d: %d processes" % (args.workload, args.seed, args.trace, len(passes)))
    for name, values_ in samples.items():
        print("  %-16s %s" % (name, stats.describe(values_, units[name])))
    if args.trace:
        for name, metric in metrics.items():
            print("  %-32s %.6g %s" % (name, metric["value"], metric["unit"]))
    print("  fail_ratio       %.6g (%d of %d checks)" % (failed / attempted, failed, attempted))
    print("provenance " + json.dumps(stamp, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = os.path.join(
        WORK, "results", "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    )
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "provenance": stamp, "samples": samples}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
