"""One benchmark pass in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass pays what a
first ``repro`` command pays: imports, registry warm-up, a cold
translation memo and program cache and, with ``--jobs 2``, pool
start-up.  The last line it prints is one JSON object.

    python perfbench/passes.py grid --manifest figure7 --jobs 2 \\
        --seed 1.0 --dataset DIR --t0 T [--trace SPANS.jsonl]
    python perfbench/passes.py fill --dataset DIR --t0 T
    python perfbench/passes.py warm --dataset DIR --seed 1.0 \\
        --seconds S --min-passes N --t0 T [--trace SPANS.jsonl]

``grid`` runs one bundled manifest into the empty dataset ``DIR``
through ``DatasetResolver`` (cells submitted in a seed-shuffled
order).  ``fill`` is the warm-rerun set-up: figures 7, 2 and 6 into
``DIR``.  ``warm`` times regeneration passes of figures 7, 2, 6 and 8
from that dataset plus one ``Dataset.rows`` scan each.  ``T`` is the
``time.monotonic()`` reading taken by the parent just before it
started this process; set-up time runs from there to the first timed
operation.

Every output is checked against ``expected.json``: each cell's status
and kernel counter delta, each rendered figure and each query's row
count.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import repro.analysis.figures as figures  # noqa: E402
from repro.core.harness import FAILURE_STATUSES  # noqa: E402
from repro.core.runner import ExperimentRunner  # noqa: E402
from repro.exp import Dataset, parse_query, resolve_manifest  # noqa: E402
from repro.exp.resolver import DatasetResolver  # noqa: E402

#: The ``repro figure`` default scale, which the bundled manifests use.
SCALE = 0.5

#: Figures a warm pass regenerates, in a seed-chosen order.
FIGURES = ("figure7", "figure2", "figure6", "figure8")

#: Manifests the warm-rerun set-up runs, in order, on one 2-worker pool.
FILL_MANIFESTS = ("figure7", "figure2", "figure6")

#: Predicates a warm pass scans the dataset with, one seed-chosen per pass.
QUERIES = (
    "engine=qemu-dbt arch=arm",
    "engine=simit",
    "arch=x86",
    "bench=tlb-*",
    "status=unsupported",
    "engine=gem5 iterations>=100",
)

EXPECTED_PATH = os.path.join(HERE, "expected.json")


def digest(value):
    blob = json.dumps(value, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def cell_digest(result):
    return digest([result.status, result.kernel_delta])


def render(name, dataset):
    """Regenerate one figure from ``dataset`` and render it as text.

    Figures are looked up on the module at call time, so a traced
    process sees its wrappers."""
    data = getattr(figures, name)(dataset=dataset, scale=SCALE)
    if name == "figure7":
        return figures.render_figure7(data)
    if name == "figure6":
        return figures.render_figure6(data)
    return figures.render_series(data)


def load_expected():
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_cells(specs, results, expected):
    """``(checked, failed)``: a cell fails on a failure status or when
    its status and counter delta differ from the recorded digest."""
    failed = 0
    for spec, result in zip(specs, results):
        want = expected["cells"].get(spec.fingerprint())
        if result.status in FAILURE_STATUSES or cell_digest(result) != want:
            failed += 1
    return len(specs), failed


def close_runner(runner):
    """Stop the runner's pool and wait for its workers, so their
    ``ru_maxrss`` reaches ``RUSAGE_CHILDREN``."""
    if runner._pool is not None:
        runner._pool.shutdown(wait=True)
    runner.close()


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def start_tracing(run_id):
    import layers
    from spans import SpanRecorder

    rec = SpanRecorder()
    rec.run_id = run_id
    layers.install(rec)
    return rec, layers.memo_counts()


def finish_tracing(rec, roots, memo_before, passes, path):
    import layers

    rec.write(path)
    return layers.layer_metrics(rec, roots, memo_before, passes)


# -- grid: one cold manifest run --------------------------------------------
def grid(args, expected):
    manifest = resolve_manifest(args.manifest)
    specs = manifest.jobs()
    random.Random(args.seed).shuffle(specs)
    runner = ExperimentRunner(jobs=args.jobs)
    dataset = Dataset(args.dataset)
    resolver = DatasetResolver(runner, dataset, manifest=manifest)
    rec = None
    if args.trace:
        rec, memo_before = start_tracing("%s:%s" % (args.manifest, args.seed))

    start = time.monotonic()
    root = rec.begin("pass") if rec else None
    results = resolver.run(specs)
    if rec:
        rec.end(root)
    wall_s = time.monotonic() - start
    # Before the checks below, which call into the traced layers again.
    layers = finish_tracing(rec, [root], memo_before, 1, args.trace) if rec else None

    stats = dict(resolver.last_stats)
    executed = [row for row in resolver.last_jobs if row["source"] == "executed"]
    guest_insns = sum(r.total_instructions for r in runner.last_records.values())
    close_runner(runner)
    checked, failed = check_cells(specs, results, expected)
    # The bundled manifests are named after the figure they fill.
    checked += 1
    failed += digest(render(args.manifest, dataset)) != expected["figures"][args.manifest]
    out = {
        "setup_s": start - args.t0,
        "wall_s": wall_s,
        "cells": len(specs),
        "executed": len(executed),
        "cell_ms": [row["wall_ns"] / 1e6 for row in executed],
        "queue_wait_ms": [row["queue_wait_ns"] / 1e6 for row in executed],
        "guest_insns": guest_insns,
        "chunks": stats.get("chunks", 0),
        "payload_bytes": stats.get("payload_bytes", 0),
        "rss_mb": peak_rss_mb(),
        "checked": checked,
        "failed": failed,
    }
    if layers:
        out["layers"] = layers
    return out


# -- fill: the warm-rerun set-up ----------------------------------------------
def fill(args, expected):
    dataset = Dataset(args.dataset)
    runner = ExperimentRunner(jobs=2)
    checked = failed = 0
    for name in FILL_MANIFESTS:
        manifest = resolve_manifest(name)
        specs = manifest.jobs()
        results = DatasetResolver(runner, dataset, manifest=manifest).run(specs)
        done, bad = check_cells(specs, results, expected)
        checked += done
        failed += bad
    close_runner(runner)
    return {"checked": checked, "failed": failed}


# -- warm: regeneration passes from a filled dataset --------------------------
def warm_pass(dataset, rng):
    """One timed regeneration pass; returns its wall time and the
    outputs to check."""
    order = rng.sample(FIGURES, len(FIGURES))
    query = rng.choice(QUERIES)
    start = time.perf_counter()
    renders = [(name, render(name, dataset)) for name in order]
    count = len(dataset.rows(parse_query(query)))
    return time.perf_counter() - start, renders, query, count


def check_pass(renders, query, count, expected):
    """``(checked, failed)`` for one pass's figures and query."""
    failed = sum(digest(text) != expected["figures"][name] for name, text in renders)
    failed += count != expected["queries"][query]
    return len(renders) + 1, failed


def warm(args, expected):
    dataset = Dataset(args.dataset)
    rng = random.Random(args.seed)
    cells = sum(len(resolve_manifest(name).jobs()) for name in FIGURES)
    before = dataset.totals()

    start = time.monotonic()
    deadline = start + args.seconds
    walls = []
    checked = failed = 0
    while len(walls) < args.min_passes or time.monotonic() < deadline:
        wall, *outputs = warm_pass(dataset, rng)
        walls.append(wall)
        done, bad = check_pass(*outputs, expected)
        checked += done
        failed += bad
    out = {"setup_s": start - args.t0, "cells_per_pass": cells}

    if args.trace:
        # As many traced passes as untraced ones, in the same process.
        rec, memo_before = start_tracing("warm:%s" % args.seed)
        roots = []
        traced = 0.0
        for _ in walls:
            roots.append(rec.begin("pass"))
            wall, *outputs = warm_pass(dataset, rng)
            rec.end(roots[-1])
            traced += wall
            done, bad = check_pass(*outputs, expected)
            checked += done
            failed += bad
        out["layers"] = finish_tracing(rec, roots, memo_before, len(roots), args.trace)
        out["layers"]["trace_overhead_pct"] = (traced / sum(walls) - 1.0) * 100.0

    # A warm pass executes nothing: no dataset miss, no new row.
    after = dataset.totals()
    checked += 1
    failed += (after["misses"], after["stores"]) != (before["misses"], before["stores"])
    out.update(
        {
            "pass_ms": [wall * 1e3 for wall in walls],
            "rss_mb": peak_rss_mb(),
            "checked": checked,
            "failed": failed,
        }
    )
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("grid", "fill", "warm"))
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--manifest", default="figure7")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    expected = load_expected()
    out = {"grid": grid, "fill": fill, "warm": warm}[args.kind](args, expected)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
