"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the available benchmarks, simulators, architectures, platforms
    and QEMU-timeline versions.
``engines``
    Describe every registered engine from its spec: execution model,
    configurable options, and the Figure 4 feature summary.
``run BENCHMARK``
    Run one benchmark (by Figure 3 name) on one simulator.
``suite``
    Run the full 18-benchmark suite on one simulator.
``workloads``
    Run the SPEC proxy workloads on one simulator.
``figure N``
    Regenerate one of the paper's figures/tables (2-8).
``sweep BENCHMARK``
    Sweep one benchmark across the QEMU version timeline.
``bisect``
    Binary-search the QEMU version axis (or a spec axis from
    ``--axis-file``) for the step that changes a metric; with
    ``--field`` the probe is that field's attribution kernel, and
    ``--validate`` checks the kernel's single-feature claim by
    ablation.
``cache stats|clear``
    Inspect or empty the experiment dataset (and, with
    ``--code-cache-dir``, the persistent DBT code cache).
``manifest run|show|diff``
    Run, describe or compare declarative experiment manifests (bundled
    names like ``figure7``/``smoke``, or TOML/JSON paths).
``query EXPR``
    Query the experiment dataset, e.g.
    ``repro query 'engine=qemu-dbt arch=arm bench=tlb-*'``.
``serve``
    Run the long-lived experiment service: one warm worker pool and
    one dataset serving manifest submissions over a local socket, in
    submission order.  SIGTERM drains gracefully (finish in-flight
    work, exit 0).
``submit MANIFEST``
    Submit a manifest (bundled name or path) -- or an ad-hoc grid via
    ``--adhoc`` -- to a running service; prints the job id.
``status [JOB]``
    Show the service queue and jobs, or one job's progress.
``wait JOB``
    Block until a job finishes; prints its final summary.
``metrics``
    Run an observability sweep (suite x engines x arches) and print the
    per-benchmark x per-engine breakdown plus phase timings.
``detect SIMULATOR``
    Fingerprint an engine with the sandbox-detection probes.
``report``
    Run the full evaluation and write a markdown report.
``compare``
    Run the suite on several simulators and print a side-by-side table.
"""

import argparse
import math
import os
import sys

from repro.analysis import figures
from repro.analysis.sweep import VersionSweep
from repro.arch import ARCHES, get_arch
from repro.core import (
    FAILURE_STATUSES,
    ExperimentRunner,
    Harness,
    JobSpec,
    SUITE,
    TimingPolicy,
)
from repro.core.runner import resolve_benchmark
from repro.exp import (
    Dataset,
    ManifestError,
    QueryError,
    bundled_manifests,
    parse_query,
    resolve_manifest,
    run_manifest,
)
from repro.obs.export import (
    breakdown,
    render_breakdown,
    render_histograms,
    render_phases,
    write_jsonl,
)
from repro.obs.metrics import METRICS
from repro.platform import PLATFORMS, get_platform
from repro.serve import (
    DEFAULT_SOCKET,
    ExperimentService,
    ProtocolError,
    ServeClient,
    ServeError,
    ServiceError,
)
from repro.sim import SIMULATOR_CLASSES
from repro.sim.dbt.codestore import CodeStore
from repro.sim.dbt.versions import QEMU_VERSIONS
from repro.sim.spec import SPEC_CLASSES, engines_for_arch, spec_for
from repro.workloads import SPEC_PROXIES


class _CliError(Exception):
    """User-input error; rendered to stderr with exit status 2."""


#: Exit status for a grid that *completed* but contained failing cells
#: (crashed/timeout/error), a one-cell ``repro run`` included.  Distinct
#: from 1 (a failed bisect/validate verdict, an empty query, an
#: unreachable service) and 2 (usage error); suppressed by
#: ``--keep-going``.
EXIT_GRID_FAILURES = 3


def _default_platform(arch_name):
    return "vexpress" if arch_name == "arm" else "pcplat"


def _add_env_options(parser):
    parser.add_argument("--sim", default="qemu-dbt", choices=sorted(SIMULATOR_CLASSES))
    parser.add_argument("--arch", default="arm", choices=sorted(ARCHES))
    parser.add_argument("--platform", default=None, choices=sorted(PLATFORMS))
    parser.add_argument(
        "--timing",
        default="modeled",
        choices=[policy.value for policy in TimingPolicy],
        help="modeled (deterministic) or wallclock host time",
    )
    parser.add_argument(
        "--engine-opt",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="set an engine spec field (repeatable; e.g. "
        "--engine-opt tlb_bits=7 --engine-opt asid_tagged=true); "
        "see `repro engines` for each engine's options",
    )


def _parse_opt_value(raw):
    """Parse an --engine-opt value: bool/none/int/float, else string.

    Non-finite floats (``nan``/``inf``/``1e999``) are rejected: they
    would flow into ``json.dumps`` fingerprints and payloads as
    non-standard JSON that strict parsers reject.
    """
    lowered = raw.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for converter in (int, float):
        try:
            value = converter(raw)
        except ValueError:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise _CliError(
                "non-finite option value %r is not allowed "
                "(it has no valid JSON encoding)" % raw
            )
        return value
    return raw


def _engine_spec(args):
    """The EngineSpec described by ``--sim`` plus any ``--engine-opt``."""
    options = {}
    for item in getattr(args, "engine_opt", None) or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise _CliError("--engine-opt expects KEY=VALUE, got %r" % item)
        options[key.strip()] = _parse_opt_value(raw)
    try:
        return spec_for(args.sim, **options)
    except ValueError as exc:
        raise _CliError("engine configuration error: %s" % exc) from None


def _add_runner_options(parser):
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="fan unique executions over N worker processes (default: serial)",
    )
    parser.add_argument(
        "--code-cache-dir",
        default=None,
        help="persistent DBT code-cache directory; warm runs reuse "
        "compiled translations across processes (host-side only -- "
        "guest-visible counters are unaffected)",
    )
    parser.add_argument(
        "--dataset-dir",
        default=None,
        help="experiment dataset directory; cells already in the "
        "dataset are priced from their stored records (zero guest "
        "instructions) and new cells are appended with provenance "
        "(modeled timing only); query it with `repro query`",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall deadline; jobs exceeding it become 'timeout' "
        "rows instead of stalling the grid (default: none)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="retry jobs whose failure is transient (worker death, "
        "timeout) up to N times with backoff (default: 1); "
        "deterministic crashes are never retried under modeled timing",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="exit 0 even when some grid cells failed (the grid always "
        "completes; without this flag failures exit %d after the "
        "failure summary)" % EXIT_GRID_FAILURES,
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable metrics collection and write a JSONL observability "
        "export (per-job rows + merged counters/phases, workers "
        "included) to PATH",
    )


def _metrics_begin(args):
    """Arm the metrics registry when this invocation exports metrics."""
    if getattr(args, "metrics_out", None):
        METRICS.reset()
        METRICS.enable()


def _metrics_finish(args, runner, meta=None):
    """Write the ``--metrics-out`` JSONL export, if requested: one job
    line per cell the runner resolved."""
    path = getattr(args, "metrics_out", None)
    if not path:
        return
    header = {"command": args.command}
    if meta:
        header.update(meta)
    count = write_jsonl(
        path, meta=header, jobs=runner.cells.values(), snapshot=METRICS.snapshot()
    )
    print("metrics: wrote %d lines to %s" % (count, path), file=sys.stderr)
    METRICS.disable()


def _environment(args):
    arch = get_arch(args.arch)
    platform_name = args.platform or _default_platform(args.arch)
    return arch, get_platform(platform_name)


def _benchmark(name):
    """The benchmark or workload called ``name``, in any registry."""
    try:
        return resolve_benchmark(name)
    except KeyError as exc:
        raise _CliError(exc.args[0]) from None


def _runner_for(args):
    """The one runner a command resolves all of its cells through."""
    dataset_dir = getattr(args, "dataset_dir", None)
    return ExperimentRunner(
        harness=Harness(timing=TimingPolicy(getattr(args, "timing", "modeled"))),
        jobs=getattr(args, "jobs", 1) or 1,
        dataset=Dataset(dataset_dir) if dataset_dir else None,
        deadline=getattr(args, "deadline", None),
        retries=getattr(args, "retries", 1),
        code_cache_dir=getattr(args, "code_cache_dir", None),
    )


def _report_runner(args, runner):
    """Print the runner activity of every :meth:`ExperimentRunner.run`
    the command made (figure 8, ``report`` and ``compare`` make several)."""
    stats = runner.total_stats
    if stats["jobs"] and (
        (getattr(args, "jobs", 1) or 1) > 1 or getattr(args, "dataset_dir", None)
    ):
        print(
            "runner: %d jobs -> %d unique, %d from dataset, %d executed"
            % (
                stats["jobs"],
                stats["unique"],
                stats["from_dataset"],
                stats["executed"],
            ),
            file=sys.stderr,
        )
    fault_counts = [
        (name, stats[name])
        for name in ("crashed", "timeout", "errors", "retried", "worker_lost")
        if stats[name]
    ]
    if fault_counts:
        print(
            "runner faults: %s"
            % ", ".join("%d %s" % (count, name) for name, count in fault_counts),
            file=sys.stderr,
        )


def _failure_summary(args, runner):
    """Print the per-cell failure summary and return the exit status.

    The grid always completes; this decides how loudly.  No failures
    -> 0.  Failures -> a summary on stderr, then exit
    ``EXIT_GRID_FAILURES`` unless ``--keep-going`` was given.
    """
    failures = [
        cell for cell in runner.cells.values() if cell["status"] in FAILURE_STATUSES
    ]
    if not failures:
        return 0
    print(
        "%d cell(s) failed (grid completed; other cells are valid):"
        % len(failures),
        file=sys.stderr,
    )
    for cell in failures:
        print(
            "  %-28s on %-10s [%s]  %s%s"
            % (
                cell["benchmark"],
                cell["engine"],
                cell["arch"],
                cell["status"],
                ": %s" % cell["error"] if cell["error"] else "",
            ),
            file=sys.stderr,
        )
    if getattr(args, "keep_going", False):
        return 0
    return EXIT_GRID_FAILURES


def _print_result(result):
    if not result.ok:
        print("%-28s %s" % (result.benchmark, result.status))
        if result.error:
            print("  %s" % result.error)
        return
    print(
        "%-28s %.6f s  (%d iterations; paper used %s)"
        % (
            result.benchmark,
            result.kernel_seconds,
            result.iterations,
            format(result.paper_iterations, ",") if result.paper_iterations else "n/a",
        )
    )
    print(
        "  kernel instructions=%d  operations=%d  ns/op=%.1f  density=%.4f"
        % (
            result.kernel_instructions,
            result.operations,
            result.ns_per_operation,
            result.operation_density,
        )
    )


# -- commands ---------------------------------------------------------------


def _cmd_list(_args):
    print("Benchmarks (Figure 3 inventory):")
    for bench in SUITE:
        print("  %-28s [%s]  paper iterations: %s"
              % (bench.name, bench.group, format(bench.paper_iterations, ",")))
    print()
    print("Workloads (SPEC CPU2006 INT proxies):")
    for workload in SPEC_PROXIES:
        print("  %-12s %s" % (workload.name, workload.description))
    print()
    print("Simulators: %s" % ", ".join(sorted(SIMULATOR_CLASSES)))
    print("Architectures: %s" % ", ".join(sorted(ARCHES)))
    print("Platforms: %s" % ", ".join(sorted(PLATFORMS)))
    print("QEMU timeline: %s .. %s (%d versions)"
          % (QEMU_VERSIONS[0], QEMU_VERSIONS[-1], len(QEMU_VERSIONS)))
    return 0


def _cmd_engines(args):
    print("Engines (registry order = Figure 4/7 column order):")
    for name, spec_class in SPEC_CLASSES.items():
        spec = spec_class()
        info = spec.describe()
        print()
        print("%s  (%s, %s)" % (name, info["class"], info["execution_model"]))
        print("  evaluated archs: %s" % ", ".join(info["evaluated_archs"]))
        tracing = []
        if info["supports_insn_trace"]:
            tracing.append("per-instruction (Tracer/Debugger)")
        if info["supports_block_trace"]:
            tracing.append("per-block (trace_blocks)")
        print("  tracing: %s" % ("; ".join(tracing) or "none"))
        print(
            "  structural options: %s"
            % (
                ", ".join(
                    "%s=%r" % item for item in info["structural"].items()
                )
                or "none"
            )
        )
        if info["pricing"]:
            print(
                "  pricing options: %s"
                % ", ".join("%s=%r" % item for item in info["pricing"].items())
            )
        if args.features:
            print("  features (Figure 4):")
            for feature, value in spec.feature_summary().items():
                print("    %-26s %s" % (feature, value))
    return 0


def _cmd_run(args):
    _metrics_begin(args)
    arch, platform = _environment(args)
    benchmark = _benchmark(args.benchmark)
    runner = _runner_for(args)
    [result] = runner.run(
        [JobSpec(benchmark, _engine_spec(args), arch, platform, iterations=args.iterations)]
    )
    _print_result(result)
    _report_runner(args, runner)
    _metrics_finish(args, runner)
    return _failure_summary(args, runner)


def _cmd_suite(args):
    _metrics_begin(args)
    arch, platform = _environment(args)
    runner = _runner_for(args)
    spec = _engine_spec(args)
    suite_result = runner.run_suite(spec, arch, platform, scale=args.scale)
    _report_runner(args, runner)
    _metrics_finish(args, runner)
    print("SimBench on %s (%s guest, %s platform, %s time):"
          % (spec.engine, arch.name, platform.name, args.timing))
    for result in suite_result:
        _print_result(result)
    return _failure_summary(args, runner)


def _cmd_workloads(args):
    _metrics_begin(args)
    arch, platform = _environment(args)
    spec = _engine_spec(args)
    runner = _runner_for(args)
    results = runner.run(
        [JobSpec(workload, spec, arch, platform) for workload in SPEC_PROXIES]
    )
    print("SPEC proxies on %s (%s guest):" % (spec.engine, arch.name))
    for result in results:
        _print_result(result)
    _report_runner(args, runner)
    _metrics_finish(args, runner)
    return _failure_summary(args, runner)


def _cmd_figure(args):
    n = args.number
    scale = args.scale
    _metrics_begin(args)
    runner = _runner_for(args)
    # Sweep-based figures run non-strict: a failed cell becomes a NaN
    # entry plus a failure-summary row, never a lost figure.
    if n == 1:
        print(figures.render_figure1(figures.figure1()))
    elif n == 2:
        print(figures.render_series(
            figures.figure2(scale=scale, runner=runner, strict=False), title="Figure 2"
        ))
    elif n == 3:
        print(figures.render_figure3(figures.figure3(scale=scale, runner=runner)))
    elif n == 4:
        print(figures.render_figure4(figures.figure4()))
    elif n == 5:
        for name, info in figures.figure5().items():
            print("[%s]" % name)
            for key, value in info.items():
                print("  %-14s %s" % (key, value))
    elif n == 6:
        print(figures.render_figure6(
            figures.figure6(scale=scale, runner=runner, strict=False)
        ))
    elif n == 7:
        print(figures.render_figure7(figures.figure7(scale=scale, runner=runner)))
    elif n == 8:
        print(figures.render_series(
            figures.figure8(scale=scale, runner=runner, strict=False), title="Figure 8"
        ))
    else:
        print("unknown figure %d (supported: 1-8)" % n, file=sys.stderr)
        return 2
    _report_runner(args, runner)
    _metrics_finish(args, runner, meta={"figure": n})
    return _failure_summary(args, runner)


def _cmd_sweep(args):
    _metrics_begin(args)
    arch, platform = _environment(args)
    benchmark = _benchmark(args.benchmark)
    runner = _runner_for(args)
    sweep = VersionSweep(arch, platform, runner=runner)
    series = sweep.run(benchmark, iterations=args.iterations, strict=False)
    failed = {version: status for version, status, _error in series.failures}
    print("%s across the QEMU timeline (%s guest; speedup vs %s):"
          % (series.name, arch.name, series.versions[0]))
    for version, seconds, speedup in zip(series.versions, series.seconds, series.speedups()):
        if version in failed:
            print("  %-12s FAILED (%s)" % (version, failed[version]))
        else:
            print("  %-12s %.6f s   %.3fx" % (version, seconds, speedup))
    _report_runner(args, runner)
    _metrics_finish(args, runner, meta={"benchmark": args.benchmark})
    return _failure_summary(args, runner)


def _cmd_bisect(args):
    import json

    from repro.attrib import (
        BisectAxis,
        BisectProbeError,
        Bisector,
        validate_attribution,
    )
    from repro.core.benchmarks.attribution import (
        ATTRIBUTION_KERNELS,
        attribution_kernel,
    )
    engine = args.engine
    if args.list_fields:
        for name, spec_class in SPEC_CLASSES.items():
            if engine and name != engine:
                continue
            pairs = spec_class.bisectable_fields()
            if not pairs:
                continue
            print("%s:" % name)
            for field, (low, high) in pairs.items():
                kernel = ATTRIBUTION_KERNELS.get((name, field))
                print(
                    "  %-18s %r vs %r%s"
                    % (
                        field,
                        low,
                        high,
                        "   [kernel: %s, %s]" % (kernel.name, kernel.cliff_metric)
                        if kernel
                        else "",
                    )
                )
        return 0

    arch = get_arch(args.arch)
    platform = get_platform(args.platform or _default_platform(args.arch))
    engine = engine or "qemu-dbt"

    if args.validate:
        if not args.field:
            raise _CliError("--validate needs --field")
        _metrics_begin(args)
        runner = _runner_for(args)
        try:
            report = validate_attribution(
                engine,
                args.field,
                arch,
                platform,
                runner=runner,
                iterations=args.iterations,
                tolerance=args.tolerance,
            )
        except KeyError as exc:
            raise _CliError(str(exc).strip("'\"")) from None
        if args.json:
            print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        else:
            print("\n".join(report.summary()))
        _report_runner(args, runner)
        _metrics_finish(args, runner, meta={"field": args.field})
        return 0 if report.passed else 1

    # -- bisection --
    if args.field:
        try:
            benchmark = attribution_kernel(engine, args.field)
        except KeyError as exc:
            raise _CliError(str(exc).strip("'\"")) from None
        metric = args.metric or benchmark.cliff_metric
    elif args.benchmark:
        benchmark = _benchmark(args.benchmark)
        metric = args.metric or "seconds"
    else:
        raise _CliError("bisect needs --benchmark or --field (or --list-fields)")

    if args.axis_file:
        try:
            with open(args.axis_file) as handle:
                payloads = json.load(handle)
        except (OSError, ValueError) as exc:
            raise _CliError("unreadable --axis-file: %s" % exc) from None
        if not isinstance(payloads, list):
            raise _CliError("--axis-file must hold a JSON list of axis steps")
        try:
            axis = BisectAxis.from_payloads(payloads)
        except (KeyError, TypeError, ValueError) as exc:
            raise _CliError("bad axis: %s" % exc) from None
    else:
        axis = BisectAxis.qemu_versions(args.arch)

    _metrics_begin(args)
    runner = _runner_for(args)
    try:
        bisector = Bisector(
            runner,
            axis,
            benchmark,
            arch,
            platform,
            metric,
            iterations=args.iterations,
            repeats=args.repeats,
            rel_threshold=args.threshold,
            abs_threshold=args.abs_threshold,
            probe_retries=args.probe_retries,
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    print(
        "bisecting %s on %s (%s guest, %d steps: %s .. %s)"
        % (
            metric,
            benchmark.name,
            arch.name,
            len(axis),
            axis.labels[0],
            axis.labels[-1],
        ),
        file=sys.stderr,
    )
    try:
        result = bisector.run()
    except BisectProbeError as exc:
        print("bisect aborted: %s" % exc, file=sys.stderr)
        _metrics_finish(args, runner, meta={"metric": metric})
        return EXIT_GRID_FAILURES
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print("\n".join(result.summary()))
    _report_runner(args, runner)
    _metrics_finish(args, runner, meta={"metric": metric, "status": result.status})
    return 0 if result.status in ("found", "no-change") else 1


def _cmd_cache(args):
    dataset = Dataset(args.dataset_dir)
    if args.action == "stats":
        # One scan quarantines (unlinks and counts) the corrupt and
        # other-schema rows, as `repro query` does, so entries and bytes
        # count good rows.
        for _row in dataset.scan():
            pass
        stats = dataset.stats()
        print("dataset %s" % stats["root"])
        print("  entries: %d" % stats["entries"])
        print("  bytes:   %d" % stats["bytes"])
        print("  schema:  %s" % stats["schema"])
        print("  quarantined: %d" % stats["quarantined"])
    else:
        removed = dataset.clear()
        print("removed %d dataset rows from %s" % (removed, args.dataset_dir))
    if args.code_cache_dir:
        store = CodeStore(args.code_cache_dir)
        if args.action == "stats":
            stats = store.stats()
            print("code cache %s" % stats["root"])
            print("  entries: %d" % stats["entries"])
            print("  bytes:   %d" % stats["bytes"])
        else:
            removed = store.clear()
            print("removed %d code-cache entries from %s"
                  % (removed, args.code_cache_dir))
    return 0


def _resolve_manifest_arg(ref):
    try:
        return resolve_manifest(ref)
    except ManifestError as exc:
        raise _CliError(str(exc)) from None


def _cmd_manifest(args):
    if args.action == "diff":
        if not args.other:
            raise _CliError("manifest diff needs two manifests")
        mine = _resolve_manifest_arg(args.manifest)
        theirs = _resolve_manifest_arg(args.other)
        delta = mine.diff(theirs)
        print(
            "%s (%s) vs %s (%s): %d common cell(s)"
            % (mine.name, mine.short_id, theirs.name, theirs.short_id, delta["common"])
        )
        for label, cells in (("only in %s" % theirs.name, delta["added"]),
                             ("only in %s" % mine.name, delta["removed"])):
            if not cells:
                continue
            print("%s: %d cell(s)" % (label, len(cells)))
            for cell in cells:
                print(
                    "  %s  %-28s %-10s [%s/%s] x%d"
                    % (
                        cell["cell"][:12],
                        cell["benchmark"],
                        cell["engine"],
                        cell["arch"],
                        cell["platform"],
                        cell["iterations"],
                    )
                )
        return 0

    manifest = _resolve_manifest_arg(args.manifest)
    if args.action == "show":
        info = manifest.describe()
        print("manifest %s (%s)" % (info["name"], info["id"]))
        if info["description"]:
            print("  %s" % info["description"])
        print("  schema:  %d   seed: %s" % (info["schema"], info["seed"]))
        print("  runner:  %s" % (info["runner"] or "(defaults)"))
        print(
            "  grids:   %d -> %d cell(s), %d unique"
            % (info["grids"], info["cells"], info["unique_cells"])
        )
        if args.cells:
            for cell_id, spec in manifest.cells():
                print(
                    "  %s  %-28s %-10s [%s/%s] x%d"
                    % (
                        cell_id[:12],
                        spec.benchmark.name,
                        spec.engine_spec.engine,
                        spec.arch.name,
                        spec.platform.name,
                        spec.iterations,
                    )
                )
        return 0

    # action == "run"
    _metrics_begin(args)
    with _runner_for(args) as runner:
        stats = run_manifest(manifest, runner).stats
        # Activity reporting belongs on stderr (like the runner line),
        # so cold and warm stdout captures diff clean.
        print(
            "manifest %s (%s): %d cell(s) -> %d executed, %d from dataset, "
            "%d appended"
            % (
                manifest.name,
                manifest.short_id,
                stats["jobs"],
                stats["executed"],
                stats["from_dataset"],
                stats["dataset_appended"],
            ),
            file=sys.stderr,
        )
        _report_runner(args, runner)
        _metrics_finish(
            args,
            runner,
            meta={"manifest": manifest.name, "manifest_id": manifest.manifest_id()},
        )
        return _failure_summary(args, runner)


def _cmd_query(args):
    try:
        query = parse_query(" ".join(args.expr))
    except QueryError as exc:
        raise _CliError(str(exc)) from None
    dataset = Dataset(args.dataset_dir)
    rows = dataset.rows(query)
    for row in rows:
        record = row.get("record") or {}
        delta = record.get("kernel_delta") or {}
        print(
            "%s  %-28s %-10s [%s/%s] x%-6d %-12s insns=%s"
            % (
                row["cell"][:12],
                row["benchmark"],
                row["engine"],
                row["arch"],
                row["platform"],
                row["iterations"],
                row["status"],
                delta.get("instructions", "-"),
            )
        )
    quarantined = dataset.quarantined
    summary = "%d row(s)" % len(rows)
    if quarantined:
        summary += " (%d corrupt row(s) quarantined)" % quarantined
    print(summary, file=sys.stderr)
    return 0 if rows else 1


def _cmd_metrics(args):
    """Observability sweep: the suite across every evaluated engine on
    the requested arch profiles, with metrics on, rendered as a
    per-benchmark x per-engine breakdown plus phase timers."""
    arch_names = [name.strip() for name in args.arches.split(",") if name.strip()]
    for name in arch_names:
        if name not in ARCHES:
            raise _CliError("unknown arch %r (choices: %s)" % (name, ", ".join(sorted(ARCHES))))
    sims = None
    if args.sims:
        sims = [name.strip() for name in args.sims.split(",") if name.strip()]
        for name in sims:
            if name not in SIMULATOR_CLASSES:
                raise _CliError("unknown simulator %r" % name)

    METRICS.reset()
    METRICS.enable()
    runner = _runner_for(args)
    specs = []
    for arch_name in arch_names:
        arch = get_arch(arch_name)
        platform = get_platform(_default_platform(arch_name))
        engines = sims if sims is not None else list(engines_for_arch(arch))
        for engine in engines:
            spec = spec_for(engine)
            for bench in SUITE:
                specs.append(
                    JobSpec(
                        bench,
                        spec,
                        arch,
                        platform,
                        iterations=max(
                            1, int(bench.default_iterations * args.scale)
                        ),
                    )
                )
    runner.run(specs)
    _report_runner(args, runner)

    print("Per-benchmark x per-engine breakdown:")
    print(render_breakdown(breakdown(runner.cells.values())))
    snapshot = METRICS.snapshot()
    if snapshot["phases"]:
        print()
        print("Phase timers (merged across workers):")
        print(render_phases(snapshot))
    if snapshot["counters"]:
        print()
        print("Counters:")
        for name, value in snapshot["counters"].items():
            print("  %-28s %d" % (name, value))
    if snapshot.get("histograms"):
        print()
        print("Histograms:")
        print(render_histograms(snapshot))

    _metrics_finish(
        args,
        runner,
        meta={
            "arches": arch_names,
            "engines": sims,
            "scale": args.scale,
            "jobs": getattr(args, "jobs", 1) or 1,
        },
    )
    METRICS.disable()
    return _failure_summary(args, runner)


def _cmd_compare(args):
    arch, platform = _environment(args)
    simulators = args.sims.split(",")
    for name in simulators:
        if name not in SIMULATOR_CLASSES:
            raise _CliError("unknown simulator %r" % name)
    _metrics_begin(args)
    runner = _runner_for(args)
    columns = {
        name: runner.run_suite(name, arch, platform, scale=args.scale).by_name()
        for name in simulators
    }
    print("%-28s" % ("Benchmark (%s guest, s)" % arch.name)
          + "".join("%14s" % name for name in simulators))
    for bench in SUITE:
        row = "%-28s" % bench.name
        for name in simulators:
            result = columns[name][bench.name]
            if result.ok:
                row += "%14.6f" % result.kernel_seconds
            else:
                row += "%14s" % result.status[:13]
        print(row)
    if len(simulators) == 2:
        first, second = simulators
        print()
        print("Ratio %s/%s per benchmark:" % (second, first))
        for bench in SUITE:
            a, b = columns[first][bench.name], columns[second][bench.name]
            if a.ok and b.ok and a.kernel_ns:
                print("  %-28s %8.2fx" % (bench.name, b.kernel_ns / a.kernel_ns))
    _report_runner(args, runner)
    _metrics_finish(args, runner)
    return _failure_summary(args, runner)


def _cmd_report(args):
    from repro.analysis.report import write_report

    _metrics_begin(args)
    runner = _runner_for(args)
    path = write_report(args.output, scale=args.scale, runner=runner)
    print("wrote %s" % path)
    _report_runner(args, runner)
    _metrics_finish(args, runner)
    return _failure_summary(args, runner)


def _cmd_detect(args):
    from repro.analysis.sandbox import detect_registry_engine

    label, fp = detect_registry_engine(args.simulator, arch=get_arch(args.arch))
    print("probes: %r" % fp)
    print("verdict: %s" % label)
    return 0


# -- the experiment service -------------------------------------------------


def _cmd_serve(args):
    import signal

    _metrics_begin(args)
    try:
        service = ExperimentService(
            socket_path=args.socket,
            dataset_dir=args.dataset_dir,
            code_cache_dir=args.code_cache_dir,
            jobs=args.jobs or 1,
            deadline=args.deadline,
            retries=args.retries,
        )
        service.start()
    except ServiceError as exc:
        raise _CliError(str(exc)) from None

    def _drain_signal(signum, _frame):
        print("draining (signal %d)" % signum, file=sys.stderr)
        service.drain()

    signal.signal(signal.SIGTERM, _drain_signal)
    signal.signal(signal.SIGINT, _drain_signal)
    print(
        "repro serve: %d worker(s) on %s (dataset: %s)"
        % (args.jobs or 1, args.socket, args.dataset_dir or "none"),
        file=sys.stderr,
    )
    status = service.serve_forever()
    _metrics_finish(args, service.runner, meta={"socket": args.socket})
    print("drained; exiting", file=sys.stderr)
    return status


def _serve_cmd(args, body):
    """Run one client-side service command with uniform error
    rendering: refused requests and missing daemons exit 1, not with a
    traceback."""
    client = ServeClient(args.socket)
    try:
        return body(client)
    except (ServeError, ProtocolError) as exc:
        print("serve: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            "serve: no daemon answering on %s (%s)" % (args.socket, exc),
            file=sys.stderr,
        )
        return 1


def _print_job_summary(info, stream=None):
    stream = stream if stream is not None else sys.stdout
    print(
        "%s [%-8s] %-12s cells=%d slices=%d/%d "
        "executed=%d dataset=%d failures=%d"
        % (
            info["id"],
            info["state"],
            info["name"],
            info["cells"],
            info["slices_done"],
            info["slices"],
            info["executed"],
            info["from_dataset"],
            info["failures"],
        ),
        file=stream,
    )
    if info.get("error"):
        print("  error: %s" % info["error"], file=stream)


def _job_exit_status(args, info):
    if info["state"] != "done":
        return 1
    if info["failures"] and not getattr(args, "keep_going", False):
        return EXIT_GRID_FAILURES
    return 0


def _cmd_submit(args):
    return _serve_cmd(args, lambda client: _do_submit(args, client))


def _do_submit(args, client):
    if args.adhoc:
        grid = {
            "arch": args.arch,
            "engines": [name.strip() for name in args.sims.split(",") if name.strip()],
            "benchmarks": [
                name.strip() for name in args.benchmarks.split(",") if name.strip()
            ],
        }
        if args.platform:
            grid["platform"] = args.platform
        if args.iterations:
            grid["iterations"] = args.iterations
        response = client.submit(grid=grid, name="adhoc")
    else:
        if not args.manifest:
            raise _CliError("submit needs a manifest reference (or --adhoc)")
        ref = args.manifest
        # Ship local manifest files by payload so the daemon does not
        # need to share our filesystem view; bundled names resolve
        # daemon-side.
        if os.path.exists(ref):
            manifest = _resolve_manifest_arg(ref)
            response = client.submit(manifest=manifest.to_payload())
        else:
            response = client.submit(manifest_ref=ref)
    print(
        "submitted %s: %d cell(s) in %d slice(s) (manifest %s)"
        % (
            response["job"],
            response["cells"],
            response["slices"],
            response.get("manifest") or "-",
        ),
        file=sys.stderr,
    )
    print(response["job"])
    if not args.wait:
        return 0
    final = client.wait(response["job"], timeout=args.timeout)
    _print_job_summary(final["job"], stream=sys.stderr)
    return _job_exit_status(args, final["job"])


def _cmd_status(args):
    return _serve_cmd(args, lambda client: _do_status(args, client))


def _do_status(args, client):
    if args.drain:
        client.drain()
        print("drain requested", file=sys.stderr)
        return 0
    if args.job:
        info = client.status(job=args.job)["job"]
        _print_job_summary(info)
        return 0
    response = client.status()
    print(
        "serve on %s: queue depth %d%s"
        % (
            args.socket,
            response["queue_depth"],
            " [draining]" if response["draining"] else "",
        )
    )
    if response["states"]:
        print(
            "jobs: "
            + ", ".join(
                "%d %s" % (count, state)
                for state, count in sorted(response["states"].items())
            )
        )
    for info in response["jobs"]:
        _print_job_summary(info)
    return 0


def _cmd_wait(args):
    return _serve_cmd(args, lambda client: _do_wait(args, client))


def _do_wait(args, client):
    final = client.wait(args.job, timeout=args.timeout)
    info = final["job"]
    _print_job_summary(info)
    if args.rows:
        for row in final["rows"]:
            print(
                "  %-28s %-10s [%s/%s] %-12s %s"
                % (
                    row["benchmark"],
                    row["engine"],
                    row["arch"],
                    row["platform"],
                    row["status"],
                    row.get("source", "-"),
                )
            )
    return _job_exit_status(args, info)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SimBench reproduction (Wagstaff et al., ISPASS 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show benchmarks, simulators, platforms")

    p_engines = sub.add_parser(
        "engines", help="describe the engine registry from its specs"
    )
    p_engines.add_argument(
        "--no-features",
        dest="features",
        action="store_false",
        help="omit the per-engine Figure 4 feature summary",
    )

    p_run = sub.add_parser("run", help="run one benchmark")
    p_run.add_argument("benchmark")
    p_run.add_argument("--iterations", type=int, default=None)
    _add_env_options(p_run)
    _add_runner_options(p_run)

    p_suite = sub.add_parser("suite", help="run the full suite")
    p_suite.add_argument("--scale", type=float, default=1.0)
    _add_env_options(p_suite)
    _add_runner_options(p_suite)

    p_wl = sub.add_parser("workloads", help="run the SPEC proxies")
    _add_env_options(p_wl)
    _add_runner_options(p_wl)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure (2-8)")
    p_fig.add_argument("number", type=int)
    p_fig.add_argument("--scale", type=float, default=0.5)
    _add_runner_options(p_fig)

    p_sweep = sub.add_parser("sweep", help="sweep one benchmark across QEMU versions")
    p_sweep.add_argument("benchmark")
    p_sweep.add_argument("--iterations", type=int, default=None)
    _add_env_options(p_sweep)
    _add_runner_options(p_sweep)

    p_bisect = sub.add_parser(
        "bisect",
        help="binary-search a spec axis for a metric regression, or "
        "validate a single-feature attribution kernel",
    )
    p_bisect.add_argument(
        "--benchmark",
        default=None,
        help="probe benchmark/workload by name (any registered benchmark)",
    )
    p_bisect.add_argument(
        "--field",
        default=None,
        help="structural spec field to attribute; probes with that "
        "field's attribution kernel (see --list-fields)",
    )
    p_bisect.add_argument(
        "--engine",
        default=None,
        choices=sorted(SPEC_CLASSES),
        help="engine whose fields --field/--validate/--list-fields "
        "refer to (default: qemu-dbt)",
    )
    p_bisect.add_argument(
        "--metric",
        default=None,
        help="'seconds', 'fields.<counter>', or either with a "
        "comparison (e.g. 'fields.tlb_misses >= 1000'); default: "
        "seconds for --benchmark, the kernel's cliff metric for --field",
    )
    p_bisect.add_argument(
        "--axis-file",
        default=None,
        metavar="PATH",
        help="JSON list of axis steps (spec delta payloads, or "
        "{label, spec} objects); default: the QEMU version timeline",
    )
    p_bisect.add_argument("--iterations", type=int, default=None)
    p_bisect.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="measurements per probe; their spread feeds the noise "
        "threshold (default: 1 -- modeled timing is deterministic)",
    )
    p_bisect.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="relative change below which endpoints count as equal "
        "(default: 0.05)",
    )
    p_bisect.add_argument(
        "--abs-threshold",
        type=float,
        default=0.0,
        help="absolute metric change floor for the same test (default: 0)",
    )
    p_bisect.add_argument(
        "--probe-retries",
        type=int,
        default=2,
        help="re-executions of a failed (flaky) probe before aborting "
        "(default: 2)",
    )
    p_bisect.add_argument(
        "--validate",
        action="store_true",
        help="instead of bisecting, ablation-validate --field's "
        "attribution kernel (exit 0 pass, 1 fail)",
    )
    p_bisect.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="with --validate: allowed drift from toggling other "
        "fields, as a fraction of the cliff span (default: 0.25)",
    )
    p_bisect.add_argument(
        "--list-fields",
        action="store_true",
        help="list bisectable structural fields (and their kernels) "
        "per engine, then exit",
    )
    p_bisect.add_argument(
        "--json", action="store_true", help="print the verdict as JSON"
    )
    p_bisect.add_argument("--arch", default="arm", choices=sorted(ARCHES))
    p_bisect.add_argument("--platform", default=None, choices=sorted(PLATFORMS))
    _add_runner_options(p_bisect)
    # Probes are worth keeping: they land in (and re-resolve from) the
    # working-directory dataset, so a warm re-bisect executes nothing.
    p_bisect.set_defaults(dataset_dir=".repro-dataset")

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the experiment dataset"
    )
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument(
        "--dataset-dir",
        default=".repro-dataset",
        help="experiment dataset directory (default: .repro-dataset); "
        "stats scans it, deleting (quarantining) every corrupt or "
        "other-schema row as `repro query` does, then prints its rows, "
        "bytes and schema and how many rows it deleted",
    )
    p_cache.add_argument(
        "--code-cache-dir",
        default=None,
        help="also report/clear the persistent DBT code cache at this path",
    )

    p_manifest = sub.add_parser(
        "manifest",
        help="run, describe or diff declarative experiment manifests",
    )
    p_manifest.add_argument("action", choices=["run", "show", "diff"])
    p_manifest.add_argument(
        "manifest",
        help="bundled manifest name (%s) or a TOML/JSON path"
        % ", ".join(sorted(bundled_manifests()) or ["none bundled"]),
    )
    p_manifest.add_argument(
        "other", nargs="?", default=None, help="second manifest (diff only)"
    )
    p_manifest.add_argument(
        "--cells",
        action="store_true",
        help="with `show`: list every expanded cell id",
    )
    _add_runner_options(p_manifest)
    # A manifest run is resumable by default: its cells land in (and
    # resolve from) the working-directory dataset unless redirected.
    p_manifest.set_defaults(dataset_dir=".repro-dataset")

    p_query = sub.add_parser(
        "query",
        help="query the experiment dataset "
        "(e.g. 'engine=qemu-dbt arch=arm bench=tlb-*')",
    )
    p_query.add_argument(
        "expr",
        nargs="*",
        help="whitespace-ANDed KEY OP VALUE terms; ops = != < <= > >=; "
        "string matches are case-insensitive globs; empty = all rows",
    )
    p_query.add_argument("--dataset-dir", default=".repro-dataset")

    def _add_socket_option(sub_parser):
        sub_parser.add_argument(
            "--socket",
            default=DEFAULT_SOCKET,
            metavar="PATH",
            help="service rendezvous socket (default: %s)" % DEFAULT_SOCKET,
        )

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived experiment service (warm pool + "
        "dataset behind a local socket; jobs run in submission order)",
    )
    _add_socket_option(p_serve)
    _add_runner_options(p_serve)
    # The service exists to keep a dataset warm; default it on.
    p_serve.set_defaults(dataset_dir=".repro-dataset")

    p_submit = sub.add_parser(
        "submit", help="submit a manifest or ad-hoc grid to a running service"
    )
    p_submit.add_argument(
        "manifest",
        nargs="?",
        default=None,
        help="bundled manifest name (%s) or a TOML/JSON path"
        % ", ".join(sorted(bundled_manifests()) or ["none bundled"]),
    )
    p_submit.add_argument(
        "--adhoc",
        action="store_true",
        help="submit an ad-hoc grid built from --sims/--arch/--benchmarks "
        "instead of a manifest",
    )
    p_submit.add_argument(
        "--sims",
        default="qemu-dbt",
        help="with --adhoc: comma-separated engines (default: qemu-dbt)",
    )
    p_submit.add_argument("--arch", default="arm", choices=sorted(ARCHES))
    p_submit.add_argument("--platform", default=None, choices=sorted(PLATFORMS))
    p_submit.add_argument(
        "--benchmarks",
        default="suite",
        help="with --adhoc: comma-separated benchmark names/globs/macros "
        "(default: suite)",
    )
    p_submit.add_argument("--iterations", type=int, default=None)
    p_submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and exit by its outcome",
    )
    p_submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --wait: bound the wait daemon-side",
    )
    p_submit.add_argument(
        "--keep-going",
        action="store_true",
        help="with --wait: exit 0 even when some cells failed",
    )
    _add_socket_option(p_submit)

    p_status = sub.add_parser(
        "status", help="show the service queue and jobs, or one job's progress"
    )
    p_status.add_argument("job", nargs="?", default=None)
    p_status.add_argument(
        "--drain",
        action="store_true",
        help="request a graceful drain instead of reporting status",
    )
    _add_socket_option(p_status)

    p_wait = sub.add_parser("wait", help="block until a job finishes")
    p_wait.add_argument("job")
    p_wait.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="bound the wait daemon-side (default: unbounded)",
    )
    p_wait.add_argument(
        "--rows",
        action="store_true",
        help="also print the per-cell telemetry rows",
    )
    p_wait.add_argument(
        "--keep-going",
        action="store_true",
        help="exit 0 even when some cells failed",
    )
    _add_socket_option(p_wait)

    p_metrics = sub.add_parser(
        "metrics",
        help="observability sweep: per-benchmark x per-engine breakdown",
    )
    p_metrics.add_argument(
        "--arches",
        default="arm,x86",
        help="comma-separated arch profiles to sweep (default: arm,x86)",
    )
    p_metrics.add_argument(
        "--sims",
        default=None,
        help="comma-separated engines (default: every engine evaluated "
        "on each arch)",
    )
    p_metrics.add_argument("--scale", type=float, default=0.25)
    _add_runner_options(p_metrics)

    p_detect = sub.add_parser("detect", help="sandbox-detect an engine")
    p_detect.add_argument("simulator", choices=sorted(SIMULATOR_CLASSES))
    p_detect.add_argument("--arch", default="arm", choices=sorted(ARCHES))

    p_report = sub.add_parser("report", help="write the full evaluation report")
    p_report.add_argument("--output", default="REPORT.md")
    p_report.add_argument("--scale", type=float, default=0.5)
    _add_runner_options(p_report)

    p_compare = sub.add_parser("compare", help="side-by-side suite comparison")
    p_compare.add_argument("--sims", default="qemu-dbt,simit")
    p_compare.add_argument("--scale", type=float, default=0.5)
    _add_env_options(p_compare)
    _add_runner_options(p_compare)

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "engines": _cmd_engines,
    "run": _cmd_run,
    "suite": _cmd_suite,
    "workloads": _cmd_workloads,
    "figure": _cmd_figure,
    "sweep": _cmd_sweep,
    "bisect": _cmd_bisect,
    "cache": _cmd_cache,
    "manifest": _cmd_manifest,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "wait": _cmd_wait,
    "metrics": _cmd_metrics,
    "detect": _cmd_detect,
    "report": _cmd_report,
    "compare": _cmd_compare,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C: the runner has already discarded its pool (queued
        # chunks cancelled, workers exited quietly) on the way out --
        # exit with the conventional 130
        # instead of a pile of concurrent.futures tracebacks.
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout or stderr was piped into something like `head` that
        # went away (the failure summary goes to stderr, so both can
        # break).  Point the dead stream(s) at devnull so the
        # interpreter's shutdown flush cannot traceback, and exit
        # quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (BrokenPipeError, OSError, ValueError):
                pass
            try:
                os.dup2(devnull, stream.fileno())
            except (OSError, ValueError):
                pass
        os.close(devnull)
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
