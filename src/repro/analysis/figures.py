"""Regeneration of every table and figure in the paper's evaluation.

Each ``figureN`` function returns a plain data structure (documented
per function) that a caller can plot or tabulate; ``render_*`` helpers
produce the text renderings used by the examples and benchmark
harnesses.  Absolute numbers are modeled seconds on the reproduction's
engines, so only the *shapes* are comparable with the paper -- see
EXPERIMENTS.md for the side-by-side record.
"""

from repro.analysis.stats import geomean
from repro.analysis.sweep import VersionSweep
from repro.arch import ARM, X86
from repro.core.density import REFERENCE_SIMULATOR, density_table
from repro.core.runner import ExperimentRunner, JobSpec
from repro.core.suite import SUITE, GROUPS, benchmarks_in_group
from repro.platform import PCPLAT, VEXPRESS
from repro.sim.dbt.versions import QEMU_VERSIONS
from repro.sim.spec import DBTSpec, InterpSpec, NativeSpec, SPEC_CLASSES, VirtSpec, engines_for_arch
from repro.workloads import SPEC_PROXIES

#: The Figure 7 column layouts per guest architecture, derived from the
#: engine registry (each spec class declares ``evaluated_archs``).
ARM_SIMULATORS = engines_for_arch("arm")
X86_SIMULATORS = engines_for_arch("x86")


def _default_env(arch):
    return (ARM, VEXPRESS) if arch.name == "arm" else (X86, PCPLAT)


# ---------------------------------------------------------------------------
# Figure 1: user-mode vs full-system simulation (conceptual)
# ---------------------------------------------------------------------------


def figure1():
    """The paper's Figure 1: which components a user-mode simulator
    borrows from the host vs what a full-system simulator must model.

    Returns ``{"user-mode": {...}, "full-system": {...}}`` mapping each
    guest-visible facility to "simulated" or "host", derived from what
    this reproduction actually builds (the full-system column is
    exactly the substrate in :mod:`repro.machine`).
    """
    return {
        "user-mode": {
            "CPU": "simulated",
            "MMU": "host (flat memory, one address space)",
            "System calls": "host (syscall emulation layer)",
            "Console": "host",
            "Timers": "host",
            "Storage": "host file system",
        },
        "full-system": {
            "CPU": "simulated",
            "MMU": "simulated (page tables, TLBs, faults)",
            "System calls": "simulated (guest kernel handles them)",
            "Console": "simulated serial port -> host console",
            "Timers": "simulated -> host timers",
            "Storage": "simulated device -> host file system",
            "Interrupt controller": "simulated",
            "Coprocessors": "simulated",
        },
    }


def render_figure1(data, title="Figure 1: user-mode vs full-system simulation"):
    lines = [title]
    facilities = sorted(set(data["user-mode"]) | set(data["full-system"]))
    lines.append("%-22s %-42s %s" % ("Facility", "User-mode", "Full-system"))
    for facility in facilities:
        lines.append(
            "%-22s %-42s %s"
            % (
                facility,
                data["user-mode"].get(facility, "-"),
                data["full-system"].get(facility, "-"),
            )
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 2: SPEC speedups across QEMU versions (sjeng, mcf, overall)
# ---------------------------------------------------------------------------


def figure2(
    arch=ARM,
    platform=None,
    scale=1.0,
    runner=None,
    strict=True,
    dataset=None,
):
    """Relative SPEC-proxy performance across the QEMU version sweep.

    Returns ``{"versions": [...], "series": {name: [speedups]}}`` with
    series for ``sjeng``, ``mcf`` and ``SPEC (overall)`` (the weighted
    geometric mean across all proxies), baselined at v1.7.0.

    ``strict=False`` keeps going past failed cells (their speedups are
    NaN) instead of raising -- see :meth:`VersionSweep.run_many`.
    With ``dataset=`` the sweep resolves cells from an experiment
    dataset (:mod:`repro.exp`) and only executes what is missing; the
    output is identical either way.
    """
    if platform is None:
        platform = _default_env(arch)[1]
    sweep = VersionSweep(arch, platform, runner=runner, dataset=dataset)
    cells = [
        (workload, max(1, int(workload.default_iterations * scale)))
        for workload in SPEC_PROXIES
    ]
    # The overall geomean sums its logs in this order -- proxies
    # grouped by iteration count, first-seen count first -- and float
    # addition is order-dependent, so the order is part of its value.
    counts = list(dict.fromkeys(iterations for _workload, iterations in cells))
    cells.sort(key=lambda cell: counts.index(cell[1]))
    all_series = sweep.run_many(cells, strict=strict)
    speedups = {name: series.speedups() for name, series in all_series.items()}
    overall = [
        geomean((series[index] for series in speedups.values()), strict=strict)
        for index in range(len(QEMU_VERSIONS))
    ]
    return {
        "versions": list(QEMU_VERSIONS),
        "series": {
            "sjeng": list(speedups["sjeng"]),
            "mcf": list(speedups["mcf"]),
            "SPEC (overall)": overall,
        },
        "all_series": {name: list(values) for name, values in speedups.items()},
    }


# ---------------------------------------------------------------------------
# Figure 3: benchmark inventory with operation densities
# ---------------------------------------------------------------------------


def figure3(arch=ARM, platform=None, runner=None, scale=1.0, workload_scale=1.0):
    """Figure 3's rows: iterations and operation density, SimBench vs
    the SPEC proxies (measured on the reference engine)."""
    if platform is None:
        platform = _default_env(arch)[1]
    if runner is None:
        runner = ExperimentRunner()
    specs = [
        JobSpec(
            workload,
            REFERENCE_SIMULATOR,
            arch,
            platform,
            iterations=max(1, int(workload.default_iterations * workload_scale)),
        )
        for workload in SPEC_PROXIES
    ]
    deltas = [result.kernel_delta for result in runner.run(specs) if result.ok]
    return density_table(arch, platform, workload_deltas=deltas, runner=runner, scale=scale)


# ---------------------------------------------------------------------------
# Figure 4: qualitative feature matrix
# ---------------------------------------------------------------------------


def figure4(arch=ARM, platform=None):
    """The Figure 4 feature matrix, generated from the engines' own
    ``feature_summary()`` implementations via the spec registry."""
    if platform is None:
        platform = _default_env(arch)[1]
    return {
        name: spec_class().feature_summary(arch, platform)
        for name, spec_class in SPEC_CLASSES.items()
    }


# ---------------------------------------------------------------------------
# Figure 5: host platform details
# ---------------------------------------------------------------------------

#: The simulated analogues of the paper's ODROID-XU3 and HP z440 hosts.
#: (The reproduction's "hosts" are the per-architecture cost tables.)
HOSTS = {
    "arm": {
        "Machine": "simulated ODROID-XU3 analogue",
        "CPU": "SRV32 native cost model (arm profile)",
        "Platform": "vexpress",
        "Page tables": "sections + two-level coarse pages",
        "Notes": "Only the big-core cost table is modelled.",
    },
    "x86": {
        "Machine": "simulated HP z440 analogue",
        "CPU": "SRV32 native cost model (x86 profile)",
        "Platform": "pcplat",
        "Page tables": "two-level pages",
        "Notes": "Math-coprocessor resets are expensive, as on real x86.",
    },
}


def figure5():
    return {name: dict(info) for name, info in HOSTS.items()}


# ---------------------------------------------------------------------------
# Figure 6: per-category SimBench speedups across QEMU versions
# ---------------------------------------------------------------------------


def figure6(
    arch=ARM,
    platform=None,
    scale=1.0,
    runner=None,
    strict=True,
    dataset=None,
):
    """SimBench speedups per category across the QEMU version sweep.

    Returns ``{"versions": [...], "panels": {group: {bench: [speedups]}}}``.
    ``strict=False`` keeps going past failed cells (NaN speedups);
    ``dataset=`` resolves cells from an experiment dataset as in
    :func:`figure2`.
    """
    if platform is None:
        platform = _default_env(arch)[1]
    sweep = VersionSweep(arch, platform, runner=runner, dataset=dataset)
    grid = [
        (group, benchmark)
        for group in GROUPS
        for benchmark in benchmarks_in_group(group)
        if benchmark.effective(arch)
    ]
    series = sweep.run_many(
        (
            (benchmark, max(1, int(benchmark.default_iterations * scale)))
            for _group, benchmark in grid
        ),
        strict=strict,
    )
    panels = {}
    for group, benchmark in grid:
        panels.setdefault(group, {})[benchmark.name] = list(
            series[benchmark.name].speedups()
        )
    return {"versions": list(QEMU_VERSIONS), "panels": panels}


# ---------------------------------------------------------------------------
# Figure 7: the main results table
# ---------------------------------------------------------------------------


def figure7(scale=1.0, runner=None, dataset=None):
    """The full cross-simulator results table (modeled seconds).

    Returns ``{"arm": {sim: {bench: seconds|None}}, "x86": {...}}``
    where ``None`` marks unsupported (dagger) or not-applicable ('-')
    cells, with the reason in the parallel ``status`` maps.

    The whole table is submitted to the experiment runner as one flat
    grid, so with ``runner=ExperimentRunner(jobs=N)`` every cell of
    both guest architectures executes in parallel.  With ``dataset=``
    cells already in the experiment dataset are priced from their
    stored records (zero guest instructions) and only missing cells
    execute.
    """
    if runner is None:
        runner = ExperimentRunner()
    if dataset is not None:
        runner.dataset = dataset
    grid = []
    specs = []
    for arch, platform, simulators in (
        (ARM, VEXPRESS, ARM_SIMULATORS),
        (X86, PCPLAT, X86_SIMULATORS),
    ):
        for simulator in simulators:
            for benchmark in SUITE:
                grid.append((arch.name, simulator))
                specs.append(
                    JobSpec(
                        benchmark,
                        simulator,
                        arch,
                        platform,
                        iterations=max(1, int(benchmark.default_iterations * scale)),
                    )
                )
    results = runner.run(specs)
    table = {}
    status = {}
    for (arch_name, simulator), result in zip(grid, results):
        seconds = table.setdefault(arch_name, {}).setdefault(simulator, {})
        states = status.setdefault(arch_name, {}).setdefault(simulator, {})
        seconds[result.benchmark] = result.kernel_seconds if result.ok else None
        states[result.benchmark] = result.status
    return {"seconds": table, "status": status}


# ---------------------------------------------------------------------------
# Figure 8: geomean SPEC vs SimBench speedups across versions
# ---------------------------------------------------------------------------


def figure8(
    arch=ARM,
    platform=None,
    scale=1.0,
    figure2_data=None,
    figure6_data=None,
    runner=None,
    strict=True,
    dataset=None,
):
    """Geomean speedup of the SPEC proxies and of SimBench across the
    QEMU version sweep (both baselined at v1.7.0)."""
    if figure2_data is None:
        figure2_data = figure2(
            arch,
            platform,
            scale=scale,
            runner=runner,
            strict=strict,
            dataset=dataset,
        )
    if figure6_data is None:
        figure6_data = figure6(
            arch,
            platform,
            scale=scale,
            runner=runner,
            strict=strict,
            dataset=dataset,
        )
    versions = figure2_data["versions"]
    spec = figure2_data["series"]["SPEC (overall)"]
    simbench = []
    bench_series = [
        speedups
        for panel in figure6_data["panels"].values()
        for speedups in panel.values()
    ]
    for index in range(len(versions)):
        simbench.append(
            geomean((series[index] for series in bench_series), strict=strict)
        )
    return {"versions": versions, "series": {"SPEC": spec, "SimBench": simbench}}


# ---------------------------------------------------------------------------
# Figure manifests: the declarative form of the experiment grids above
# ---------------------------------------------------------------------------


def figure_manifest(number, arch=ARM, scale=0.5):
    """The declarative manifest for a figure's experiment grid.

    The returned :class:`repro.exp.manifest.Manifest` expands to
    exactly the cells ``figureN`` submits (same engines, benchmarks and
    iteration counts, hence the same structural fingerprints), so
    running it populates an experiment dataset from which
    ``figureN(dataset=...)`` regenerates the figure without executing a
    single guest instruction.  The bundled manifests under
    ``repro/exp/manifests/`` are these payloads rendered to TOML at the
    default ``scale=0.5``.
    """
    from repro.core.suite import slugify
    from repro.exp.manifest import Manifest

    sweep_engines = [{"sweep": "qemu-versions"}]

    def _grid(arch, engines, benchmarks):
        _, platform = _default_env(arch)
        return {
            "arch": arch.name,
            "platform": platform.name,
            "engines": engines,
            "benchmarks": benchmarks,
        }

    def _figure6_benchmarks(arch):
        return [
            slugify(benchmark.name)
            for group in GROUPS
            for benchmark in benchmarks_in_group(group)
            if benchmark.effective(arch)
        ]

    if number == 2:
        grids = [_grid(arch, sweep_engines, ["spec-proxies"])]
        description = "SPEC-proxy speedups across the QEMU version sweep"
    elif number == 6:
        grids = [_grid(arch, sweep_engines, _figure6_benchmarks(arch))]
        description = "per-category SimBench speedups across the QEMU version sweep"
    elif number == 7:
        grids = [
            _grid(ARM, list(ARM_SIMULATORS), ["suite"]),
            _grid(X86, list(X86_SIMULATORS), ["suite"]),
        ]
        description = "the main cross-simulator results table"
    elif number == 8:
        grids = [
            _grid(arch, sweep_engines, ["spec-proxies"]),
            _grid(arch, sweep_engines, _figure6_benchmarks(arch)),
        ]
        description = "geomean SPEC vs SimBench speedups across versions"
    else:
        raise ValueError(
            "no manifest for figure %r (figures 2, 6, 7 and 8 are grid-backed)"
            % (number,)
        )
    return Manifest(
        {
            "manifest": {
                "schema": 1,
                "name": "figure%d" % number,
                "description": description,
                "seed": 0,
            },
            "runner": {"scale": scale},
            "grid": grids,
        }
    )


# ---------------------------------------------------------------------------
# Section III-B narratives
# ---------------------------------------------------------------------------


def explain_dbt_vs_interpreter(figure7_data):
    """Section III-B.1: which benchmarks favour DBT vs interpretation."""
    arm = figure7_data["seconds"]["arm"]
    dbt, interp = arm[DBTSpec.engine], arm[InterpSpec.engine]
    findings = []
    for name, dbt_seconds in dbt.items():
        interp_seconds = interp.get(name)
        if dbt_seconds is None or interp_seconds is None:
            continue
        ratio = interp_seconds / dbt_seconds
        findings.append((name, ratio))
    findings.sort(key=lambda item: item[1])
    return {
        "interpreter_wins": [(n, r) for n, r in findings if r < 1.0],
        "dbt_wins": [(n, r) for n, r in findings if r >= 1.0],
    }


def explain_virtualization(figure7_data):
    """Section III-B.2: where KVM-style virtualization diverges from
    native hardware."""
    divergences = {}
    for arch_name, table in figure7_data["seconds"].items():
        kvm, native = table.get(VirtSpec.engine), table.get(NativeSpec.engine)
        if kvm is None or native is None:
            continue
        rows = []
        for name, kvm_seconds in kvm.items():
            native_seconds = native.get(name)
            if kvm_seconds is None or native_seconds is None or native_seconds == 0:
                continue
            rows.append((name, kvm_seconds / native_seconds))
        rows.sort(key=lambda item: -item[1])
        divergences[arch_name] = rows
    return divergences


# ---------------------------------------------------------------------------
# Text renderings
# ---------------------------------------------------------------------------


def render_series(figure_data, title="", width=9):
    """Render a {versions, series} figure as an aligned text table."""
    versions = figure_data["versions"]
    series = figure_data["series"]
    lines = []
    if title:
        lines.append(title)
    header = "%-12s" % "version" + "".join(
        "%*s" % (width + 2, name[: width + 1]) for name in series
    )
    lines.append(header)
    for index, version in enumerate(versions):
        row = "%-12s" % version
        for name in series:
            value = series[name][index]
            if value is None or value != value:
                # Failed cell under a non-strict sweep: render a gap,
                # keeping the rest of the column aligned and readable.
                row += "%*s" % (width + 2, "--")
            else:
                row += "%*.3f" % (width + 2, value)
        lines.append(row)
    return "\n".join(lines)


def render_figure6(figure_data, title="Figure 6"):
    lines = [title]
    for group, panel in figure_data["panels"].items():
        lines.append("")
        lines.append(
            render_series(
                {"versions": figure_data["versions"], "series": panel},
                title="[%s]" % group,
            )
        )
    return "\n".join(lines)


def render_figure7(figure7_data, title="Figure 7 (modeled seconds)"):
    lines = [title]
    for arch_name, table in figure7_data["seconds"].items():
        simulators = list(table)
        lines.append("")
        lines.append("%s guest:" % arch_name.upper())
        lines.append(
            "%-28s" % "Benchmark" + "".join("%14s" % s for s in simulators)
        )
        benchmarks = list(next(iter(table.values())))
        status = figure7_data["status"][arch_name]
        for name in benchmarks:
            row = "%-28s" % name
            for simulator in simulators:
                seconds = table[simulator].get(name)
                if seconds is None:
                    marker = status[simulator].get(name, "?")
                    row += "%14s" % {"unsupported": "(dagger)", "not-applicable": "-"}.get(
                        marker, marker
                    )
                else:
                    row += "%14.6f" % seconds
            lines.append(row)
    return "\n".join(lines)


def render_figure3(rows, title="Figure 3"):
    lines = [title]
    lines.append(
        "%-20s %-28s %12s %10s %14s %14s"
        % ("Group", "Benchmark", "PaperIters", "Iters", "SimBench", "SPEC")
    )
    for row in rows:
        simbench = row.get("simbench_density")
        spec = row.get("spec_density")
        lines.append(
            "%-20s %-28s %12d %10d %14s %14s"
            % (
                row["group"],
                row["benchmark"],
                row["paper_iterations"],
                row["iterations"],
                "%.4f" % simbench if simbench is not None else "-",
                ("%.3e" % spec) if spec is not None else "-",
            )
        )
    return "\n".join(lines)


def render_figure4(matrix, title="Figure 4"):
    features = list(next(iter(matrix.values())))
    lines = [title]
    lines.append("%-28s" % "Feature" + "".join("%22s" % name for name in matrix))
    for feature in features:
        row = "%-28s" % feature
        for name in matrix:
            row += "%22s" % matrix[name].get(feature, "-")[:21]
        lines.append(row)
    return "\n".join(lines)
