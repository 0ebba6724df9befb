"""One-shot report generation: every reproduced figure in one document.

``generate_report()`` runs the full evaluation (Figures 2-8 plus the
engine feature matrix and the prediction study) and renders a single
markdown document -- the reproduction-package equivalent of the paper's
evaluation section.  The CLI exposes it as ``python -m repro report``.
"""

import datetime

from repro.analysis import figures
from repro.arch import ARM
from repro.core import ExperimentRunner, PerformanceModel
from repro.core.predict import predict_workloads
from repro.platform import VEXPRESS
from repro.sim.spec import DBTSpec
from repro.workloads import SPEC_PROXIES


def _block(text):
    return "```\n%s\n```\n" % text.rstrip()


def generate_report(scale=0.5, runner=None, timestamp=None):
    """Run the full evaluation and return the report as markdown text.

    Every section's cells go through ``runner``; give it a dataset and
    a section resolves the cells an earlier section (or an earlier
    report) already ran instead of executing them again.
    """
    if runner is None:
        runner = ExperimentRunner()
    if timestamp is None:
        timestamp = datetime.datetime.now().isoformat(timespec="seconds")

    sections = []
    sections.append("# SimBench reproduction report")
    sections.append("")
    sections.append(
        "Generated %s with iteration scale %.2f (modeled timing; see "
        "EXPERIMENTS.md for the paper-vs-measured discussion)." % (timestamp, scale)
    )
    sections.append("")

    sections.append("## Figure 4: implementation features")
    sections.append(_block(figures.render_figure4(figures.figure4())))

    sections.append("## Figure 7: cross-simulator results")
    fig7 = figures.figure7(scale=scale, runner=runner)
    sections.append(_block(figures.render_figure7(fig7)))

    sections.append("### Section III-B.1: DBT vs interpretation")
    explained = figures.explain_dbt_vs_interpreter(fig7)
    lines = ["Interpreter wins (time ratio simit/dbt < 1):"]
    for name, ratio in explained["interpreter_wins"]:
        lines.append("  %-28s %.2fx" % (name, ratio))
    lines.append("DBT wins:")
    for name, ratio in explained["dbt_wins"][-5:]:
        lines.append("  %-28s %.2fx" % (name, ratio))
    sections.append(_block("\n".join(lines)))

    sections.append("### Section III-B.2: virtualization vs native")
    divergences = figures.explain_virtualization(fig7)
    lines = []
    for arch_name, rows in divergences.items():
        lines.append("%s guest (kvm/native, worst first):" % arch_name)
        for name, ratio in rows[:5]:
            lines.append("  %-28s %8.1fx" % (name, ratio))
    sections.append(_block("\n".join(lines)))

    sections.append("## Figure 2: SPEC proxies across QEMU versions")
    fig2 = figures.figure2(scale=scale, runner=runner)
    sections.append(_block(figures.render_series(fig2)))

    sections.append("## Figure 6: SimBench across QEMU versions (ARM guest)")
    fig6 = figures.figure6(ARM, VEXPRESS, scale=scale, runner=runner)
    sections.append(_block(figures.render_figure6(fig6, title="")))

    sections.append("## Figure 8: geomean SPEC vs SimBench")
    fig8 = figures.figure8(figure2_data=fig2, figure6_data=fig6)
    sections.append(_block(figures.render_series(fig8)))

    sections.append("## Figure 3: operation densities")
    fig3 = figures.figure3(runner=runner, scale=scale, workload_scale=1.0)
    sections.append(_block(figures.render_figure3(fig3, title="")))

    sections.append("## Contribution 3: predicting the SPEC proxies")
    profile_spec = DBTSpec()
    suite_result = runner.run_suite(profile_spec, ARM, VEXPRESS, scale=scale)
    model = PerformanceModel.fit(suite_result, ARM)
    rows = predict_workloads(
        model, runner, SPEC_PROXIES, ARM, VEXPRESS, profile_simulator=profile_spec
    )
    lines = ["%-12s %14s %14s %9s" % ("workload", "predicted(ms)", "measured(ms)", "error")]
    for name, predicted, measured, error in rows:
        lines.append(
            "%-12s %14.4f %14.4f %8.1f%%" % (name, predicted / 1e6, measured / 1e6, 100 * error)
        )
    sections.append(_block("\n".join(lines)))

    return "\n".join(sections) + "\n"


def write_report(path, scale=0.5, runner=None):
    """Generate and write the report; returns the path."""
    text = generate_report(scale=scale, runner=runner)
    with open(path, "w") as handle:
        handle.write(text)
    return path
