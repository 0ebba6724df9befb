"""Ablation validation for single-feature attribution kernels.

A kernel earns the claim "this measures field F" only if toggling F
between its ablation settings moves the kernel's cliff metric past the
cliff ratio *and* toggling every other bisectable field (one at a
time, from the engine's defaults) leaves the metric within tolerance
of the default-spec baseline.  This module runs exactly that
experiment and returns a per-field report, so the attribution contract
is checked against the real engines rather than asserted.
"""

from repro.attrib.bisect import parse_metric
from repro.core.benchmarks.attribution import attribution_kernel
from repro.sim.spec import SPEC_CLASSES

__all__ = ["AblationReport", "validate_attribution"]

#: Laplace-style smoothing for the cliff ratio, so an ideal kernel
#: whose fast setting hits the counter zero times does not divide by
#: zero (and a 0-vs-1 fluctuation does not read as an infinite cliff).
_SMOOTH = 1.0


class AblationReport:
    """Outcome of validating one (engine, field) attribution kernel."""

    __slots__ = (
        "engine",
        "field",
        "kernel",
        "metric",
        "baseline",
        "low_value",
        "high_value",
        "cliff_ratio",
        "min_cliff_ratio",
        "span",
        "tolerance",
        "others",
        "failures",
    )

    def __init__(self, **kwargs):
        for name in self.__slots__:
            setattr(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError("unexpected fields: %s" % sorted(kwargs))

    @property
    def passed(self):
        return not self.failures

    def as_dict(self):
        return {
            "engine": self.engine,
            "field": self.field,
            "kernel": self.kernel,
            "metric": self.metric,
            "baseline": self.baseline,
            "low_value": self.low_value,
            "high_value": self.high_value,
            "cliff_ratio": self.cliff_ratio,
            "min_cliff_ratio": self.min_cliff_ratio,
            "span": self.span,
            "tolerance": self.tolerance,
            "others": {
                name: {"setting": setting, "value": value, "drift": drift}
                for name, (setting, value, drift) in sorted(self.others.items())
            },
            "failures": list(self.failures),
            "passed": self.passed,
        }

    def summary(self):
        """Human-readable report lines (what the CLI prints)."""
        lines = [
            "%s: %s on %s (%s)"
            % (
                "PASS" if self.passed else "FAIL",
                self.kernel,
                self.engine,
                self.metric,
            ),
            "  target %s: %.6g (low) vs %.6g (high), cliff ratio %.2fx "
            "(needs >= %.2fx)"
            % (
                self.field,
                self.low_value,
                self.high_value,
                self.cliff_ratio,
                self.min_cliff_ratio,
            ),
        ]
        for name, (setting, value, drift) in sorted(self.others.items()):
            lines.append(
                "  other %s=%r: %.6g (drift %.1f%% of span, tolerance %.0f%%)"
                % (name, setting, value, 100.0 * drift, 100.0 * self.tolerance)
            )
        for failure in self.failures:
            lines.append("  ! %s" % failure)
        return lines


def validate_attribution(
    engine,
    field,
    arch,
    platform,
    runner=None,
    iterations=None,
    tolerance=0.25,
    min_cliff_ratio=2.0,
):
    """Validate the attribution kernel for ``field`` on ``engine``.

    Probes the kernel under the engine's default spec, under the target
    field's two ablation settings, and under every *other* bisectable
    field flipped away from its default, then checks the cliff and
    isolation criteria.  Returns an :class:`AblationReport`;
    ``report.passed`` is the verdict, ``report.failures`` says why not.
    """
    from repro.core.runner import ExperimentRunner, JobSpec

    kernel = attribution_kernel(engine, field)
    spec_cls = SPEC_CLASSES[engine]
    pairs = spec_cls.bisectable_fields()
    low_setting, high_setting = pairs[field]
    metric = parse_metric(kernel.cliff_metric)

    owns_runner = runner is None
    if owns_runner:
        runner = ExperimentRunner()

    def measure(spec):
        result = runner.run(
            [JobSpec(kernel, spec, arch, platform, iterations=iterations)]
        )[0]
        if not result.ok:
            raise RuntimeError(
                "ablation probe failed on %s (%s): %s"
                % (spec, result.status, result.error)
            )
        return metric.extract(result)

    try:
        default_spec = spec_cls()
        baseline = measure(default_spec)
        low_value = measure(default_spec.replace(**{field: low_setting}))
        high_value = measure(default_spec.replace(**{field: high_setting}))

        failures = []
        slow, fast = max(low_value, high_value), min(low_value, high_value)
        cliff_ratio = (slow + _SMOOTH) / (fast + _SMOOTH)
        if cliff_ratio < min_cliff_ratio:
            failures.append(
                "target toggle does not cross the cliff: %.6g vs %.6g "
                "(%.2fx < %.2fx)" % (slow, fast, cliff_ratio, min_cliff_ratio)
            )
        span = abs(high_value - low_value)

        others = {}
        for other, (other_low, other_high) in pairs.items():
            if other == field:
                continue
            default_value = getattr(default_spec, other)
            flipped = other_low if default_value == other_high else other_high
            value = measure(default_spec.replace(**{other: flipped}))
            drift = abs(value - baseline) / span if span else float("inf")
            others[other] = (flipped, value, drift)
            if drift > tolerance:
                failures.append(
                    "toggling %s=%r moved the metric %.6g -> %.6g "
                    "(%.1f%% of the cliff span, tolerance %.0f%%)"
                    % (
                        other,
                        flipped,
                        baseline,
                        value,
                        100.0 * drift,
                        100.0 * tolerance,
                    )
                )
    finally:
        if owns_runner:
            runner.close()

    return AblationReport(
        engine=engine,
        field=field,
        kernel=kernel.name,
        metric=kernel.cliff_metric,
        baseline=baseline,
        low_value=low_value,
        high_value=high_value,
        cliff_ratio=cliff_ratio,
        min_cliff_ratio=min_cliff_ratio,
        span=span,
        tolerance=tolerance,
        others=others,
        failures=failures,
    )
