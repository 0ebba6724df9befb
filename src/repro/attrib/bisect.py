"""Automated regression bisection over an ordered axis of engine specs.

The axis is a sequence of ``(label, EngineSpec)`` steps -- the
simulated QEMU version history (:func:`repro.analysis.sweep.
version_axis`) or any user-supplied list of spec delta payloads.  The
:class:`Bisector` binary-searches it for the step that moves a chosen
metric past a noise threshold, the way SimBench's Section V narrows
"qemu got slower" to the release (and, via :meth:`EngineSpec.diff`, the
spec fields) that did it.

Three properties keep the search honest:

- **Noise model.**  Every probe runs ``repeats`` times; the observed
  spread feeds the classification threshold, so a delta smaller than
  measurement noise is "no-change", not a phantom regression.  Flaky
  probes (crashed/timeout cells) re-execute up to ``probe_retries``
  times instead of mis-directing the search -- failed runs are never
  stored by the dataset layer, so a retry is a genuinely fresh run.
- **Envelope classification.**  A midpoint is attributed to an
  endpoint only when its value sits inside that endpoint's noise
  envelope.  A value between the envelopes means the change is spread
  over several steps (``diffuse``); a value outside both means the
  axis is not a single step function (``non-monotonic``).  Both are
  reported as such -- never silently bisected to a wrong step.
- **Dataset reuse.**  Run on an
  :class:`~repro.core.runner.ExperimentRunner` with a dataset, every
  probe that was ever stored resolves at zero guest cost; a warm
  re-bisect executes 0 cells.  The bisector only counts *executed*
  cells it caused.
"""

from repro.obs.metrics import METRICS

__all__ = [
    "BisectAxis",
    "BisectProbeError",
    "BisectResult",
    "Bisector",
    "Metric",
    "parse_metric",
]


class BisectProbeError(RuntimeError):
    """A probe kept failing after every retry; the search is invalid."""

    def __init__(self, label, status, error):
        super().__init__(
            "probe %r failed after retries: %s (%s)" % (label, status, error)
        )
        self.label = label
        self.status = status
        self.error = error


# -- metrics ---------------------------------------------------------------

_COMPARES = {
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

#: Two-character operators first, so ``>=`` never parses as ``>``.
_OPERATORS = (">=", "<=", "!=", ">", "<", "=")


class Metric:
    """What a probe measures on one :class:`BenchmarkResult`.

    ``seconds`` reads the modeled kernel seconds; ``fields.<name>``
    reads one kernel counter delta (a counter that was never bumped
    reads 0).  With a predicate (``fields.tlb_misses >= 1000``) the
    metric is the 0/1 truth value and the bisection finds the step
    where the predicate flips.
    """

    __slots__ = ("text", "source", "counter", "op", "rhs")

    def __init__(self, text, source, counter=None, op=None, rhs=None):
        self.text = text
        self.source = source  # "seconds" | "counter"
        self.counter = counter
        self.op = op
        self.rhs = rhs

    def extract(self, result):
        if self.source == "seconds":
            value = result.kernel_ns / 1e9
        else:
            value = float(result.kernel_delta.get(self.counter, 0) or 0)
        if self.op is not None:
            return 1.0 if _COMPARES[self.op](value, self.rhs) else 0.0
        return value

    def __repr__(self):
        return "Metric(%s)" % self.text


def parse_metric(text):
    """Parse metric text: ``seconds``, ``fields.<counter>``, or either
    followed by a query-grammar comparison (``fields.x >= 100``).

    Raises :class:`ValueError` on unknown sources or malformed
    predicates -- a typo'd counter name must not silently bisect 0s.
    """
    if isinstance(text, Metric):
        return text
    raw = " ".join(str(text or "").split())
    key, op, rhs = raw, None, None
    for candidate in _OPERATORS:
        head, sep, tail = raw.partition(candidate)
        if sep:
            key, op, rhs = head.strip(), candidate, tail.strip()
            break
    if op is not None:
        try:
            rhs = float(rhs)
        except ValueError:
            raise ValueError(
                "metric predicate %r needs a numeric right-hand side" % raw
            ) from None
    if key == "seconds":
        return Metric(raw, "seconds", op=op, rhs=rhs)
    if key.startswith("fields.") and len(key) > len("fields."):
        return Metric(raw, "counter", counter=key[len("fields.") :], op=op, rhs=rhs)
    raise ValueError(
        "unknown metric %r (expected 'seconds', 'fields.<counter>', or "
        "either followed by e.g. '>= 100')" % raw
    )


# -- the axis --------------------------------------------------------------

class BisectAxis:
    """An ordered sequence of ``(label, EngineSpec)`` steps.

    All steps must share one engine (a field-level diff across engines
    is meaningless) and there must be at least two of them.  ``notes``
    optionally maps labels to human-readable changelog entries,
    surfaced in the verdict.
    """

    __slots__ = ("labels", "specs", "notes")

    def __init__(self, steps, notes=None):
        steps = list(steps)
        if len(steps) < 2:
            raise ValueError("a bisection axis needs at least two steps")
        self.labels = tuple(str(label) for label, _spec in steps)
        self.specs = tuple(spec for _label, spec in steps)
        engines = {spec.engine for spec in self.specs}
        if len(engines) != 1:
            raise ValueError(
                "axis mixes engines %s; bisection diffs fields of one engine"
                % ", ".join(sorted(engines))
            )
        self.notes = dict(notes or {})

    @classmethod
    def qemu_versions(cls, arch_name="arm", versions=None):
        """The simulated QEMU release axis (with changelog notes)."""
        from repro.analysis.sweep import version_axis
        from repro.sim.dbt.versions import CHANGELOG

        return cls(version_axis(arch_name, versions), notes=CHANGELOG)

    @classmethod
    def from_payloads(cls, payloads, notes=None):
        """An axis from spec delta payloads (the manifest/wire form).

        Each entry is either a bare ``{"engine": ..., "fields": ...}``
        delta payload, or ``{"label": ..., "spec": <delta payload>}``.
        Unlabelled steps get their ordinal as label.
        """
        from repro.sim.spec import EngineSpec

        steps = []
        for index, entry in enumerate(payloads):
            if "spec" in entry:
                label = entry.get("label", "step-%d" % index)
                payload = entry["spec"]
            else:
                label = "step-%d" % index
                payload = entry
            steps.append((label, EngineSpec.from_delta_payload(payload)))
        return cls(steps, notes=notes)

    @property
    def engine(self):
        return self.specs[0].engine

    def delta(self, i, j):
        """``{field: (value_at_i, value_at_j)}`` between two steps."""
        return self.specs[i].diff(self.specs[j])

    def note(self, index):
        return self.notes.get(self.labels[index])

    def __len__(self):
        return len(self.specs)


# -- the search ------------------------------------------------------------

class BisectResult:
    """The verdict of one bisection.

    ``status``:

    - ``"found"`` -- the metric steps once, between ``last_good`` and
      ``first_bad``; ``delta`` holds the spec fields that changed
      there and ``note`` the axis changelog entry, if any.
    - ``"no-change"`` -- endpoints (and interior spot checks) agree
      within the noise threshold.
    - ``"non-monotonic"`` -- some probed step (``suspect``) lies
      outside both endpoint envelopes' range: the axis is not a single
      step function, so a binary search verdict would be wrong.
    - ``"diffuse"`` -- a probe sits *between* the endpoint envelopes:
      the change accumulates over several steps rather than one.
    """

    __slots__ = (
        "status",
        "metric",
        "threshold",
        "labels",
        "values",
        "last_good",
        "first_bad",
        "suspect",
        "delta",
        "note",
        "probes",
        "executed_cells",
        "dataset_hits",
        "flaky_retries",
        "repeats",
    )

    def __init__(self, **kwargs):
        for name in self.__slots__:
            setattr(self, name, kwargs.pop(name, None))
        if kwargs:
            raise TypeError("unexpected fields: %s" % sorted(kwargs))

    @property
    def found(self):
        return self.status == "found"

    def as_dict(self):
        return {
            "status": self.status,
            "metric": self.metric,
            "threshold": self.threshold,
            "labels": list(self.labels),
            "values": {self.labels[i]: v for i, v in sorted(self.values.items())},
            "last_good": None if self.last_good is None else self.labels[self.last_good],
            "first_bad": None if self.first_bad is None else self.labels[self.first_bad],
            "suspect": None if self.suspect is None else self.labels[self.suspect],
            "delta": self.delta,
            "note": self.note,
            "probes": self.probes,
            "executed_cells": self.executed_cells,
            "dataset_hits": self.dataset_hits,
            "flaky_retries": self.flaky_retries,
            "repeats": self.repeats,
        }

    def summary(self):
        """Human-readable verdict lines (what the CLI prints)."""
        lines = []
        if self.status == "found":
            lines.append(
                "regression step: %s -> %s (%s: %.6g -> %.6g)"
                % (
                    self.labels[self.last_good],
                    self.labels[self.first_bad],
                    self.metric,
                    self.values[self.last_good],
                    self.values[self.first_bad],
                )
            )
            for field, (before, after) in sorted((self.delta or {}).items()):
                if isinstance(before, dict) and isinstance(after, dict):
                    # Pricing tables are wide; show only changed keys.
                    keys = sorted(
                        k
                        for k in set(before) | set(after)
                        if before.get(k) != after.get(k)
                    )
                    lines.append(
                        "  %s: %d key(s) changed (%s)"
                        % (
                            field,
                            len(keys),
                            ", ".join(
                                "%s: %s -> %s"
                                % (k, before.get(k), after.get(k))
                                for k in keys[:4]
                            )
                            + (", ..." if len(keys) > 4 else ""),
                        )
                    )
                else:
                    lines.append("  %s: %r -> %r" % (field, before, after))
            if not self.delta:
                lines.append("  (no spec fields differ -- same engine config)")
            if self.note:
                lines.append("  changelog: %s" % self.note)
        elif self.status == "no-change":
            lines.append(
                "no change: endpoints agree within threshold %.6g (%s)"
                % (self.threshold, self.metric)
            )
        else:
            lines.append(
                "%s at %s (%s=%.6g, threshold %.6g): axis is not a single "
                "step; bisection verdict withheld"
                % (
                    self.status,
                    self.labels[self.suspect],
                    self.metric,
                    self.values[self.suspect],
                    self.threshold,
                )
            )
        lines.append(
            "probes: %d (%d repeats each), executed cells: %d, "
            "dataset hits: %d, flaky retries: %d"
            % (
                self.probes,
                self.repeats,
                self.executed_cells,
                self.dataset_hits,
                self.flaky_retries,
            )
        )
        return lines


class Bisector:
    """Binary search for the step that changes ``metric`` on ``axis``.

    ``runner`` is anything with the grid-runner contract
    (:class:`~repro.core.runner.ExperimentRunner`, with or without a
    dataset); each
    probe is submitted as its own one-cell grid so a failed probe can
    be retried individually without disturbing stored rows.
    """

    def __init__(
        self,
        runner,
        axis,
        benchmark,
        arch,
        platform,
        metric,
        iterations=None,
        repeats=1,
        rel_threshold=0.05,
        abs_threshold=0.0,
        probe_retries=2,
    ):
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.runner = runner
        self.axis = axis
        self.benchmark = benchmark
        self.arch = arch
        self.platform = platform
        self.metric = parse_metric(metric)
        self.iterations = iterations
        self.repeats = repeats
        self.rel_threshold = rel_threshold
        self.abs_threshold = abs_threshold
        self.probe_retries = probe_retries
        # -- accounting, reset per run() --
        self._values = {}
        self._probes = 0
        self._executed = 0
        self._dataset_hits = 0
        self._flaky_retries = 0
        self._noise = 0.0

    # -- probing -----------------------------------------------------------

    def _run_one(self, index):
        from repro.core.runner import JobSpec

        spec = JobSpec(
            self.benchmark,
            self.axis.specs[index],
            self.arch,
            self.platform,
            iterations=self.iterations,
        )
        with METRICS.phase("bisect.probe"):
            result = self.runner.run([spec])[0]
        stats = getattr(self.runner, "last_stats", None) or {}
        self._executed += stats.get("executed", 0)
        hits = stats.get("from_dataset", 0)
        self._dataset_hits += hits
        if METRICS.enabled:
            METRICS.inc("bisect.probes")
            if hits:
                METRICS.inc("bisect.resolved_from_dataset", hits)
        return result

    def _probe(self, index):
        """Measure one axis step (memoised); median of ``repeats``."""
        if index in self._values:
            return self._values[index]
        samples = []
        for _repeat in range(self.repeats):
            result = self._run_one(index)
            retries = 0
            while not result.ok and retries < self.probe_retries:
                # The dataset layer never stores failures, so this
                # re-executes the cell rather than replaying the crash.
                retries += 1
                self._flaky_retries += 1
                if METRICS.enabled:
                    METRICS.inc("bisect.flaky_retries")
                result = self._run_one(index)
            if not result.ok:
                raise BisectProbeError(
                    self.axis.labels[index], result.status, result.error
                )
            samples.append(self.metric.extract(result))
        self._probes += 1
        samples.sort()
        value = samples[len(samples) // 2]
        self._noise = max(self._noise, samples[-1] - samples[0])
        self._values[index] = value
        return value

    def _threshold(self, v_first, v_last):
        scale = max(abs(v_first), abs(v_last))
        return max(
            self.abs_threshold,
            self.rel_threshold * scale,
            2.0 * self._noise,
        )

    # -- the search --------------------------------------------------------

    def run(self):
        self._values = {}
        self._probes = 0
        self._executed = 0
        self._dataset_hits = 0
        self._flaky_retries = 0
        self._noise = 0.0

        last = len(self.axis) - 1
        v_first = self._probe(0)
        v_last = self._probe(last)
        threshold = self._threshold(v_first, v_last)

        if abs(v_last - v_first) <= threshold:
            # Endpoints agree -- but a bump-and-recover axis would too.
            # Spot-check the interior quartiles before declaring quiet.
            for probe_at in sorted(
                {last // 4, last // 2, (3 * last) // 4} - {0, last}
            ):
                value = self._probe(probe_at)
                threshold = self._threshold(v_first, v_last)
                if abs(value - v_first) > threshold:
                    return self._result(
                        "non-monotonic", threshold, suspect=probe_at
                    )
            return self._result("no-change", threshold)

        lo, hi = 0, last
        while hi - lo > 1:
            mid = (lo + hi) // 2
            value = self._probe(mid)
            threshold = self._threshold(v_first, v_last)
            in_lo = abs(value - v_first) <= threshold
            in_hi = abs(value - v_last) <= threshold
            if in_lo and in_hi:
                in_lo = abs(value - v_first) <= abs(value - v_last)
                in_hi = not in_lo
            if in_lo:
                lo = mid
            elif in_hi:
                hi = mid
            else:
                low_bound = min(v_first, v_last) - threshold
                high_bound = max(v_first, v_last) + threshold
                status = (
                    "diffuse"
                    if low_bound <= value <= high_bound
                    else "non-monotonic"
                )
                return self._result(status, threshold, suspect=mid)
        return self._result("found", threshold, last_good=lo, first_bad=hi)

    def _result(self, status, threshold, last_good=None, first_bad=None, suspect=None):
        delta = note = None
        if status == "found":
            raw = self.axis.delta(last_good, first_bad)
            delta = {
                field: (before, after) for field, (before, after) in raw.items()
            }
            note = self.axis.note(first_bad)
        return BisectResult(
            status=status,
            metric=self.metric.text,
            threshold=threshold,
            labels=self.axis.labels,
            values=dict(self._values),
            last_good=last_good,
            first_bad=first_bad,
            suspect=suspect,
            delta=delta,
            note=note,
            probes=self._probes,
            executed_cells=self._executed,
            dataset_hits=self._dataset_hits,
            flaky_retries=self._flaky_retries,
            repeats=self.repeats,
        )
