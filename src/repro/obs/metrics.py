"""The process-global metrics registry (the observability spine).

Every layer of the stack reports host-side observations here: engines
time their slow paths (decode, translation, TLB walks) and count
exception deliveries, the harness times its setup/run/price phases,
the experiment runner records per-job wall time, queue wait and
retry/worker-loss events, and the on-disk stores report hit/miss/
quarantine counts.  The registry is deliberately *not* part of guest
semantics: nothing in it ever reads or writes ``Simulator.counters``,
so guest-visible counter deltas are bit-identical with metrics enabled
or disabled (``tests/sim/test_fastpath_equivalence.py`` enforces
this across the whole suite).

Design rules:

- **Cheap when disabled.**  Hot instrumentation sites guard with
  ``if METRICS.enabled:`` -- one attribute load and a branch -- and the
  engines' per-instruction paths carry *no* instrumentation at all
  (only miss/slow paths are timed).  ``benchmarks/
  bench_engine_wallclock.py`` tracks the overhead on the hot
  interpreter kernel.
- **Rare events may record unconditionally.**  Events that must never
  be lost (``runner.deadline_softcheck``, store hit/miss totals)
  bypass the gate; instruments themselves (:class:`Counter`,
  :class:`Phase`, ...) always work.
- **Deterministic merge.**  :meth:`Metrics.snapshot` is a sorted,
  JSON-serialisable payload and :meth:`Metrics.merge` folds one in;
  the runner merges worker payloads in submission order, so parallel
  runs produce the same merged registry as serial ones (up to the
  timings themselves).

The process-global instance is :data:`METRICS`; pool workers get their
own (reset per job) whose snapshots the parent merges.
"""

import time

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS",
    "Metrics",
    "Phase",
    "disable",
    "enable",
    "enabled_scope",
]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def to_payload(self):
        return self.value

    def merge_payload(self, payload):
        self.value += payload


class Gauge:
    """A last-write-wins sampled value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = None

    def set(self, value):
        self.value = value

    def to_payload(self):
        return self.value

    def merge_payload(self, payload):
        # Last write wins; the runner merges in submission order, so
        # the result is deterministic.
        if payload is not None:
            self.value = payload


class Phase:
    """An aggregated wall-time phase: count / total / min / max ns."""

    __slots__ = ("count", "total_ns", "min_ns", "max_ns")
    kind = "phase"

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.min_ns = 0
        self.max_ns = 0

    def add(self, ns):
        if self.count == 0 or ns < self.min_ns:
            self.min_ns = ns
        if ns > self.max_ns:
            self.max_ns = ns
        self.count += 1
        self.total_ns += ns

    def to_payload(self):
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
        }

    def merge_payload(self, payload):
        if not payload["count"]:
            return
        if self.count == 0 or payload["min_ns"] < self.min_ns:
            self.min_ns = payload["min_ns"]
        if payload["max_ns"] > self.max_ns:
            self.max_ns = payload["max_ns"]
        self.count += payload["count"]
        self.total_ns += payload["total_ns"]


class Histogram:
    """A power-of-two-bucketed distribution of non-negative values.

    Bucket ``i`` counts observations with ``value.bit_length() == i``
    (bucket 0 holds zeros), so the layout is value-range independent
    and two histograms always merge bucket-by-bucket.
    """

    __slots__ = ("count", "sum", "min", "max", "buckets")
    kind = "histogram"

    def __init__(self):
        self.count = 0
        self.sum = 0
        self.min = 0
        self.max = 0
        self.buckets = {}

    def observe(self, value):
        value = int(value)
        if self.count == 0 or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1
        self.sum += value
        index = value.bit_length() if value > 0 else 0
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def to_payload(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            # String keys so the payload survives JSON round-trips
            # unchanged (JSON object keys are always strings).
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }

    def merge_payload(self, payload):
        if not payload["count"]:
            return
        if self.count == 0 or payload["min"] < self.min:
            self.min = payload["min"]
        if payload["max"] > self.max:
            self.max = payload["max"]
        self.count += payload["count"]
        self.sum += payload["sum"]
        for key, value in payload["buckets"].items():
            index = int(key)
            self.buckets[index] = self.buckets.get(index, 0) + value


class _PhaseTimer:
    """Context manager feeding one :class:`Phase` via perf_counter_ns."""

    __slots__ = ("_phase", "_start")

    def __init__(self, phase):
        self._phase = phase
        self._start = 0

    def __enter__(self):
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._phase.add(time.perf_counter_ns() - self._start)
        return False


class _NullTimer:
    """No-op stand-in returned by :meth:`Metrics.phase` when disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_TIMER = _NullTimer()

_KINDS = {
    "counters": Counter,
    "gauges": Gauge,
    "phases": Phase,
    "histograms": Histogram,
}


class Metrics:
    """A registry of named instruments with deterministic snapshots.

    Instruments are created on first use (:meth:`counter`,
    :meth:`gauge`, :meth:`phase_stats`, :meth:`histogram`); a name holds
    one instrument kind for the registry's lifetime.  ``enabled`` is
    the hot-path gate: the registry itself always works, the flag only
    tells instrumentation sites whether to bother.
    """

    __slots__ = ("enabled", "counters", "gauges", "phases", "histograms")

    def __init__(self, enabled=False):
        self.enabled = enabled
        self.counters = {}
        self.gauges = {}
        self.phases = {}
        self.histograms = {}

    # -- instrument access -------------------------------------------------
    def counter(self, name):
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter()
        return instrument

    def gauge(self, name):
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge()
        return instrument

    def phase_stats(self, name):
        instrument = self.phases.get(name)
        if instrument is None:
            instrument = self.phases[name] = Phase()
        return instrument

    def histogram(self, name):
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram()
        return instrument

    # -- recording shortcuts ----------------------------------------------
    def inc(self, name, n=1):
        self.counter(name).inc(n)

    def set_gauge(self, name, value):
        self.gauge(name).set(value)

    def add_phase_ns(self, name, ns):
        self.phase_stats(name).add(ns)

    def observe(self, name, value):
        self.histogram(name).observe(value)

    def phase(self, name):
        """A ``with``-able timer for ``name`` (no-op when disabled)."""
        if not self.enabled:
            return _NULL_TIMER
        return _PhaseTimer(self.phase_stats(name))

    # -- lifecycle ---------------------------------------------------------
    def enable(self, on=True):
        self.enabled = bool(on)

    def disable(self):
        self.enabled = False

    def reset(self):
        """Drop every instrument (the enabled flag is unchanged)."""
        self.counters.clear()
        self.gauges.clear()
        self.phases.clear()
        self.histograms.clear()

    # -- serialization / merge ---------------------------------------------
    def snapshot(self):
        """A sorted, JSON-serialisable payload of every instrument."""
        return {
            group: {
                name: store[name].to_payload() for name in sorted(store)
            }
            for group, store in (
                ("counters", self.counters),
                ("gauges", self.gauges),
                ("phases", self.phases),
                ("histograms", self.histograms),
            )
        }

    def merge(self, payload):
        """Fold one :meth:`snapshot` payload into this registry."""
        if not payload:
            return
        for group, factory in _KINDS.items():
            store = getattr(self, group)
            for name, value in payload.get(group, {}).items():
                instrument = store.get(name)
                if instrument is None:
                    instrument = store[name] = factory()
                instrument.merge_payload(value)

    def __repr__(self):
        return "Metrics(enabled=%r, %d counters, %d gauges, %d phases, %d histograms)" % (
            self.enabled,
            len(self.counters),
            len(self.gauges),
            len(self.phases),
            len(self.histograms),
        )


#: The process-global registry every instrumentation point reports to.
METRICS = Metrics()


def enable():
    """Turn the process-global registry's hot-path gate on."""
    METRICS.enable()


def disable():
    METRICS.disable()


class enabled_scope:
    """``with enabled_scope():`` -- enable, then restore on exit."""

    __slots__ = ("_was",)

    def __enter__(self):
        self._was = METRICS.enabled
        METRICS.enable()
        return METRICS

    def __exit__(self, exc_type, exc, tb):
        METRICS.enable(self._was)
        return False
