"""An in-memory span recorder for the traced benchmark run.

A span is one call into a layer: a name, start and end stamps, the
span that was open when it began (its parent) and the run it belongs
to.  Spans stay in memory while the run executes and are written out
once, when it ends, so recording costs two clock reads and a list
append per call.

A span's *self time* is its duration minus the part of that interval
its child spans cover; the self time of a run's root span is the
*unattributed* remainder, the wall time no layer span accounts for.
"""

import functools
import json
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id")

    def __init__(self, name, start, parent, run_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run_id = run_id

    @property
    def duration(self):
        return self.end - self.start


class SpanRecorder:
    """Records nested spans on one thread.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    Counters recorded with :meth:`count` sit beside the spans, so
    ratios are taken where the work happens.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self.run_id = None
        self._open = []

    def begin(self, name):
        """Open a span under the innermost open one; returns its index."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent, self.run_id))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index):
        if not self._open or self._open[-1] != index:
            raise RuntimeError("span %r closed out of order" % self.spans[index].name)
        self._open.pop()
        self.spans[index].end = self.clock()

    def wrap(self, func, name):
        """``func`` wrapped in a span named ``name``."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- analysis ------------------------------------------------------
    def self_times(self):
        """Per-span self time in nanoseconds, indexed like :attr:`spans`."""
        children = [[] for _ in self.spans]
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                children[span.parent].append(index)
        out = []
        for index, span in enumerate(self.spans):
            covered = 0
            reach = span.start
            for child in sorted(children[index], key=lambda i: self.spans[i].start):
                start = max(self.spans[child].start, reach)
                end = min(self.spans[child].end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span.duration - covered)
        return out

    def _nested_in_same_name(self, span):
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == span.name:
                return True
            parent = self.spans[parent].parent
        return False

    def totals(self, self_time=False):
        """``{name: (total ns, span count)}``, inclusive or self time.

        Inclusive totals count only the outermost span of a name, so a
        layer that calls itself is not counted twice; span counts
        always cover every span."""
        times = self.self_times() if self_time else [s.duration for s in self.spans]
        out = {}
        for span, value in zip(self.spans, times):
            if not self_time and self._nested_in_same_name(span):
                value = 0
            total, calls = out.get(span.name, (0, 0))
            out[span.name] = (total + value, calls + 1)
        return out

    def write(self, path):
        """Write every span as one JSON line, with its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self.self_times()):
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start_ns": span.start,
                            "end_ns": span.end,
                            "self_ns": own,
                            "parent": span.parent,
                            "run": span.run_id,
                        }
                    )
                    + "\n"
                )
