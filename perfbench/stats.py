"""Order statistics for benchmark timings.

Every timing is reported as a median plus the highest percentile that
still has at least :data:`MIN_TAIL` samples beyond it, always with the
sample count beside it: a p90 read off 24 samples is two or three
values, not a tail.
"""

import math
import statistics

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def supports(count, pct):
    """Whether ``count`` samples leave at least :data:`MIN_TAIL` beyond
    the ``pct``-th percentile."""
    return count * (100 - pct) / 100.0 >= MIN_TAIL - 1e-9


def highest_percentile(count):
    """The highest whole percentile ``count`` samples support, or
    ``None`` when fewer than ``2 * MIN_TAIL`` samples support even the
    median."""
    if count <= 0:
        return None
    pct = math.floor(100 - 100.0 * MIN_TAIL / count + 1e-9)
    return pct if pct >= 50 else None


def percentile(values, pct):
    """The ``pct``-th percentile by linear interpolation between order
    statistics; raises ``ValueError`` when the sample count does not
    support it."""
    values = sorted(values)
    if not supports(len(values), pct):
        raise ValueError(
            "p%g needs %d samples beyond it; %d samples leave %.1f"
            % (pct, MIN_TAIL, len(values), len(values) * (100 - pct) / 100.0)
        )
    rank = (len(values) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (rank - low)


def describe(values, unit):
    """One line: median, quartiles, the highest supported percentile
    and the sample count."""
    values = list(values)
    q1, mid, q3 = quartiles(values)
    text = "%.6g %s (q1 %.6g, q3 %.6g" % (mid, unit, q1, q3)
    pct = highest_percentile(len(values))
    if pct is not None:
        text += ", p%d %.6g" % (pct, percentile(values, pct))
    return text + ", n=%d)" % len(values)
