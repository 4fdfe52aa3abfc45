"""The benchmark's own arithmetic: quartiles, the tail rule and
failure accounting.  Pure functions, tested by test_stats.py.  (Span self
time is computed, and self-tested, in the harness: common.cpp.)
"""

import math
import statistics

# Tail percentiles tried from the highest down.  The median is not a tail:
# below 100 samples the maximum is reported instead.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
# A tail percentile is reported only when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def quartiles(values):
    """(q1, q3) as statistics.quantiles(n=4) gives them; a single value is
    its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def nearest_rank(sorted_values, p):
    """The p-th percentile by the nearest-rank rule, and its 1-based rank."""
    n = len(sorted_values)
    # Rounded first so that, e.g., 90% of 100 is rank 90 and not 91.
    rank = max(1, math.ceil(round(p * n / 100.0, 9)))
    return sorted_values[rank - 1], rank


def tail(values):
    """The highest percentile of TAIL_PERCENTILES with at least
    TAIL_MIN_BEYOND samples above its rank, as (percentile, value).  With too
    few samples for any of them the maximum is returned as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        value, rank = nearest_rank(ordered, p)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, value
    return 100.0, ordered[-1]


def failed_ratio(attempted, failed):
    """Failed operations over attempted ones; a run that attempted nothing
    counts as wholly failed."""
    if attempted <= 0:
        return 1.0
    return failed / attempted
