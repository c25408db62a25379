"""Latency statistics and the parent-versus-change verdicts."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    operations beyond it: the (N - 10)-th smallest of N latencies, which
    is percentile 100 (N - 10) / N.  With ten or fewer operations no
    percentile qualifies and the smallest latency is returned at 0."""
    xs = sorted(latencies)
    k = max(len(xs) - TAIL_BEYOND, 1)
    return xs[k - 1], 100.0 * (k if len(xs) > TAIL_BEYOND else 0) / len(xs)


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """improved, unchanged, worse or unresolved for one workload and metric.

    `parent` and `change` are paired by index (same seed, run back to back
    in alternating order).  A gain needs at least ten pairs, wins in nine
    tenths of them (ties count for neither side) and a median difference
    larger than the parent's interquartile range.  A median worse by more
    than the bound is worse.  Otherwise the metric is unchanged, unless the
    parent's own spread exceeds the bound and the change does not beat every
    parent run, which leaves it unresolved."""
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    iqr = spread(parent) * pm
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (cm - pm) > iqr:
        return "improved"
    if -sign * (cm - pm) > bound * abs(pm):
        return "worse"
    if spread(parent) > bound and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved"
    return "unchanged"
