"""Summary statistics shared by the workloads and the compare mode."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile counts as measured only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the smallest value with at least ``pct``%
    of the samples at or below it)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats
    return ordered[int(min(rank, len(ordered))) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile that leaves at least MIN_BEYOND of
    ``n`` samples strictly above its rank, or None when even the median
    does not."""
    best = None
    for pct in TAIL_LADDER:
        rank = -(-n * pct // 100)
        if n - rank >= MIN_BEYOND:
            best = pct
    return best


def latency_summary(values_s: Sequence[float]) -> Dict[str, float]:
    """Median and tail of per-operation latencies, in milliseconds, with
    the tail's percentile and sample count recorded beside the value."""
    n = len(values_s)
    pct = tail_percentile(n)
    if pct is None:
        raise ValueError("%d samples cannot support a tail percentile" % n)
    return {"p50_ms": percentile(values_s, 50.0) * 1e3,
            "tail_ms": percentile(values_s, pct) * 1e3,
            "tail_pct": pct, "n": n}


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, Q2, Q3 as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return [v, v, v]
    return statistics.quantiles(values, n=4)


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def failed_ratio(attempted: int, failed: int) -> float:
    if attempted <= 0:
        raise ValueError("no operations attempted")
    return failed / attempted


def compare_metric(parent: Sequence[float], change: Sequence[float],
                   better: str, bound: Optional[float],
                   min_win_share: float = 0.9) -> Dict[str, object]:
    """Judge one workload x metric from paired runs.

    ``parent[i]`` and ``change[i]`` form pair ``i`` (runs made in
    alternating order).  A gain needs the change to win at least
    ``min_win_share`` of all pairs (ties count for neither side) and the
    medians to differ by more than the parent's own inter-quartile
    distance.  A regression is a change median worse than the parent's
    by more than ``bound`` (a share of the parent median).  When the
    parent's spread exceeds the bound the row is unresolved, unless
    every change run beats every parent run.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of runs per side")
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_med, c_med = median(parent), median(change)
    p_q = quartiles(parent)
    iqr = p_q[2] - p_q[0]
    gain = (wins >= min_win_share * len(parent)
            and sign * (p_med - c_med) > iqr)
    worse_share = sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = relative_spread(parent)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if bound is not None and spread > bound and not all_better:
        verdict = "unresolved"
    elif bound is not None and worse_share > bound:
        verdict = "regression"
    elif gain:
        verdict = "gain"
    else:
        verdict = "no change"
    return {"verdict": verdict, "wins": wins, "pairs": len(parent),
            "parent_median": p_med, "change_median": c_med,
            "parent_iqr": iqr, "parent_spread": spread,
            "worse_share": worse_share}
