"""Pure helpers of the benchmark: percentiles, failure accounting and span self time.

Nothing here imports the advisor, so the unit tests in ``perfbench/tests`` run
without building a testbed.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, highest last.
PERCENTILE_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it may be reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of ``values`` by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` sorted samples lie above the rank :func:`percentile` interpolates at."""
    return n - 1 - math.floor((n - 1) * p / 100.0 + 1e-9) if n else 0


def supported_percentile(n: int, ladder: Sequence[float] = PERCENTILE_LADDER) -> Optional[float]:
    """The highest percentile of ``ladder`` with ``MIN_BEYOND`` of ``n`` samples beyond it."""
    best = None
    for p in ladder:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, the highest supported tail percentile (or ``None``) and the count."""
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": None, "tail_p": None, "tail": None}
    tail_p = supported_percentile(n)
    return {
        "n": n,
        "p50": statistics.median(values),
        "tail_p": tail_p,
        "tail": percentile(values, tail_p) if tail_p is not None else None,
    }


@dataclass
class Tally:
    """Operations attempted and failed: an operation fails when it raises or fails a check."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons.append(reason)

    def check(self, passed: bool, reason: str) -> bool:
        """Count one checked operation; returns ``passed``."""
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the id of the span that caused it (``-1`` for a root)."""

    id: int
    name: str
    parent: int
    request: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
        ]
        result[span.id] = span.duration - _covered(c for c in clipped if c[1] > c[0])
    return result


def group_times(spans: Sequence[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Inclusive and self seconds per span name.

    A span's inclusive time counts only when no ancestor has the same name, so
    a layer that calls itself (``qperf_batch`` -> ``impact_matrix``) is not
    counted twice.
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    inclusive: Dict[str, float] = defaultdict(float)
    selfs: Dict[str, float] = defaultdict(float)
    for span in spans:
        selfs[span.name] += own[span.id]
        ancestor = by_id.get(span.parent)
        while ancestor is not None and ancestor.name != span.name:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            inclusive[span.name] += span.duration
    return dict(inclusive), dict(selfs)


def nested_time(spans: Sequence[Span], outer: str, inner: Iterable[str]) -> float:
    """Seconds spent in outermost ``inner``-named spans that run inside an ``outer`` span."""
    inner = set(inner)
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name not in inner:
            continue
        ancestor = by_id.get(span.parent)
        inside = False
        while ancestor is not None and ancestor.name not in inner:
            if ancestor.name == outer:
                inside = True
                break
            ancestor = by_id.get(ancestor.parent)
        if inside:
            total += span.duration
    return total


def layer_table(spans: Sequence[Span], rounds: int) -> List[Dict[str, object]]:
    """Self seconds per round of every span name, split by the request kind at its root.

    A root's own self time is the ``unattributed`` row, so the shares of one
    request kind sum to 1.
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    roots: Dict[int, str] = {}

    def root_of(span) -> str:
        chain = []
        while span.id not in roots and span.parent in by_id:
            chain.append(span.id)
            span = by_id[span.parent]
        kind = roots.setdefault(span.id, span.name)
        for span_id in chain:
            roots[span_id] = kind
        return kind

    cells: Dict[tuple, List[float]] = {}
    for span in spans:
        cell = cells.setdefault((root_of(span), span.name), [0, 0.0])
        cell[0] += 1
        cell[1] += own[span.id]
    totals: Dict[str, float] = {}
    for span in spans:
        if span.parent not in by_id:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
    rows = []
    by_share = sorted(cells.items(), key=lambda cell: (cell[0][0], -cell[1][1]))
    for (root, name), (calls, seconds) in by_share:
        rows.append(
            {
                "request": root,
                "layer": "unattributed" if name == root else name,
                "calls_per_round": calls / rounds,
                "self_s_per_round": seconds / rounds,
                "share": seconds / totals[root] if totals.get(root) else 0.0,
            }
        )
    return rows
