"""Pareto-optimality utilities: dominance, fronts, non-dominated sorting, crowding.

These are the building blocks shared by the Atlas DRL-based genetic algorithm, the
NSGA-II variant used in the ablation of Figure 21 and the affinity-based GA baseline.
All objectives are minimized.

Every set-level operation — :func:`non_dominated_sort`, :func:`pareto_front` and
:func:`merge_fronts` — runs on one numpy dominance matrix (:func:`_dominance`):
``D[i, j]`` is true when row ``i`` dominates row ``j`` under exactly the rule of
:func:`dominates`.  It is built one objective at a time, so the working set is a
few ``n x n`` boolean matrices, never an ``n x n x K`` broadcast.  The scalar
:func:`dominates` stays the definition of the rule for single pairs.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, TypeVar

import numpy as np

__all__ = [
    "dominates",
    "pareto_front",
    "merge_fronts",
    "non_dominated_sort",
    "crowding_distance",
    "hypervolume_2d",
    "distance_to_ideal",
    "knee_index",
]

T = TypeVar("T")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether objective vector ``a`` Pareto-dominates ``b`` (all <=, at least one <)."""
    if len(a) != len(b):
        raise ValueError("objective vectors must have the same length")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def _objective_matrix(objectives: Sequence[Sequence[float]]) -> np.ndarray:
    """The ``(n, K)`` float matrix of ``objectives``; ragged rows raise ``ValueError``."""
    rows = [tuple(row) for row in objectives]
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("objective vectors must have the same length")
    return np.asarray(rows, dtype=float).reshape(len(rows), width)


def _dominance(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(D, E)`` for an ``(n, K)`` matrix: ``D[i, j]`` when row i dominates row j,
    ``E[i, j]`` when the two rows are equal.

    ``W[i, j]`` (row i is <= row j everywhere) is accumulated one objective column
    at a time; then "dominates" is ``W & ~W.T`` (<= everywhere and not >=
    everywhere, i.e. at least one <) and "equal" is ``W & W.T``.
    """
    n = points.shape[0]
    weakly = np.ones((n, n), dtype=bool)
    scratch = np.empty((n, n), dtype=bool)
    for column in points.T:
        np.less_equal(column[:, None], column[None, :], out=scratch)
        weakly &= scratch
    return weakly & ~weakly.T, weakly & weakly.T


def pareto_front(items: Sequence[T], key: Callable[[T], Sequence[float]]) -> List[T]:
    """The non-dominated subset of ``items`` under the objective extractor ``key``.

    An item survives when no item dominates it and no *earlier* item has an equal
    objective vector (first-occurrence deduplication); survivors keep input order.
    """
    points = _objective_matrix([key(item) for item in items])
    dominated, equal = _dominance(points)
    lost = dominated.any(axis=0) | np.triu(equal, 1).any(axis=0)
    return [items[i] for i in np.flatnonzero(~lost)]


def merge_fronts(
    fronts: Sequence[Sequence[T]], key: Callable[[T], Sequence[float]]
) -> List[T]:
    """Merge per-island Pareto fronts into one non-dominated front.

    Defined as :func:`pareto_front` over the concatenation of all fronts: the same
    dominance rule, the same first-occurrence deduplication of identical objective
    vectors and the same concatenation-order output.  This is the K-dim merge the
    island-model parallel search applies to the per-worker fronts, and the law the
    property suite in ``tests/test_parallel.py`` pins down.
    """
    return pareto_front([item for front in fronts for item in front], key)


def non_dominated_sort(objectives: Sequence[Sequence[float]]) -> List[List[int]]:
    """NSGA-II fast non-dominated sort: indices grouped into fronts (front 0 is best).

    Fronts come out in the discovery order of Deb et al.'s peeling loop: front 0
    in ascending index order; an index joins front ``r + 1`` when its last
    dominator in front ``r`` is processed, so within front ``r + 1`` indices are
    ordered by (position of that last dominator in front ``r``, index).
    """
    dominated, _ = _dominance(_objective_matrix(objectives))
    remaining = dominated.sum(axis=0)
    front = np.flatnonzero(remaining == 0)
    fronts: List[List[int]] = []
    while front.size:
        fronts.append(front.tolist())
        below = dominated[front]
        remaining -= below.sum(axis=0)
        released = np.flatnonzero(below.any(axis=0) & (remaining == 0))
        last = len(front) - 1 - np.argmax(below[::-1, released], axis=0)
        front = released[np.argsort(last, kind="stable")]
    return fronts


def crowding_distance(objectives: Sequence[Sequence[float]]) -> List[float]:
    """NSGA-II crowding distance of each solution within one front."""
    n = len(objectives)
    if n == 0:
        return []
    if n <= 2:
        return [float("inf")] * n
    m = len(objectives[0])
    distance = [0.0] * n
    arr = np.asarray(objectives, dtype=float)
    for k in range(m):
        order = np.argsort(arr[:, k], kind="stable")
        lo, hi = arr[order[0], k], arr[order[-1], k]
        distance[order[0]] = float("inf")
        distance[order[-1]] = float("inf")
        span = hi - lo
        if span <= 0:
            continue
        for idx in range(1, n - 1):
            i = order[idx]
            if distance[i] == float("inf"):
                continue
            distance[i] += (arr[order[idx + 1], k] - arr[order[idx - 1], k]) / span
    return distance


def distance_to_ideal(points: Sequence[Sequence[float]]) -> np.ndarray:
    """Euclidean distance of each point to the ideal corner of the normalized front.

    The front is normalized per objective to [0, 1] over its own span (degenerate
    objectives — identical on every point — contribute zero), and the ideal point is
    the per-objective minimum, i.e. the all-zeros corner.  Works for any number of
    objectives; all objectives minimized.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("distance_to_ideal needs a non-empty (points, K) matrix")
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    normalized = (arr - lo) / span
    return np.sqrt((normalized**2).sum(axis=1))


def knee_index(points: Sequence[Sequence[float]]) -> int:
    """Index of the front's knee point: the minimizer of :func:`distance_to_ideal`.

    The knee is the balanced compromise — the plan closest to being best at
    everything at once — and is how :class:`~repro.recommend.advisor.Recommendation`
    orders its plans (knee first).  Ties break toward the earliest point.
    """
    return int(np.argmin(distance_to_ideal(points)))


def hypervolume_2d(
    front: Sequence[Sequence[float]], reference: Sequence[float]
) -> float:
    """Hypervolume (area) dominated by a 2-objective front w.r.t. a reference point.

    Used by tests and ablations to compare the quality of Pareto fronts; both objectives
    are minimized and points beyond the reference contribute nothing.
    """
    if len(reference) != 2:
        raise ValueError("hypervolume_2d needs a 2-dimensional reference point")
    points = [
        (float(x), float(y))
        for x, y in front
        if x <= reference[0] and y <= reference[1]
    ]
    if not points:
        return 0.0
    points.sort()
    volume = 0.0
    prev_x = None
    best_y = reference[1]
    # Sweep in increasing x; each point contributes a rectangle up to the reference.
    filtered: List[Tuple[float, float]] = []
    for x, y in points:
        if not filtered or y < filtered[-1][1]:
            filtered.append((x, y))
    for i, (x, y) in enumerate(filtered):
        next_x = filtered[i + 1][0] if i + 1 < len(filtered) else reference[0]
        volume += (next_x - x) * (reference[1] - y)
    return max(volume, 0.0)
