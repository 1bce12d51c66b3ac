"""Reference oracles for the selection layer: the pairwise Python dominance loops.

These are the loop implementations of ``pareto_front``, ``merge_fronts`` and
``non_dominated_sort`` that ``repro.optimizer.pareto`` used before it moved onto
one numpy dominance matrix, kept verbatim (only renamed).  The property suites in
``test_optimizer.py`` and ``test_parallel.py`` hold the kernel-backed versions to
them: same fronts in the same discovery order, same surviving items in the same
order.  They are deliberately slow and obvious; do not optimise them.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, TypeVar

from repro.optimizer.pareto import dominates

__all__ = ["oracle_pareto_front", "oracle_merge_fronts", "oracle_non_dominated_sort"]

T = TypeVar("T")
Objectives = Tuple[float, ...]


def oracle_pareto_front(items: Sequence[T], key: Callable[[T], Sequence[float]]) -> List[T]:
    """The non-dominated subset of ``items`` under the objective extractor ``key``."""
    objectives = [tuple(key(item)) for item in items]
    front: List[T] = []
    for i, item in enumerate(items):
        dominated = False
        for j, other in enumerate(objectives):
            if i != j and dominates(other, objectives[i]):
                dominated = True
                break
            # Deduplicate identical objective vectors, keeping the first occurrence.
            if j < i and other == objectives[i]:
                dominated = True
                break
        if not dominated:
            front.append(item)
    return front


def oracle_merge_fronts(
    fronts: Sequence[Sequence[T]], key: Callable[[T], Sequence[float]]
) -> List[T]:
    """Merge per-island Pareto fronts into one non-dominated front.

    Equivalent to :func:`pareto_front` over the concatenation of all fronts (same
    dominance rule, same first-occurrence deduplication of identical objective
    vectors, same concatenation-order output), but maintained incrementally: each
    incoming item is compared against the merged set only, dominated survivors are
    evicted as better items arrive.  This is the K-dim merge the island-model
    parallel search applies to the per-worker fronts, and the law the property
    suite in ``tests/test_parallel.py`` pins down.
    """
    merged: List[T] = []
    merged_objectives: List[Objectives] = []
    for front in fronts:
        for item in front:
            objectives = tuple(float(v) for v in key(item))
            skip = False
            for kept in merged_objectives:
                if kept == objectives or dominates(kept, objectives):
                    skip = True
                    break
            if skip:
                continue
            survivors = [
                i
                for i, kept in enumerate(merged_objectives)
                if not dominates(objectives, kept)
            ]
            if len(survivors) != len(merged):
                merged = [merged[i] for i in survivors]
                merged_objectives = [merged_objectives[i] for i in survivors]
            merged.append(item)
            merged_objectives.append(objectives)
    return merged


def oracle_non_dominated_sort(objectives: Sequence[Sequence[float]]) -> List[List[int]]:
    """NSGA-II fast non-dominated sort: indices grouped into fronts (front 0 is best)."""
    n = len(objectives)
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts: List[List[int]] = [[]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dominates(objectives[i], objectives[j]):
                dominated_by[i].append(j)
            elif dominates(objectives[j], objectives[i]):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    return [front for front in fronts if front]
