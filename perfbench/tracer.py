"""Span recording from outside the program: wrappers around each layer's public functions.

:func:`instrument` replaces the functions listed by :func:`layers` with thin
wrappers that record a :class:`~stats.Span` (name, start, end, parent span,
request id) and a few counters per call.  Nothing under ``src/`` changes; the
wrappers call the original function with the original arguments and return its
result unchanged, and the traced run checks that its fronts are bitwise equal to
an untraced replay.  Spans stay in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from stats import Span


class Recorder:
    """In-memory span and counter sink; ``enabled`` switches recording off without unpatching."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.enabled = False
        self.request = -1
        self._stack: List[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, parent, self.request, start, end))

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call made inside an open span (a request or set-up).

        ``count(counts, args, kwargs, result)`` runs after the call, outside its span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (self.enabled and self._stack):
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def dump(self, path: Path, meta: Dict[str, object]) -> None:
        """Write the spans as columns (compact for tens of thousands of spans)."""
        columns = {
            "id": [s.id for s in self.spans],
            "name": [s.name for s in self.spans],
            "parent": [s.parent for s in self.spans],
            "request": [s.request for s in self.spans],
            "start": [s.start for s in self.spans],
            "end": [s.end for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": columns}))


# -- counters run after the wrapped call returns (outside its span) ----------------------
def _count_sort(counts, args, kwargs, result) -> None:
    counts["optimizer.sort.n"] += len(args[0] if args else kwargs["objectives"])


def _count_score(counts, args, kwargs, result) -> None:
    vectors = np.asarray(args[1] if len(args) > 1 else kwargs["vectors"])
    counts["quality.score.plans"] += len(vectors)
    if len(vectors):
        counts["quality.score.unique"] += len(np.unique(vectors.reshape(len(vectors), -1), axis=0))


def _count_certify(counts, args, kwargs, result) -> None:
    counts["quality.certify.evals"] += result.budget_spent


def _count_save(counts, args, kwargs, result) -> None:
    store, key = args[0], args[1]
    if result:
        try:
            counts["serving.save.bytes"] += store.path_for(key).stat().st_size
        except OSError:
            pass


def _count_load(counts, args, kwargs, result) -> None:
    if result is None:
        counts["serving.load.misses"] += 1


def _count_search(counts, args, kwargs, result) -> None:
    counts["optimizer.search.evaluations"] += result.evaluations


def layers():
    """(span name, owner, attribute, counter) for every wrapped public function."""
    from repro.cluster.autoscaler import StorageAutoscaler
    from repro.learning.estimator import ResourceEstimate
    from repro.monitoring.drift import DriftDetector
    from repro.optimizer import nsga2
    from repro.optimizer.atlas_ga import AtlasGA
    from repro.optimizer.drl.agent import CrossoverAgent
    from repro.quality import problem
    from repro.quality.adversary import ScenarioAdversary
    from repro.quality.availability import ApiAvailabilityModel
    from repro.quality.cost import CloudCostModel
    from repro.quality.evaluator import QualityEvaluator
    from repro.quality.performance import ApiPerformanceModel
    from repro.recommend.advisor import AdvisorService, Atlas
    from repro.serving.daemon import AdvisorDaemon
    from repro.serving.store import ArtifactStore
    from repro.simulator import run as simulator_run
    from repro.workload.generator import WorkloadGenerator

    table = [
        ("workload.generate", WorkloadGenerator, "generate", None),
        ("simulator.simulate", simulator_run, "simulate_workload", None),
        ("learning.learn", Atlas, "learn", None),
        ("recommend.recommend", Atlas, "recommend", None),
        ("recommend.certify_plan", Atlas, "certify_plan", None),
        ("recommend.build_evaluator", Atlas, "build_evaluator", None),
        ("recommend.service", AdvisorService, "recommend", None),
        ("optimizer.search", AtlasGA, "run", _count_search),
        ("optimizer.sort", nsga2, "non_dominated_sort", _count_sort),
        ("optimizer.crowding", nsga2, "crowding_distance", None),
        ("optimizer.drl_train", CrossoverAgent, "train", None),
        ("quality.score", QualityEvaluator, "evaluate_vectors", _count_score),
        ("quality.qperf", ApiPerformanceModel, "qperf_batch", None),
        ("quality.qperf", ApiPerformanceModel, "impact_matrix", None),
        ("quality.qperf", ApiPerformanceModel, "impact_matrices_multi", None),
        ("quality.qperf", ApiPerformanceModel, "estimate_all", None),
        ("quality.qcost", CloudCostModel, "qcost_batch", None),
        ("quality.qavai", ApiAvailabilityModel, "qavai_batch", None),
        ("learning.aggregate_matrix", ResourceEstimate, "aggregate_matrix", None),
        ("cluster.capacity_matrix", StorageAutoscaler, "capacity_matrix", None),
        ("quality.certify", ScenarioAdversary, "certify", _count_certify),
        ("serving.save", ArtifactStore, "save", _count_save),
        ("serving.load", ArtifactStore, "load", _count_load),
        ("serving.checkpoint", ArtifactStore, "save_state", None),
        ("serving.cycle", AdvisorDaemon, "run_cycle", None),
        ("monitoring.drift_check", DriftDetector, "check_all", None),
    ]
    pending = [problem.Constraint]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "check" in vars(cls) and cls is not problem.Constraint:
            table.append(("quality.constraints", cls, "check", None))
    return table


def instrument(recorder: Recorder) -> None:
    """Patch every function of :func:`layers` in place, once per process.

    A module-level function is rebound in every loaded ``repro`` module that
    imported it by name, except the selection kernels, which are wrapped only as
    bound in ``repro.optimizer.nsga2`` (where the search calls them).
    """
    for name, owner, attr, count in layers():
        original = getattr(owner, attr)
        if getattr(original, "__wrapped_by_perfbench__", False):
            continue
        wrapped = recorder.wrap(name, original, count)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        if name.startswith("optimizer."):
            setattr(owner, attr, wrapped)
            continue
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
