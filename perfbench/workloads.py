"""The benchmark workloads, driven through the advisor's public API.

Each workload is a closed loop with one client: a round issues its operations
one after another and the next round starts when the previous one returns.  A
round times each operation on its own (:meth:`Workload.timed`) and checks the
outputs afterwards, outside the timed intervals.  The workload seed sets each
request's GA seed and the drift script.

* ``cold-3site`` — a cold ``Atlas.recommend`` per round on the 3-site social
  network, then ``Atlas.certify_plan`` of its knee.
* ``serve-replan`` — a store-backed ``AdvisorService`` with two tenants under an
  ``AdvisorDaemon``: per round one daemon cycle in which one API of the social
  network drifts, memo hits and journal revives in fresh services.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import _shared
from repro.analysis.testbed import build_testbed
from repro.recommend import AdvisorService, Atlas
from repro.recommend.advisor import ApplicationKnowledge
from repro.serving import AdvisorDaemon, ArtifactStore, MonitorSample
from repro.serving.daemon import front_digest

from stats import Tally

#: The 3-site social network of ``benchmarks/_shared.fused_testbed()``.
SOCIAL = dict(_shared._TESTBED_KWARGS, n_locations=3)
#: The hotel reservation on the paper's two sites (``_shared.hotel_testbed()``).
HOTEL = dict(_shared._HOTEL_KWARGS)
#: The testbed seed of ``_shared`` (``build_testbed``'s default) for every workload
#: seed, so the numbers describe the instance the ROADMAP layer table and the
#: ``BENCH_*.json`` ledgers were measured on.
TESTBED_SEED = 7

#: Certification budget of the knee plan.
CERTIFY_BUDGET = 48
#: Relative tolerance of the reference-oracle re-score of a knee plan.
RESCORE_RTOL = 1e-9
#: Memo hits and journal revives per ``serve-replan`` round, and the memo's size.
HITS_PER_ROUND = 125
REVIVES_PER_ROUND = 5
MEMO_ENTRIES = 4


def knee_rescore_ok(atlas: Atlas, recommendation, expected_scale: float) -> bool:
    """Re-score the knee with a fresh evaluator on the recursive reference oracle."""
    knee = recommendation.knee_point()
    evaluator = atlas.build_evaluator(
        expected_scale=expected_scale,
        performance_engine="reference",
        problem=recommendation.problem,
    )
    oracle = evaluator.evaluate(knee.plan).objectives()
    return len(oracle) == len(knee.objectives()) and all(
        math.isclose(a, b, rel_tol=RESCORE_RTOL, abs_tol=1e-12)
        for a, b in zip(oracle, knee.objectives())
    )


class Workload:
    """Shared bookkeeping: timed samples, the tally, fronts and knees of the timed rounds."""

    name = ""
    #: Set-ups per run (``setup_s`` is their median); cheap set-ups repeat more.
    setup_repeats = 5

    def __init__(self, seed: int, tally: Tally, workdir: Path, recorder=None) -> None:
        self.seed = int(seed)
        self.tally = tally
        self.workdir = workdir
        self.recorder = recorder
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.fronts: List[str] = []
        self.knees: List[tuple] = []
        self.counters: Counter = Counter()
        self._ops = 0

    # -- helpers -------------------------------------------------------------------------
    def ga_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    @contextmanager
    def timed(self, kind: str):
        """Time one operation under a root span ``request.<kind>``; a raise counts as a failure."""
        recorder = self.recorder
        if recorder is not None:
            recorder.request = self._ops
        self._ops += 1
        start = time.perf_counter()
        try:
            if recorder is not None:
                with recorder.span("request." + kind):
                    yield
            else:
                yield
        except Exception as exc:  # one failed operation must not end the run
            self.tally.fail(f"{kind}: {type(exc).__name__}: {exc}")
            raise _Failed() from exc
        self.samples[kind].append(time.perf_counter() - start)

    def run_round(self, index: int) -> None:
        """One round; a raise counts as a failure and the next round still runs."""
        try:
            self.round(index)
        except _Failed:
            pass
        except Exception as exc:  # a check that raised, outside any timed operation
            self.tally.fail(f"round {index}: {type(exc).__name__}: {exc}")

    def record_front(self, recommendation) -> None:
        self.fronts.append(front_digest(recommendation))
        self.knees.append(tuple(recommendation.knee_point().objectives()))

    # -- interface -----------------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed work before the measured rounds (none by default)."""

    def round(self, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Top up samples after the timed rounds and collect counters (none by default)."""

    def close(self) -> None:
        """Release what :meth:`setup` created on disk (nothing by default)."""


class _Failed(Exception):
    """An operation raised; already counted in the tally."""


class ColdWorkload(Workload):
    name = "cold-3site"

    def setup(self) -> None:
        self.testbed = build_testbed(seed=TESTBED_SEED, **SOCIAL)

    def recommend(self, index: int):
        testbed = self.testbed
        config = dataclasses.replace(testbed.atlas.config.ga, seed=self.ga_seed(index))
        return testbed.atlas.recommend(expected_scale=testbed.expected_scale, ga_config=config)

    def warmup(self) -> None:
        self.recommend(0)

    def round(self, index: int) -> None:
        atlas = self.testbed.atlas
        with self.timed("recommend"):
            recommendation = self.recommend(index)
        knee = recommendation.knee_point().plan
        with self.timed("certify"):
            certificate = atlas.certify_plan(
                recommendation.evaluator, knee, budget=CERTIFY_BUDGET
            )
        self.tally.check(
            certificate.budget_spent <= CERTIFY_BUDGET,
            f"certificate spent {certificate.budget_spent} > budget {CERTIFY_BUDGET}",
        )
        self.record_front(recommendation)
        self.tally.check(
            knee_rescore_ok(atlas, recommendation, self.testbed.expected_scale),
            "knee objectives differ from the reference oracle",
        )


def _perturb(trace, scale: float):
    """A re-profiled trace window: every span stretched by ``scale``."""
    spans = [
        dataclasses.replace(
            span, start_ms=span.start_ms * scale, duration_ms=span.duration_ms * scale
        )
        for span in trace.spans
    ]
    return trace.with_spans(spans)


class DriftScript:
    """The daemon's monitor: on-model samples, except the scripted drift of one social API.

    Every sample repeats the tenant's ``baseline`` — the advisor's own latency
    preview of its current knee, the drift detector's reference — so nothing
    drifts, except on cycles after the first: there the ``target`` API of the
    drifting tenant reads 6x slower and carries a re-profiled trace window
    stretched by ``scale``.
    """

    def __init__(self, drift_tenant: str, originals) -> None:
        self.drift_tenant = drift_tenant
        self.originals = originals
        self.baseline: Dict[str, Dict[str, List[float]]] = {}
        self.target: Optional[str] = None
        self.scale = 1.0

    def poll(self, tenant: str, cycle: int) -> MonitorSample:
        latencies = {api: list(values) for api, values in self.baseline[tenant].items()}
        if cycle == 1 or tenant != self.drift_tenant:
            return MonitorSample(recent_latencies=latencies)
        api = self.target
        latencies[api] = [v * 6.0 + 25.0 for v in latencies[api]]
        window = [_perturb(trace, self.scale) for trace in self.originals[api]]
        return MonitorSample(recent_latencies=latencies, traces_by_api={api: window})


class ServeWorkload(Workload):
    """Two tenants over one store; one daemon per round, so each drift meets a fresh baseline.

    The daemon takes its drift baseline from the cycle that recommended, and
    keeps it until the next recommend.  A round therefore starts a new daemon
    over the same service and store: its first cycle (untimed) is answered from
    the memo and baselines on the current knee's preview; its second cycle
    (timed) sees one social API drift and runs drift -> splice -> recommend.
    """

    name = "serve-replan"
    setup_repeats = 3
    DRIFTER = "social"

    def setup(self) -> None:
        social = build_testbed(seed=TESTBED_SEED, **SOCIAL)
        hotel = build_testbed(seed=TESTBED_SEED, **HOTEL)
        self.root = self.workdir / f"store-{self.name}-{self.seed}-{time.monotonic_ns()}"
        # A small request memo: older fronts leave memory and are revived from
        # the journal, so the process's memory stops growing after a few rounds.
        self.service = AdvisorService(
            store=ArtifactStore(self.root), max_recommendations=MEMO_ENTRIES
        )
        self.tenants = {"social": social, "hotel": hotel}
        self.kwargs = {
            name: dict(
                expected_scale=testbed.expected_scale,
                ga_config=dataclasses.replace(testbed.atlas.config.ga, seed=self.ga_seed(0)),
            )
            for name, testbed in self.tenants.items()
        }
        originals = {
            api: list(profile.sample_traces)
            for api, profile in social.atlas.knowledge.api_profiles.items()
        }
        self.script = DriftScript(self.DRIFTER, originals)
        self.rng = np.random.default_rng(self.seed)
        self.digests: Dict[str, str] = {}
        for name, testbed in sorted(self.tenants.items()):
            # The bootstrap recommend that fills the store.
            recommendation = self.service.recommend(testbed.atlas, **self.kwargs[name])
            self.digests[name] = front_digest(recommendation)
        self._stats_start = self._service_stats(self.service)

    def start_daemon(self, index: int) -> AdvisorDaemon:
        """A new daemon over the service whose first cycle baselines every tenant."""
        daemon = AdvisorDaemon(self.service, self.script, name=f"bench-{index}")
        for name, testbed in sorted(self.tenants.items()):
            recommendation = self.service.recommend(testbed.atlas, **self.kwargs[name])
            knee = recommendation.knee_point().plan
            self.script.baseline[name] = {
                api: [float(x) for x in estimate.estimated_latencies_ms]
                for api, estimate in recommendation.latency_preview(knee).items()
            }
            daemon.register(name, testbed.atlas, **self.kwargs[name])
        for report in daemon.run_cycle():
            self.tally.check(
                report.recommended and report.front_sha == self.digests[report.tenant],
                f"baseline cycle of {report.tenant} changed the front",
            )
        return daemon

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    @staticmethod
    def _service_stats(service: AdvisorService) -> Counter:
        stats = service.stats()
        counts = Counter()
        for key, value in stats["artifacts"].items():
            counts["cache_" + key] += value
        for key, value in stats["recommendations"].items():
            counts["memo_" + key] += value
        for key, value in stats.get("journal", {}).items():
            counts["journal_" + key] += value
        return counts

    def round(self, index: int) -> None:
        daemon = self.start_daemon(index)
        # The re-plan searches with this round's GA seed: re-registering keeps the
        # daemon's record and changes only the arguments of its next recommend.
        social = self.tenants[self.DRIFTER]
        self.kwargs[self.DRIFTER] = dict(
            self.kwargs[self.DRIFTER],
            ga_config=dataclasses.replace(social.atlas.config.ga, seed=self.ga_seed(index)),
        )
        daemon.register(self.DRIFTER, social.atlas, **self.kwargs[self.DRIFTER])
        apis = sorted(self.script.originals)
        api = apis[int(self.rng.integers(len(apis)))]
        self.script.target = api
        # A distinct stretch per round keeps every spliced state new to the store.
        self.script.scale = 1.2 + 0.01 * index
        with self.timed("recommend"):
            reports = daemon.run_cycle()
        for report in reports:
            if report.tenant == self.DRIFTER:
                self.tally.check(
                    report.drifted == [api] and report.spliced == [api] and report.recommended,
                    f"cycle {report.cycle}: scripted drift of {api} gave "
                    f"drifted={report.drifted} spliced={report.spliced}",
                )
                self.digests[report.tenant] = report.front_sha
                self.fronts.append(report.front_sha)
            else:
                self.tally.check(
                    not report.drifted and report.error is None,
                    f"cycle {report.cycle}: {report.tenant} drifted={report.drifted}",
                )
        atlas = self.tenants[self.DRIFTER].atlas
        live = self.service.recommend(atlas, **self.kwargs[self.DRIFTER])
        self.knees.append(tuple(live.knee_point().objectives()))
        self.tally.check(
            knee_rescore_ok(atlas, live, self.kwargs[self.DRIFTER]["expected_scale"]),
            "re-planned knee objectives differ from the reference oracle",
        )
        self.hits(HITS_PER_ROUND)
        for _ in range(REVIVES_PER_ROUND):
            self.revive()

    def hits(self, count: int) -> None:
        atlas = self.tenants[self.DRIFTER].atlas
        expected = self.digests[self.DRIFTER]
        matches: Dict[int, bool] = {}  # the memo returns the same object, digest it once
        for _ in range(count):
            with self.timed("hit"):
                recommendation = self.service.recommend(atlas, **self.kwargs[self.DRIFTER])
            if id(recommendation) not in matches:
                matches[id(recommendation)] = front_digest(recommendation) == expected
            self.tally.check(matches[id(recommendation)], "memo hit returned another front")

    def revive(self) -> None:
        """A simulated restart: a fresh Atlas, service and cache over the same store."""
        atlas = self.tenants[self.DRIFTER].atlas
        fresh = Atlas(
            atlas.application,
            atlas.preferences,
            network=atlas.network,
            config=atlas.config,
            current_plan=atlas.current_plan,
            cluster=atlas.cluster,
        )
        knowledge = atlas.knowledge
        fresh.knowledge = ApplicationKnowledge(
            api_profiles=dict(knowledge.api_profiles),
            component_profiles=dict(knowledge.component_profiles),
            footprint=knowledge.footprint,
            estimator=knowledge.estimator,
        )
        fresh.telemetry = atlas.telemetry
        with self.timed("revive"):
            service = AdvisorService(store=ArtifactStore(self.root))
            recommendation = service.recommend(fresh, **self.kwargs[self.DRIFTER])
        self.counters.update(self._service_stats(service))
        self.tally.check(
            service.stats()["journal"] == {"hits": 1, "misses": 0}
            and front_digest(recommendation) == self.digests[self.DRIFTER],
            "revive did not return the journaled front",
        )

    def finish(self) -> None:
        """Top up to 1000 memo hits (so p99 has ten beyond it) and collect the counters."""
        missing = 1000 - len(self.samples["hit"])
        if missing > 0:
            self.hits(missing)
        end = self._service_stats(self.service)
        end.subtract(self._stats_start)
        self.counters.update(end)
        self.store_bytes = sum(
            path.stat().st_size for path in self.root.rglob("*") if path.is_file()
        )


WORKLOADS = {cls.name: cls for cls in (ColdWorkload, ServeWorkload)}
