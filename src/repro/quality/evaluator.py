"""Plan quality evaluation: the K-objective execution engine behind the problem API.

:class:`QualityEvaluator` bundles the quality models (performance, availability,
cost), the owner's preferences, the resource estimate and a declarative
:class:`~repro.quality.problem.PlacementProblem` into a single object the optimizers
query: ``evaluate(plan)`` returns a :class:`PlanQuality` with the K objective values,
feasibility and the list of violated constraints.  Evaluations are cached by plan,
which matters because genetic search revisits plans frequently.

**Problem-driven scoring.**  The evaluator no longer hardcodes the paper's QPerf /
QAvai / QCost triple: it executes whatever
:class:`~repro.quality.problem.Objective` / :class:`~repro.quality.problem.Constraint`
plugins its problem declares.  The default problem is the paper's exact stack
(built-in plugins over the same batched kernels), byte-identical to the hardcoded
pipeline it replaced; appending plugins widens every result to K dimensions with zero
optimizer changes.

**Plan-matrix pipeline.**  The unit of batched evaluation is a ``(plans, components)``
integer location matrix, not a list of :class:`MigrationPlan` objects:
``evaluate_vectors`` (and ``evaluate_batch``, which lowers plan lists onto it) dedups
the generation into one matrix and scores all K objectives plus feasibility in a
handful of vectorized passes — one ``score_matrix`` call per objective (one compiled
replay per API for QPerf, one autoscaler pass per billable site for QCost, one
stateful-column pass per API for QAvai) and one boolean mask per constraint.  Each
plan's cost is computed exactly once per evaluation and reused by the budget check;
violation strings are materialized lazily, only for infeasible plans.  The per-plan
path (:meth:`evaluate`) is kept as the reference oracle: batched scores are bitwise
identical to it, and the ``evaluations`` counter advances the same way.

**Scenario axis.**  With a scenario set (explicit, bound, or declared on the
problem), every objective is scored once per compiled scenario into per-objective
``(S, P)`` tensors that collapse through the robust aggregator; a plan is feasible
iff it is feasible under every scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.placement import MigrationPlan
from ..learning.estimator import ResourceEstimate, ResourceEstimator
from ..telemetry.tracing import Trace
from .availability import ApiAvailabilityModel
from .cost import CloudCostModel
from .faults import FaultedStack
from .compiled import ShmArena
from .performance import ApiPerformanceModel
from .preferences import MigrationPreferences
from .problem import (
    DEFAULT_OBJECTIVE_NAMES,
    ONPREM_RESOURCES,
    ConstraintCheck,
    EvalContext,
    PlacementProblem,
)
from .scenarios import (
    RobustAggregator,
    ScenarioQuality,
    ScenarioSet,
    ScenarioSpec,
    WorstCase,
    scaled_footprint,
)

__all__ = ["PlanQuality", "QualityEvaluator"]

#: Backwards-compatible alias (the table moved to :mod:`repro.quality.problem`).
_ONPREM_RESOURCES = ONPREM_RESOURCES


@dataclass(frozen=True)
class PlanQuality:
    """Quality of one migration plan.

    ``values`` holds the K minimized objective values in the problem's column order
    and ``names`` their labels; the legacy ``perf`` / ``avail`` / ``cost`` fields are
    the paper-triple view of that vector (mapped by objective name, positional for
    problems that replace the built-ins).  Results constructed the historical way —
    just the triple, no ``values`` — behave identically: :meth:`objectives` falls
    back to ``(perf, avail, cost)``.

    Under scenario-robust evaluation the objective values are the *aggregated*
    ones (the :class:`~repro.quality.scenarios.RobustAggregator` output),
    ``feasible`` means feasible under **every** scenario, and ``scenarios`` carries
    the per-scenario breakdown; classic single-workload evaluation leaves
    ``scenarios`` empty.
    """

    plan: MigrationPlan
    perf: float
    avail: float
    cost: float
    feasible: bool
    violations: Tuple[str, ...] = ()
    scenarios: Tuple[ScenarioQuality, ...] = ()
    values: Optional[Tuple[float, ...]] = None
    names: Optional[Tuple[str, ...]] = None

    def objectives(self) -> Tuple[float, ...]:
        """The K-vector of minimized objective values (the paper's triple by default)."""
        if self.values is not None:
            return self.values
        return (self.perf, self.avail, self.cost)

    def objective_names(self) -> Tuple[str, ...]:
        return self.names if self.names is not None else DEFAULT_OBJECTIVE_NAMES

    def value(self, name: str) -> float:
        """One objective value by name (e.g. ``quality.value("egress_gb")``)."""
        names = self.objective_names()
        try:
            return self.objectives()[names.index(name)]
        except ValueError:
            raise KeyError(f"no objective named {name!r} in {names}") from None

    def dominates(self, other: "PlanQuality") -> bool:
        """Pareto dominance on the objective vector (feasibility handled upstream).

        Qualities with objective vectors of different lengths raise ``ValueError``.
        """
        # Function-local: repro.optimizer imports repro.quality.
        from ..optimizer.pareto import dominates

        return dominates(self.objectives(), other.objectives())


@dataclass
class _ScenarioContext:
    """One compiled scenario: the models/artifacts the quality stack bakes in.

    ``performance`` is a :meth:`~repro.quality.performance.ApiPerformanceModel.scenario_view`
    (the base model itself for payload-neutral scenarios), ``cost`` a derived
    :class:`~repro.quality.cost.CloudCostModel` over the scenario's resource estimate
    and payload-scaled footprint, ``estimate`` feeds the on-prem peak constraint, and
    ``weights`` is the scenario's τ_A trace-weight vector for QPerf/QAvai.

    ``availability`` and ``preferences`` are the scenario-resolved views of the
    remaining two artifact families — identical to the evaluator's base objects for
    fault-free scenarios, derived (outage-weighted availability, evacuated/limited
    preferences) when the spec declares :attr:`~repro.quality.scenarios.ScenarioSpec.faults`.
    """

    spec: ScenarioSpec
    performance: ApiPerformanceModel
    cost: CloudCostModel
    estimate: ResourceEstimate
    weights: Dict[str, float]
    availability: ApiAvailabilityModel
    preferences: MigrationPreferences


class QualityEvaluator:
    """Executes a :class:`~repro.quality.problem.PlacementProblem` over plan matrices.

    Without an explicit ``problem`` this is the paper's Eq. 4 evaluator: the three
    quality objectives under the pin / whitelist / on-prem-peak / budget constraints.
    """

    def __init__(
        self,
        performance: ApiPerformanceModel,
        availability: ApiAvailabilityModel,
        cost: CloudCostModel,
        preferences: MigrationPreferences,
        estimate: ResourceEstimate,
        component_order: Optional[Sequence[str]] = None,
        estimator: Optional[ResourceEstimator] = None,
        problem: Optional[PlacementProblem] = None,
    ) -> None:
        """``estimator`` (the fitted resource estimator the base ``estimate`` came
        from) is only needed for scenario-robust evaluation of scenarios that change
        request rates — it re-predicts the per-component usage series under each
        scenario's per-API rate series.

        ``problem`` declares the objective/constraint stack (default: the paper's
        three objectives and Eq. 4 constraints).  A problem with its own
        ``preferences`` overrides the ``preferences`` argument, and a problem with a
        scenario set arrives pre-bound (every entry point evaluates robustly)."""
        self.performance = performance
        self.availability = availability
        self.cost = cost
        self.problem = problem if problem is not None else PlacementProblem.default()
        if self.problem.preferences is not None:
            preferences = self.problem.preferences
        self.preferences = preferences
        self.estimate = estimate
        self.estimator = estimator
        self._weights = preferences.api_weights(performance.apis)
        self._component_order = list(component_order) if component_order else None
        self._cache: Dict[Tuple[int, ...], PlanQuality] = {}
        #: Canonical column order of the result cache: every key is the plan's
        #: location tuple in THIS order, so plans expressed under a permuted
        #: component order never collide.
        self._canonical: Tuple[str, ...] = tuple(self._columns(None))
        #: The paper-triple layout: exactly (qperf, qavai, qcost) in columns 0-2.
        #: Results then leave PlanQuality.values/names at their defaults (the
        #: triple fields carry the whole vector), matching the pre-problem results
        #: field-for-field and skipping two tuple builds per evaluated plan.
        self._triple_layout = (
            self.problem.objective_names == DEFAULT_OBJECTIVE_NAMES
        )
        self.evaluations = 0
        #: Scenario evaluations: one per (distinct plan, scenario) pair scored by the
        #: robust path (``evaluations`` counts plans, matching the paper's budget).
        self.scenario_evaluations = 0
        # Compiled scenario contexts, keyed by the spec's canonical identity.
        self._scenario_contexts: Dict[Tuple, _ScenarioContext] = {}
        # Name-independent compiled scenario state, keyed by the spec's
        # identity_key(): the adversary probes workload shapes under throwaway
        # names ("adversary-3", "drift-refresh"), so recompiling per name would
        # rebuild the same estimate/footprint/view/cost stack over and over.
        self._scenario_states: Dict[Tuple, _ScenarioContext] = {}
        # Robust result caches, one per (scenario set, aggregator) identity.
        self._robust_caches: Dict[Tuple, Dict[Tuple[int, ...], PlanQuality]] = {}
        # Active binding: when set, every entry point (evaluate/evaluate_batch/
        # evaluate_vectors/is_feasible/feasible_mask) defaults to robust evaluation
        # over this scenario set — how the optimizers become scenario-robust for free.
        self._bound: Optional[Tuple[ScenarioSet, RobustAggregator]] = None
        # Shared-memory arena backing the compiled replay state (see share_memory).
        self._shm_arena: Optional[ShmArena] = None
        if self.problem.scenarios is not None:
            self.bind_scenarios(self.problem.scenarios, self.problem.aggregator)

    def _key(self, plan: MigrationPlan) -> Tuple[int, ...]:
        """Cache key of one plan: its locations in the canonical component order."""
        if tuple(plan.components) == self._canonical:
            return tuple(plan.to_vector())
        return tuple(plan[c] for c in self._canonical)

    # -- problem introspection -------------------------------------------------------------
    @property
    def n_objectives(self) -> int:
        """K — the dimensionality of every result's objective vector."""
        return self.problem.K

    @property
    def objective_names(self) -> Tuple[str, ...]:
        return self.problem.objective_names

    # -- scenario binding ------------------------------------------------------------------
    def bind_scenarios(
        self,
        scenarios: "ScenarioSet | ScenarioSpec | Sequence[ScenarioSpec]",
        aggregator: Optional[RobustAggregator] = None,
    ) -> "QualityEvaluator":
        """Make every entry point evaluate robustly over ``scenarios`` by default.

        After binding, ``evaluate``/``evaluate_batch``/``evaluate_vectors``/
        ``is_feasible``/``feasible_mask`` (and therefore AtlasGA, NSGA-II, random
        search and the DRL reward loop, which only speak those) score each plan over
        the whole scenario set and collapse the objectives with ``aggregator``
        (default :class:`~repro.quality.scenarios.WorstCase`).  The result cache,
        ``cache_size`` and ``evaluated_qualities`` switch to the bound robust cache.
        """
        self._bound = (ScenarioSet.coerce(scenarios), aggregator or WorstCase())
        return self

    def unbind_scenarios(self) -> None:
        """Return to classic single-workload evaluation."""
        self._bound = None

    # -- shared-memory export --------------------------------------------------------------
    def share_memory(
        self,
        arena: Optional["ShmArena"] = None,
        n_locations: Optional[int] = None,
    ) -> "ShmArena":
        """Export the compiled replay state into shared memory, for forked workers.

        Moves the base performance model's compiled trace arrays and Δ lookup
        tables — plus those of every bound scenario's view — into ``arena``-backed
        shared memory, so worker processes forked afterwards score plan matrices
        against physically shared read-only pages instead of copy-on-write
        duplicates.  Results are bitwise identical to the private-memory path.
        Returns the arena (creating one on first use and reusing it after); the
        evaluator owns it for its lifetime.
        """
        if arena is None:
            arena = self._shm_arena if self._shm_arena is not None else ShmArena()
        if n_locations is None:
            locations = self.performance.network.locations()
            n_locations = (max(locations) + 1) if locations else 1
        self.performance.share_memory(arena, n_locations)
        if self._bound is not None:
            for spec in self._bound[0]:
                context = self._scenario_context(spec)
                context.performance.share_memory(arena, n_locations)
        self._shm_arena = arena
        return arena

    @property
    def bound_scenarios(self) -> Optional[ScenarioSet]:
        return self._bound[0] if self._bound is not None else None

    @property
    def bound_aggregator(self) -> Optional[RobustAggregator]:
        return self._bound[1] if self._bound is not None else None

    def _resolve_scenarios(
        self,
        scenarios: "Optional[ScenarioSet | ScenarioSpec | Sequence[ScenarioSpec]]",
        aggregator: Optional[RobustAggregator],
    ) -> Tuple[Optional[ScenarioSet], Optional[RobustAggregator]]:
        """Explicit arguments win; otherwise the bound set; otherwise the legacy path.

        An explicit scenario set gets the documented :class:`WorstCase` default —
        never the bound aggregator, which belongs to the bound set only."""
        if scenarios is not None:
            return ScenarioSet.coerce(scenarios), aggregator or WorstCase()
        if self._bound is not None:
            return self._bound[0], aggregator or self._bound[1]
        return None, None

    def _robust_cache(
        self, scenario_set: ScenarioSet, aggregator: RobustAggregator
    ) -> Dict[Tuple[int, ...], PlanQuality]:
        return self._robust_caches.setdefault(
            (scenario_set.key(), aggregator.key()), {}
        )

    def _active_cache(self) -> Dict[Tuple[int, ...], PlanQuality]:
        if self._bound is not None:
            return self._robust_cache(*self._bound)
        return self._cache

    # -- contexts --------------------------------------------------------------------------
    def _matrix_context(
        self,
        matrix: np.ndarray,
        components: Sequence[str],
        plans: Optional[Sequence[MigrationPlan]] = None,
    ) -> EvalContext:
        """Classic (single-workload) context over the evaluator's base models."""
        return EvalContext(
            matrix=matrix,
            components=list(components),
            performance=self.performance,
            availability=self.availability,
            cost=self.cost,
            estimate=self.estimate,
            weights=self._weights,
            preferences=self.preferences,
            evaluator=self,
            plans=plans,
        )

    def _plan_context(self, plan: MigrationPlan) -> EvalContext:
        """Scalar-oracle context: a one-row matrix plus the plan itself."""
        matrix = np.asarray([list(self._key(plan))], dtype=np.int64)
        return self._matrix_context(matrix, list(self._canonical), plans=[plan])

    # -- evaluation ------------------------------------------------------------------------
    def evaluate(self, plan: MigrationPlan) -> PlanQuality:
        if self._bound is not None:
            return self.evaluate_batch([plan])[0]
        key = self._key(plan)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        quality = self._evaluate_uncached(plan)
        self._cache[key] = quality
        return quality

    def evaluate_batch(
        self,
        plans: Sequence[MigrationPlan],
        scenarios: "Optional[ScenarioSet | ScenarioSpec | Sequence[ScenarioSpec]]" = None,
        aggregator: Optional[RobustAggregator] = None,
    ) -> List[PlanQuality]:
        """Evaluate a whole generation in one call by lowering it onto a plan matrix.

        Distinct uncached plans are collected into one ``(plans, components)`` matrix
        and scored by :meth:`evaluate_vectors`'s batched pipeline; duplicates and
        cache hits cost nothing.  Results and the ``evaluations`` counter are
        identical to calling :meth:`evaluate` plan by plan.  With ``scenarios`` (or a
        bound scenario set), plans are scored robustly over the scenario axis.
        """
        scenario_set, aggregator = self._resolve_scenarios(scenarios, aggregator)
        if scenario_set is not None:
            keys = [self._key(plan) for plan in plans]
            cache = self._robust_cache(scenario_set, aggregator)
            missing: Dict[Tuple[int, ...], MigrationPlan] = {}
            for key, plan in zip(keys, plans):
                if key not in cache and key not in missing:
                    missing[key] = plan
            if missing:
                # Keys are already canonical-order vectors, so mixed component orders
                # lower onto one matrix for free.
                matrix = np.asarray(list(missing), dtype=np.int64)
                qualities = self._score_matrix_scenarios(
                    matrix,
                    list(self._canonical),
                    list(missing.values()),
                    scenario_set,
                    aggregator,
                )
                for key, quality in zip(missing, qualities):
                    cache[key] = quality
            return [cache[key] for key in keys]
        keys = [self._key(plan) for plan in plans]
        missing = {}
        for key, plan in zip(keys, plans):
            if key not in self._cache and key not in missing:
                missing[key] = plan
        if missing:
            plans_list = list(missing.values())
            orders = {tuple(plan.components) for plan in plans_list}
            if len(orders) == 1:
                matrix = np.asarray([plan.to_vector() for plan in plans_list])
                components = plans_list[0].components
                for key, quality in zip(
                    missing, self._score_matrix(matrix, components, plans_list)
                ):
                    self._cache[key] = quality
            else:
                # Mixed component orders cannot share one matrix; score through the
                # per-plan reference path.
                self.performance.prime(plans_list)
                for key, plan in missing.items():
                    self._cache[key] = self._evaluate_uncached(plan)
        return [self._cache[key] for key in keys]

    def evaluate_vectors(
        self,
        vectors: Sequence[Sequence[int]],
        components: Optional[Sequence[str]] = None,
        scenarios: "Optional[ScenarioSet | ScenarioSpec | Sequence[ScenarioSpec]]" = None,
        aggregator: Optional[RobustAggregator] = None,
    ) -> List[PlanQuality]:
        """Evaluate location vectors directly — the optimizers' native entry point.

        ``vectors`` is anything convertible to a ``(plans, len(components))`` integer
        matrix; ``components`` names the columns (defaults to the evaluator's
        component order).  :class:`MigrationPlan` objects are constructed only for
        distinct uncached rows, at the :class:`PlanQuality` API boundary.

        ``scenarios`` switches on robust evaluation: every distinct plan is scored
        once per scenario (per-objective S×P tensors built with shared dedup, shared
        compiled replays and per-scenario compiled artifacts) and the tensors are
        collapsed by ``aggregator`` into the scalar objectives; the per-scenario
        breakdown rides along on :attr:`PlanQuality.scenarios`.  With ``scenarios=None``
        and no bound set, this is byte-identical to the classic single-workload path.
        """
        scenario_set, aggregator = self._resolve_scenarios(scenarios, aggregator)
        matrix, components = self._lower(vectors, components)
        keys = [tuple(row) for row in matrix.tolist()]
        cache = (
            self._robust_cache(scenario_set, aggregator)
            if scenario_set is not None
            else self._cache
        )
        missing: Dict[Tuple[int, ...], int] = {}
        for index, key in enumerate(keys):
            if key not in cache and key not in missing:
                missing[key] = index
        if missing:
            rows = matrix[list(missing.values())]
            plans = [
                MigrationPlan.from_vector(components, list(key)) for key in missing
            ]
            if scenario_set is not None:
                qualities = self._score_matrix_scenarios(
                    rows, components, plans, scenario_set, aggregator
                )
            else:
                qualities = self._score_matrix(rows, components, plans)
            for key, quality in zip(missing, qualities):
                cache[key] = quality
        return [cache[key] for key in keys]

    # -- the K-objective execution engine --------------------------------------------------
    def _score_matrix(
        self,
        matrix: np.ndarray,
        components: Sequence[str],
        plans: Sequence[MigrationPlan],
    ) -> List[PlanQuality]:
        """Score distinct, uncached plans in a handful of vectorized passes.

        One ``score_matrix`` call per objective, one ``check`` per constraint — the
        K objective vectors, the feasibility mask and the numbers behind the
        violation strings are each computed once for the whole matrix; results are
        bitwise identical to the per-plan reference path.
        """
        ctx = self._matrix_context(matrix, components)
        scores = [
            objective.minimized(
                np.asarray(objective.score_matrix(ctx), dtype=np.float64)
            )
            for objective in self.problem.objectives
        ]
        checks = [constraint.check(ctx) for constraint in self.problem.constraints]
        feasible = self._feasible_from_checks(checks, matrix.shape[0])
        legacy_triple = self.problem.legacy_triple
        # Lower the score columns and mask to Python scalars once: the per-row loop
        # below runs for every distinct plan of a generation, so per-element
        # ndarray indexing would dominate the small-K dispatch budget.
        columns = [score.tolist() for score in scores]
        feasible_rows = feasible.tolist()
        qualities: List[PlanQuality] = []
        if self._triple_layout:
            # The paper triple: perf/avail/cost ARE the whole vector, so the
            # values/names fields stay at their defaults (objectives() falls back
            # to the triple) — construction is exactly the pre-problem pipeline's.
            perf_column, avail_column, cost_column = columns
            for row, plan in enumerate(plans):
                self.evaluations += 1
                ok = feasible_rows[row]
                violations: Tuple[str, ...] = ()
                if not ok:
                    violations = tuple(self._materialize_row(checks, row))
                qualities.append(
                    PlanQuality(
                        plan=plan,
                        perf=perf_column[row],
                        avail=avail_column[row],
                        cost=cost_column[row],
                        feasible=ok,
                        violations=violations,
                    )
                )
            return qualities
        names = self.problem.objective_names
        for row, plan in enumerate(plans):
            self.evaluations += 1
            ok = feasible_rows[row]
            violations: Tuple[str, ...] = ()
            if not ok:
                violations = tuple(self._materialize_row(checks, row))
            values = tuple(column[row] for column in columns)
            perf, avail, cost = legacy_triple(values)
            qualities.append(
                PlanQuality(
                    plan=plan,
                    perf=perf,
                    avail=avail,
                    cost=cost,
                    feasible=ok,
                    violations=violations,
                    values=values,
                    names=names,
                )
            )
        return qualities

    @staticmethod
    def _feasible_from_checks(
        checks: Sequence[ConstraintCheck], n_plans: int
    ) -> np.ndarray:
        violated = np.zeros(n_plans, dtype=bool)
        for check in checks:
            violated |= check.violated
        return ~violated

    @staticmethod
    def _materialize_row(checks: Sequence[ConstraintCheck], row: int) -> List[str]:
        """Violation strings of one infeasible plan, in constraint-stack order."""
        violations: List[str] = []
        for check in checks:
            if check.violated[row]:
                violations.extend(check.materialize(row))
        return violations

    # -- scenario compilation / robust scoring ----------------------------------------------
    def _scenario_context(self, spec: ScenarioSpec) -> _ScenarioContext:
        """Compile one scenario into the artifacts the models bake in, cached by spec.

        The baseline spec *is* the base stack (same model objects), so evaluating the
        default scenario robustly shares every cache with — and scores bitwise equal
        to — the classic path.  Non-baseline specs derive: a scenario resource
        estimate (re-predicted per-API rate series), a payload-scaled footprint, a
        performance scenario view (shared compiled traces + replay caches) and a
        scenario τ_A weight vector.  Specs with faults additionally derive the
        network/availability/catalog/preference artifacts through
        :class:`~repro.quality.faults.FaultedStack`.
        """
        key = spec.compile_key()
        context = self._scenario_contexts.get(key)
        if context is None:
            # Specs that differ only in name compile to the same artifacts
            # (identity_key strips the name): reuse the compiled state and only
            # rewrap the spec — names flow into violation prefixes and result
            # labels, never into the models.
            state = self._scenario_states.get(spec.identity_key())
            if state is not None:
                context = replace(state, spec=spec)
                self._scenario_contexts[key] = context
                return context
            self._validate_spec_apis(spec)
            if spec.is_baseline:
                context = _ScenarioContext(
                    spec=spec,
                    performance=self.performance,
                    cost=self.cost,
                    estimate=self.estimate,
                    weights=self._weights,
                    availability=self.availability,
                    preferences=self.preferences,
                )
            else:
                estimate = self._scenario_estimate(spec)
                availability = self.availability
                preferences = self.preferences
                network = None
                catalogs = None
                if spec.faults:
                    stack = FaultedStack(
                        network=self.performance.network,
                        availability=self.availability,
                        catalogs=dict(self.cost.catalogs),
                        preferences=self.preferences,
                        locations=tuple(self.performance.network.locations()),
                    )
                    for fault in spec.faults:
                        fault.apply(stack)
                    if stack.network is not self.performance.network:
                        network = stack.network
                    availability = stack.availability
                    preferences = stack.preferences
                    if stack.catalogs_changed:
                        catalogs = stack.catalogs
                performance = self.performance.scenario_view(
                    scaled_footprint(self.performance.footprint, spec),
                    # A faulted network can shift every API's Δ tables, so the
                    # changed-API row reuse only applies on the base network.
                    changed_apis=(
                        spec.changed_payload_apis() if network is None else None
                    ),
                    network=network,
                )
                cost = self.cost.derive(
                    estimate=estimate,
                    footprint=scaled_footprint(self.cost.footprint, spec),
                    catalogs=catalogs,
                )
                weights = {
                    api: weight * spec.mix_factor(api)
                    for api, weight in self._weights.items()
                }
                context = _ScenarioContext(
                    spec=spec,
                    performance=performance,
                    cost=cost,
                    estimate=estimate,
                    weights=weights,
                    availability=availability,
                    preferences=preferences,
                )
            self._scenario_contexts[key] = context
            self._scenario_states[spec.identity_key()] = context
        return context

    def _validate_spec_apis(self, spec: ScenarioSpec) -> None:
        """Reject scenario factor maps naming APIs the evaluator does not know.

        A typo'd API name in ``api_rate_factors`` / ``payload_factors`` would
        otherwise silently no-op (the factors are looked up per known API), making
        the scenario weaker than the author intended.
        """
        referenced = set(spec.api_rate_factors) | set(spec.payload_factors)
        if not referenced:
            return
        known = set(self.performance.apis) | set(self.estimate.api_rates)
        unknown = sorted(referenced - known)
        if unknown:
            raise ValueError(
                f"scenario {spec.name!r} references unknown APIs {unknown}; "
                f"known APIs are {sorted(known)}"
            )

    def _scenario_eval_context(
        self,
        context: _ScenarioContext,
        matrix: np.ndarray,
        components: Sequence[str],
        shared: Dict,
        views: Optional[List[ApiPerformanceModel]] = None,
    ) -> EvalContext:
        """Scenario-resolved evaluation context for one compiled scenario."""
        return EvalContext(
            matrix=matrix,
            components=list(components),
            performance=context.performance,
            availability=context.availability,
            cost=context.cost,
            estimate=context.estimate,
            weights=context.weights,
            preferences=context.preferences,
            evaluator=self,
            scenario=context.spec,
            base_performance=self.performance,
            scenario_performances=views,
            shared=shared,
        )

    def _scenario_estimate(self, spec: ScenarioSpec) -> ResourceEstimate:
        """The scenario's expected resource-usage series (per-API rate compilation)."""
        if not spec.changes_rates:
            return self.estimate
        if self.estimator is None:
            raise ValueError(
                f"scenario {spec.name!r} changes request rates; construct the "
                "evaluator with estimator=... (the fitted ResourceEstimator) to "
                "compile scenario resource estimates"
            )
        if not self.estimate.api_rates:
            raise ValueError(
                "the base resource estimate has no per-API rate series to scale"
            )
        rates = {
            api: [value * spec.rate_factor(api) for value in series]
            for api, series in self.estimate.api_rates.items()
        }
        return self.estimator.predict(rates, step_ms=self.estimate.step_ms)

    def _score_matrix_scenarios(
        self,
        matrix: np.ndarray,
        components: Sequence[str],
        plans: Sequence[MigrationPlan],
        scenario_set: ScenarioSet,
        aggregator: RobustAggregator,
    ) -> List[PlanQuality]:
        """Score distinct plans over the whole scenario axis in S batched passes.

        Builds K per-objective ``(S, P)`` tensors (one set of vectorized passes per
        compiled scenario, all sharing the plan-level dedup and — through the QPerf
        plugin's impact cache on the call-wide ``shared`` dict — the performance
        model's compiled trace sets / replay caches), collapses each with
        ``aggregator`` and attaches the per-scenario breakdown.  A plan is feasible
        iff it is feasible under every scenario; each infeasible scenario's violation
        strings are materialized lazily and prefixed with the scenario name when
        S > 1.
        """
        contexts = [self._scenario_context(spec) for spec in scenario_set]
        objectives = self.problem.objectives
        n_objectives = len(objectives)
        n_scenarios, n_plans = len(contexts), matrix.shape[0]
        scores = [
            np.empty((n_scenarios, n_plans), dtype=np.float64)
            for _ in range(n_objectives)
        ]
        checks_by_scenario: List[List[ConstraintCheck]] = []
        # The call-wide shared dict: the QPerf plugin keeps its per-view impact
        # matrices here, so payload-neutral scenarios share one Δ-row gather/replay
        # per distinct performance view instead of one per scenario.
        shared: Dict = {}
        views = [context.performance for context in contexts]
        for index, context in enumerate(contexts):
            ctx = self._scenario_eval_context(
                context, matrix, components, shared, views
            )
            for k, objective in enumerate(objectives):
                scores[k][index] = objective.minimized(
                    np.asarray(objective.score_matrix(ctx), dtype=np.float64)
                )
            checks_by_scenario.append(
                [constraint.check(ctx) for constraint in self.problem.constraints]
            )
        weights = scenario_set.weight_array()
        aggregated = [
            aggregator.combine(scores[k], weights) for k in range(n_objectives)
        ]
        feasible_by_scenario = [
            self._feasible_from_checks(checks, n_plans)
            for checks in checks_by_scenario
        ]
        feasible_all = feasible_by_scenario[0].copy()
        for mask in feasible_by_scenario[1:]:
            feasible_all &= mask
        triple = self._triple_layout
        names = None if triple else self.problem.objective_names
        qualities: List[PlanQuality] = []
        for row, plan in enumerate(plans):
            self.evaluations += 1
            self.scenario_evaluations += n_scenarios
            per_scenario: List[ScenarioQuality] = []
            violations: List[str] = []
            for index, context in enumerate(contexts):
                ok = bool(feasible_by_scenario[index][row])
                scenario_violations: Tuple[str, ...] = ()
                if not ok:
                    scenario_violations = tuple(
                        self._materialize_row(checks_by_scenario[index], row)
                    )
                    if n_scenarios == 1:
                        violations.extend(scenario_violations)
                    else:
                        violations.extend(
                            f"[{context.spec.name}] {violation}"
                            for violation in scenario_violations
                        )
                scenario_values = tuple(
                    float(scores[k][index, row]) for k in range(n_objectives)
                )
                s_perf, s_avail, s_cost = self.problem.legacy_triple(scenario_values)
                per_scenario.append(
                    ScenarioQuality(
                        scenario=context.spec.name,
                        perf=s_perf,
                        avail=s_avail,
                        cost=s_cost,
                        feasible=ok,
                        violations=scenario_violations,
                        values=None if triple else scenario_values,
                        names=names,
                    )
                )
            values = tuple(float(aggregated[k][row]) for k in range(n_objectives))
            perf, avail, cost = self.problem.legacy_triple(values)
            qualities.append(
                PlanQuality(
                    plan=plan,
                    perf=perf,
                    avail=avail,
                    cost=cost,
                    feasible=bool(feasible_all[row]),
                    violations=tuple(violations),
                    scenarios=tuple(per_scenario),
                    values=None if triple else values,
                    names=names,
                )
            )
        return qualities

    def qcost_vectors(
        self,
        vectors: Sequence[Sequence[int]],
        components: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """Per-plan cost of a location matrix, scenario-aggregated when bound.

        Unbound this is exactly ``cost.qcost_batch`` after canonical lowering (the
        affinity-NSGA-II baseline's cost objective); bound, each plan's per-scenario
        costs collapse through the bound aggregator — the single-plan baselines
        become scenario-robust through the same door as the evaluators.
        """
        matrix, components = self._lower(vectors, components)
        if self._bound is None:
            return self.cost.qcost_batch(matrix, components)
        scenario_set, aggregator = self._bound
        costs = np.stack(
            [
                self._scenario_context(spec).cost.qcost_batch(matrix, components)
                for spec in scenario_set
            ]
        )
        return aggregator.combine(costs, scenario_set.weight_array())

    def invalidate_for_scenario(
        self,
        scenario: "Optional[ScenarioSpec | str]" = None,
        apis: Optional[Sequence[str]] = None,
    ) -> None:
        """Drop compiled scenario state so the next evaluation recompiles it.

        ``scenario`` (a spec or name) drops that scenario's compiled context and
        every robust cache that includes it; ``None`` drops all contexts and robust
        caches.  ``apis`` additionally invalidates those APIs' compiled projection /
        replay caches in the performance model *and* the single-workload result cache
        (their QPerf contributions are stale) — the drift monitor's refresh hook.
        """
        if scenario is None:
            self._scenario_contexts.clear()
            self._scenario_states.clear()
            self._robust_caches.clear()
        else:
            name = scenario.name if isinstance(scenario, ScenarioSpec) else scenario
            for key in [
                key
                for key, context in self._scenario_contexts.items()
                if context.spec.name == name
            ]:
                # Drop the shared identity state too: a by-name invalidation must
                # force a genuine recompile, not an identity-cache hit.
                self._scenario_states.pop(
                    self._scenario_contexts[key].spec.identity_key(), None
                )
                del self._scenario_contexts[key]
            for cache_key in [
                cache_key
                for cache_key in self._robust_caches
                if any(spec_key[0] == name for spec_key in cache_key[0])
            ]:
                del self._robust_caches[cache_key]
        if apis is not None:
            self.performance.invalidate_for_scenario(apis)
            self._cache.clear()
            self._robust_caches.clear()
            self._scenario_contexts.clear()
            self._scenario_states.clear()

    def splice(self, new_traces_by_api: Mapping[str, Sequence[Trace]]) -> None:
        """Incremental drift refresh: install re-profiled traces for the named APIs.

        The O(K) counterpart of ``invalidate_for_scenario(apis=...)``: the
        performance model splices only the named APIs' compiled state (see
        :meth:`~repro.quality.performance.ApiPerformanceModel.splice`), stale
        results are dropped, but the compiled *scenario* contexts survive — a
        scenario's estimate/footprint/cost/weights never depend on trace contents,
        and its performance view's per-API caches were purged family-wide by the
        model splice — so a K-of-N API refresh pays K trace compiles instead of a
        full evaluator rebuild, while scoring bitwise-identical to one.
        """
        self.performance.splice(new_traces_by_api)
        self._cache.clear()
        self._robust_caches.clear()

    def _evaluate_uncached(self, plan: MigrationPlan) -> PlanQuality:
        """Per-plan reference oracle; the batched pipeline must match it bitwise.

        Objectives score through their scalar kernels (``score_plan``), constraints
        through ``violations_plan`` — the built-in plugins run the exact historical
        per-plan code paths (memoized ``qcost``, per-projection QPerf/QAvai caches).
        """
        self.evaluations += 1
        ctx = self._plan_context(plan)
        values: List[float] = []
        for objective in self.problem.objectives:
            score = objective.score_plan(ctx, plan)
            values.append(float(-score if objective.sense == "max" else score))
        violations: List[str] = []
        for constraint in self.problem.constraints:
            violations.extend(constraint.violations_plan(ctx, plan))
        values_tuple = tuple(values)
        perf, avail, cost = self.problem.legacy_triple(values_tuple)
        return PlanQuality(
            plan=plan,
            perf=perf,
            avail=avail,
            cost=cost,
            feasible=not violations,
            violations=tuple(violations),
            values=None if self._triple_layout else values_tuple,
            names=None if self._triple_layout else self.problem.objective_names,
        )

    def is_feasible(self, plan: MigrationPlan) -> bool:
        if self._bound is not None:
            # Robust feasibility: the plan must satisfy Eq. 4 under every scenario.
            return bool(
                self.feasible_mask([list(self._key(plan))], list(self._canonical))[0]
            )
        return not self.constraint_violations(plan)

    # -- constraints -----------------------------------------------------------------------
    def constraint_violations(self, plan: MigrationPlan) -> List[str]:
        """Human-readable descriptions of every violated constraint of the problem."""
        ctx = self._plan_context(plan)
        violations: List[str] = []
        for constraint in self.problem.constraints:
            violations.extend(constraint.violations_plan(ctx, plan))
        return violations

    def feasible_mask(
        self,
        vectors: Sequence[Sequence[int]],
        components: Optional[Sequence[str]] = None,
        scenarios: "Optional[ScenarioSet | ScenarioSpec | Sequence[ScenarioSpec]]" = None,
    ) -> np.ndarray:
        """Per-plan feasibility of a location matrix — the batched ``is_feasible``.

        With ``scenarios`` (or a bound scenario set) a plan is feasible only if it
        satisfies the constraints under **every** scenario; per-scenario costs hit
        the scenario cost models' row memos, so a later robust evaluation of the
        same plans does not pay the cost passes again.
        """
        scenario_set, _aggregator = self._resolve_scenarios(scenarios, None)
        matrix, components = self._lower(vectors, components)
        if scenario_set is not None:
            mask: Optional[np.ndarray] = None
            for spec in scenario_set:
                context = self._scenario_context(spec)
                ctx = self._scenario_eval_context(context, matrix, components, {})
                checks = [
                    constraint.check(ctx) for constraint in self.problem.constraints
                ]
                feasible = self._feasible_from_checks(checks, matrix.shape[0])
                mask = feasible if mask is None else (mask & feasible)
            return mask
        ctx = self._matrix_context(matrix, components)
        checks = [constraint.check(ctx) for constraint in self.problem.constraints]
        return self._feasible_from_checks(checks, matrix.shape[0])

    def _lower(
        self,
        vectors: Sequence[Sequence[int]],
        components: Optional[Sequence[str]],
    ) -> Tuple[np.ndarray, List[str]]:
        """Validate a vector batch and permute it into the canonical column order.

        Shared by :meth:`evaluate_vectors` and :meth:`feasible_mask` so permuted
        component orders hit the same caches (result cache, batched cost memo) and
        fail with the same explicit error on a mismatched component set.
        """
        components = self._columns(components)
        matrix = np.asarray(vectors, dtype=np.int64)
        if matrix.size == 0:
            matrix = matrix.reshape(0, len(components))
        if matrix.ndim != 2 or matrix.shape[1] != len(components):
            raise ValueError("vectors must form a (plans, len(components)) matrix")
        if tuple(components) != self._canonical:
            if set(components) != set(self._canonical):
                raise ValueError(
                    "vector components do not match the evaluator's component set"
                )
            column_of = {c: i for i, c in enumerate(components)}
            matrix = matrix[:, [column_of[c] for c in self._canonical]]
            components = list(self._canonical)
        return matrix, components

    # -- convenience -----------------------------------------------------------------------
    def _columns(self, components: Optional[Sequence[str]]) -> List[str]:
        if components is not None:
            return list(components)
        if self._component_order is not None:
            return list(self._component_order)
        return self.cost.baseline_plan.components

    @property
    def api_weights(self) -> Dict[str, float]:
        return dict(self._weights)

    def cache_size(self) -> int:
        """Distinct plans in the active result cache (the bound robust cache, if any)."""
        return len(self._active_cache())

    def evaluated_qualities(self) -> List[PlanQuality]:
        """Every distinct plan evaluated through this evaluator, in evaluation order.

        When scenarios are bound, these are the robust qualities of the bound
        (scenario set, aggregator) — each carrying its per-scenario breakdown."""
        return list(self._active_cache().values())
