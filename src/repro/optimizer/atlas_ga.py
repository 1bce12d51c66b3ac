"""Atlas's DRL-based genetic algorithm (Section 4.2.1, Figure 5 steps 1-5).

The search loop is a multi-objective GA built on NSGA-II machinery (non-dominated
sorting, crowding distance, binary tournament, elitist survival), but offspring are
produced by the trained :class:`~repro.optimizer.drl.agent.CrossoverAgent` instead of a
random crossover operator.  The agent is trained with the reward of Eq. 5 on a dataset
of parent pairs drawn from randomly sampled plans; at convergence it reliably produces
feasible children that beat their parents in several quality aspects, which accelerates
the evolution under a fixed budget of visited plans (10,000 in the paper, 0.0019% of the
social network's search space).

**N-location encoding.**  Chromosomes are integer *location vectors* — gene ``i`` holds
the location id of component ``i`` — not 0/1 bit vectors.  Pass ``locations`` (e.g.
``(0, 1, 2)`` for on-prem + two cloud regions) to search a multi-location topology:
random initialization spreads components over all remote sites, mutation flips genes to
any other location, and the memetic neighbourhood relocates components/pairs/API paths
to every site.  The default ``(ON_PREM, CLOUD)`` reproduces the paper's two-location
search bit-for-bit (identical RNG consumption, identical trajectories).

**K objectives.**  The loop is objective-count agnostic: NSGA-II ranking, the Deb
penalty, the elite local search (one sweep per objective of the evaluator's
:class:`~repro.quality.problem.PlacementProblem`) and the Eq. 5 reward (which counts
improved aspects over *all* K objectives) follow the problem's dimensionality, so a
K=4 problem widens the Pareto search with zero changes here.  The default
three-objective problem reproduces the paper's search bit-for-bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.placement import MigrationPlan
from ..cluster.topology import CLOUD, ON_PREM
from ..quality.evaluator import PlanQuality, QualityEvaluator
from .drl.agent import CrossoverAgent, TrainingHistory
from .nsga2 import (
    allowed_repair_targets,
    apply_allowed_repair,
    bitflip_mutation,
    random_location_vector,
    rank_population,
    survival_selection,
    tournament_pairs,
    uniform_crossover,
)
from .pareto import distance_to_ideal, knee_index, pareto_front

__all__ = [
    "GAConfig",
    "SearchResult",
    "AtlasGA",
    "penalized_objectives",
    "affinity_seed_vectors",
]

#: Penalty added per violated constraint so infeasible plans rank behind feasible ones.
_INFEASIBILITY_PENALTY = 1e6


def affinity_seed_vectors(
    components: Sequence[str],
    pinned: Dict[str, int],
    pair_traffic: Dict[Tuple[str, str], float],
    is_feasible,
    rng: np.random.Generator,
    count: int = 4,
    noise: float = 0.15,
    locations: Sequence[int] = (ON_PREM, CLOUD),
    allowed_locations: Optional[Mapping[str, Sequence[int]]] = None,
) -> List[List[int]]:
    """Population seeds derived from the learned traffic matrix.

    Each seed starts from the all-on-prem placement and greedily offloads the movable
    component whose move yields the smallest cross-datacenter traffic (with a little
    noise so the seeds differ) until the plan satisfies the constraints.  Seeding the
    initial population this way puts the genetic search directly into the traffic-
    efficient basin; the API-centric objectives then refine within and beyond it.  The
    seeds are ordinary visited plans and count against the evaluation budget like any
    other candidate.

    ``is_feasible`` receives the candidate *location vector* (ordered like
    ``components``) — seeding stays in vector space like the rest of the search, and
    callers typically pass a thin wrapper over
    :meth:`~repro.quality.evaluator.QualityEvaluator.feasible_mask`.

    With N locations the greedy offload targets the *primary* remote site (the first
    non-on-prem id in ``locations``): the cut-traffic objective cannot distinguish
    remote sites from one another, so the seeds stay two-sided and the GA's own
    operators spread load across the remaining regions.  Components whose
    ``allowed_locations`` whitelist excludes the primary remote are never offloaded by
    the seeding (the GA's own operators may still place them at their permitted
    sites).
    """
    remote = [loc for loc in locations if loc != ON_PREM]
    if not remote:
        raise ValueError("locations must include at least one remote site")
    primary_remote = remote[0]
    allowed_locations = allowed_locations or {}

    def may_use_primary(component: str) -> bool:
        allowed = allowed_locations.get(component)
        return allowed is None or primary_remote in allowed

    movable = [
        c for c in components if c not in pinned and may_use_primary(c)
    ]
    member = set(components)
    # Per-component incident traffic (both directions, self-edges excluded): flipping c
    # changes the cut by the incident weight toward same-side neighbours minus the
    # incident weight toward cross-side ones, so candidate scoring is O(deg(c)) instead
    # of a full O(E) recomputation per candidate flip.
    incident: Dict[str, List[Tuple[str, float]]] = {c: [] for c in components}
    for (src, dst), bytes_ in pair_traffic.items():
        if src == dst or src not in member or dst not in member:
            continue
        incident[src].append((dst, bytes_))
        incident[dst].append((src, bytes_))
    seeds: List[List[int]] = []
    for _ in range(count):
        assignment = {c: pinned.get(c, ON_PREM) for c in components}

        def cut_traffic() -> float:
            return sum(
                bytes_
                for (src, dst), bytes_ in pair_traffic.items()
                if src in assignment and dst in assignment
                and assignment[src] != assignment[dst]
            )

        def flip_delta(c: str) -> float:
            # Cut change of toggling c between on-prem and the primary remote.  A
            # neighbour pinned to a *third* site stays cross-location on both sides of
            # the toggle, so it must contribute zero — comparing against the actual
            # target location (not "any other side") handles that.
            side = assignment[c]
            target = primary_remote if side == ON_PREM else ON_PREM
            delta = 0.0
            for neighbour, bytes_ in incident[c]:
                neighbour_side = assignment[neighbour]
                crosses_now = neighbour_side != side
                crosses_after = neighbour_side != target
                if crosses_after and not crosses_now:
                    delta += bytes_
                elif crosses_now and not crosses_after:
                    delta -= bytes_
            return delta

        def vector() -> List[int]:
            return [assignment[c] for c in components]

        current_cut = cut_traffic()
        guard = len(components) + 1
        while not is_feasible(vector()) and guard > 0:
            guard -= 1
            candidates = [c for c in movable if assignment[c] == ON_PREM]
            if not candidates:
                break
            scored = [
                ((current_cut + flip_delta(c)) * (1.0 + noise * rng.random()), c)
                for c in candidates
            ]
            _score, chosen = min(scored)
            current_cut += flip_delta(chosen)
            assignment[chosen] = primary_remote
        # Keep flipping single components while it reduces the cut and stays feasible, so
        # the seed sits at a local optimum of the traffic objective (the basin affinity
        # methods search); the GA then refines it under the API-centric objectives.
        for _ in range(2):
            improved = False
            for c in movable:
                delta = flip_delta(c)
                if delta >= 0.0:
                    continue
                flipped = primary_remote if assignment[c] == ON_PREM else ON_PREM
                original = assignment[c]
                assignment[c] = flipped
                if is_feasible(vector()):
                    current_cut += delta
                    improved = True
                else:
                    assignment[c] = original
            if not improved:
                break
        seeds.append(vector())
    return seeds


def _equation5(child: PlanQuality, parent_a: PlanQuality, parent_b: PlanQuality) -> float:
    """Eq. 5: the aspects in which the child beats both parents, negated if infeasible.

    An infeasible child that beats its parents nowhere still scores -1 (see the
    implementation note in ``drl/agent.py``).
    """
    improved = 0
    for child_value, a_value, b_value in zip(
        child.objectives(), parent_a.objectives(), parent_b.objectives()
    ):
        if min(a_value, b_value) > child_value:
            improved += 1
    if child.feasible:
        return float(improved)
    return -float(max(improved, 1))


def penalized_objectives(quality: PlanQuality) -> Tuple[float, ...]:
    """K-objective vector with constraint-violation penalties (Deb-style feasibility rule)."""
    if quality.feasible:
        return tuple(quality.objectives())
    penalty = _INFEASIBILITY_PENALTY * len(quality.violations)
    return tuple(value + penalty for value in quality.objectives())


@dataclass
class GAConfig:
    """Hyperparameters of the genetic search.

    ``immigrants_per_generation`` injects a few random plans every generation to
    preserve diversity, and ``local_search_period`` runs a single-flip improvement sweep
    on the per-objective elites every N generations (a memetic refinement; all plans it
    visits count against the evaluation budget).  Both are engineering additions on top
    of the paper's description that markedly improve convergence within the small
    evaluation budgets used in the benchmarks; they apply identically to the DRL and the
    uniform-crossover variants, so the Figure 21 ablation stays a like-for-like
    comparison of the crossover operator.
    """

    population_size: int = 100
    offspring_per_generation: int = 50
    evaluation_budget: int = 10_000
    max_generations: int = 400
    mutation_rate: float = 0.08
    immigrants_per_generation: int = 10
    local_search_period: int = 5
    train_iterations: int = 300
    train_batch_size: int = 4
    train_pairs: int = 64
    crossover: str = "drl"  # "drl" or "uniform" (the NSGA-II ablation of Figure 21)
    seed: int = 0
    #: Island-model parallelism: number of forked subpopulations (1 = the serial
    #: loop, byte-identical to the historical search), elite-migration period in
    #: generations, and how many elites each island sends around the ring.
    islands: int = 1
    migration_period: int = 10
    migration_elites: int = 2
    #: Anytime mode: stop once the feasible Pareto front has been *exactly* stable
    #: for this many consecutive generations (0 = off, run to budget).  Checking
    #: consumes no RNG, so ``patience=0`` is byte-identical to the historical
    #: search and any early exit truncates — never alters — the trajectory.
    patience: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.crossover not in ("drl", "uniform"):
            raise ValueError("crossover must be 'drl' or 'uniform'")
        if self.evaluation_budget <= self.population_size:
            raise ValueError("evaluation_budget must exceed the population size")
        if self.islands < 1:
            raise ValueError("islands must be >= 1")
        if self.migration_period < 1:
            raise ValueError("migration_period must be >= 1")
        if self.migration_elites < 1:
            raise ValueError("migration_elites must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


@dataclass
class SearchResult:
    """Outcome of one recommendation run.

    ``all_evaluated`` holds every *distinct* plan the evaluator scored during the run
    (including agent-training probes and local-search candidates — the full "plans
    visited" accounting of the paper); ``final_population`` is just the surviving
    population of the last generation.  ``objective_names`` labels the K columns of
    every objective vector (the problem's column order).
    """

    pareto: List[PlanQuality]
    generations: int
    evaluations: int
    training_history: Optional[TrainingHistory]
    wall_clock_s: float
    all_evaluated: List[PlanQuality] = field(default_factory=list)
    final_population: List[PlanQuality] = field(default_factory=list)
    objective_names: Tuple[str, ...] = ("qperf", "qavai", "qcost")
    #: Whether the anytime mode (``GAConfig.patience``) cut the run short because
    #: the front converged before the budget/generation limits were reached.  On
    #: island runs: whether any island exited early.
    early_stopped: bool = False

    # -- plan selection shortcuts (Figures 12-14) ------------------------------------------
    def _best(self, index: int) -> PlanQuality:
        if not self.pareto:
            raise ValueError("no feasible plan was found")
        return min(self.pareto, key=lambda q: q.objectives()[index])

    def best_for(self, objective: str) -> PlanQuality:
        """The front's best plan along one named objective (any of ``objective_names``)."""
        try:
            index = self.objective_names.index(objective)
        except ValueError:
            raise KeyError(
                f"no objective named {objective!r} in {self.objective_names}"
            ) from None
        return self._best(index)

    def performance_optimized(self) -> PlanQuality:
        return self._best(0)

    def availability_optimized(self) -> PlanQuality:
        return self._best(1)

    def cost_optimized(self) -> PlanQuality:
        return self._best(2)

    def front_points(self) -> List[Tuple[float, ...]]:
        """The K-dimensional objective vectors of the Pareto front."""
        return [tuple(q.objectives()) for q in self.pareto]

    def knee_point(self) -> PlanQuality:
        """The front's balanced compromise: minimum distance-to-ideal on the
        normalized front (see :func:`~repro.optimizer.pareto.knee_index`)."""
        if not self.pareto:
            raise ValueError("no feasible plan was found")
        return self.pareto[knee_index(self.front_points())]

    def knee_ordered(self) -> List[PlanQuality]:
        """The front ordered by distance-to-ideal (knee first, stable on ties)."""
        if not self.pareto:
            return []
        distances = distance_to_ideal(self.front_points())
        order = np.argsort(distances, kind="stable")
        return [self.pareto[int(i)] for i in order]


class AtlasGA:
    """DRL-based genetic algorithm over migration plans.

    ``locations`` is the set of location ids the search may place components at; the
    default is the paper's two-location topology.  Multi-location searches use the same
    loop — only the sampling/mutation/neighbourhood operators widen to the extra sites.
    """

    def __init__(
        self,
        evaluator: QualityEvaluator,
        components: Sequence[str],
        config: Optional[GAConfig] = None,
        seed_vectors: Optional[Sequence[Sequence[int]]] = None,
        locations: Optional[Sequence[int]] = None,
        islands: Optional[int] = None,
    ) -> None:
        self.evaluator = evaluator
        self.components = list(components)
        self.config = config or GAConfig()
        #: Island-model parallelism (``islands`` overrides the config knob): W > 1
        #: shards the search into W forked subpopulations over shared memory (see
        #: ``optimizer/parallel.py``); W = 1 is the serial loop, byte-identical to
        #: the historical search.
        self.islands = int(islands) if islands is not None else int(self.config.islands)
        if self.islands < 1:
            raise ValueError("islands must be >= 1")
        #: Set by the island worker: this island's end of the migration ring.
        self._migration = None
        self.locations: Tuple[int, ...] = (
            tuple(int(loc) for loc in locations)
            if locations is not None
            else (ON_PREM, CLOUD)
        )
        if len(set(self.locations)) != len(self.locations) or len(self.locations) < 2:
            raise ValueError("locations must be at least two distinct ids")
        if ON_PREM not in self.locations:
            raise ValueError("locations must include the on-prem site (0)")
        self._remote_locations: Tuple[int, ...] = tuple(
            loc for loc in self.locations if loc != ON_PREM
        )
        #: The paper's two-location fast path: keeps RNG consumption (and therefore
        #: fixed-seed trajectories) bit-for-bit identical to the original bit-vector GA.
        self._binary = self.locations == (ON_PREM, CLOUD)
        self._rng = np.random.default_rng(self.config.seed)
        pins = evaluator.preferences.pinned_placement
        self._pinned_indices: Dict[int, int] = {
            self.components.index(c): loc for c, loc in pins.items() if c in self.components
        }
        if not self._binary:
            invalid = sorted(
                c
                for c, loc in pins.items()
                if c in self.components and loc not in self.locations
            )
            if invalid:
                raise ValueError(
                    f"components {invalid} are pinned to locations outside the search "
                    f"space {self.locations}"
                )
        # Per-gene allowed-location sets (the owner's whitelists restricted to the
        # search space) plus the shared deterministic repair map.
        self._allowed_indices: Dict[int, Tuple[int, ...]] = {}
        for component, allowed in evaluator.preferences.allowed_locations.items():
            if component not in self.components:
                continue
            index = self.components.index(component)
            if index in self._pinned_indices:
                continue
            self._allowed_indices[index] = tuple(
                loc for loc in self.locations if loc in allowed
            )
        self._allowed_repair = allowed_repair_targets(
            self._allowed_indices, self.locations, on_prem=ON_PREM
        )
        self.seed_vectors = [self._apply_constraints(list(v)) for v in (seed_vectors or [])]
        self.agent: Optional[CrossoverAgent] = None

    # -- plan helpers ---------------------------------------------------------------------
    def _apply_constraints(self, vector: List[int]) -> List[int]:
        """Force pinned genes to their location and repair whitelist violations.

        The repair is deterministic (no RNG): a gene drawn at a disallowed site moves
        to the component's first permitted remote site, keeping the offload intent,
        or back on-prem when no remote site is permitted.  With no whitelists this
        reduces to the historical pin application, so fixed-seed trajectories are
        unchanged.
        """
        for index, location in self._pinned_indices.items():
            vector[index] = location
        apply_allowed_repair(vector, self._allowed_repair, on_prem=ON_PREM)
        return vector

    def _gene_permits(self, index: int, target: int) -> bool:
        """Whether the component's whitelist allows the target location.

        Keeps the elite local search from spending evaluation budget on moves that
        the location-violation mask is guaranteed to reject.
        """
        if target == ON_PREM:
            return True
        permitted = self._allowed_indices.get(index)
        return permitted is None or target in permitted

    def _random_vector(self) -> List[int]:
        # Spread the initial population across offload ratios: when the on-prem cluster
        # is far over capacity only high-offload plans are feasible, while low-offload
        # plans matter when it is not.  Offloaded genes pick a remote site uniformly.
        offload_prob = self._rng.uniform(0.1, 0.95)
        if self._binary:
            vector = (self._rng.random(len(self.components)) < offload_prob).astype(int)
            return self._apply_constraints([int(v) for v in vector])
        vector = random_location_vector(
            self._rng, len(self.components), offload_prob, self.locations
        )
        return self._apply_constraints(vector)

    def _to_plan(self, vector: Sequence[int]) -> MigrationPlan:
        return MigrationPlan.from_vector(self.components, list(vector))

    # -- reward (Eq. 5) ----------------------------------------------------------------------
    def rewards(
        self,
        children: Sequence[Sequence[int]],
        parents_a: Sequence[Sequence[int]],
        parents_b: Sequence[Sequence[int]],
    ) -> List[float]:
        """Eq. 5 reward of each child against its two parents, in one evaluator call.

        The rows go to ``evaluate_vectors`` interleaved as ``[c1, a1, b1, c2, ...]``,
        the order in which scoring them one sample at a time would first see them, so
        the evaluator's cache order and ``evaluations`` counter are the same either way.
        """
        if not len(children) == len(parents_a) == len(parents_b):
            raise ValueError("children and parents must be aligned row for row")
        rows: List[List[int]] = []
        for child, parent_a, parent_b in zip(children, parents_a, parents_b):
            rows.extend((list(child), list(parent_a), list(parent_b)))
        qualities = self.evaluator.evaluate_vectors(rows, self.components)
        return [
            _equation5(*qualities[i : i + 3]) for i in range(0, len(qualities), 3)
        ]

    # -- agent training ------------------------------------------------------------------------
    def train_agent(self) -> TrainingHistory:
        """Train the crossover agent on random parent pairs (application-learning phase)."""
        agent = CrossoverAgent(
            n_components=len(self.components),
            pinned=self._pinned_indices,
            seed=self.config.seed,
            locations=self.locations,
            allowed=self._allowed_indices,
        )
        pairs = [
            (self._random_vector(), self._random_vector())
            for _ in range(self.config.train_pairs)
        ]
        history = agent.train(
            pairs,
            self.rewards,
            iterations=self.config.train_iterations,
            batch_size=self.config.train_batch_size,
        )
        self.agent = agent
        return history

    # -- memetic refinement -----------------------------------------------------------------------
    def _move_candidates(self, vector: Sequence[int]) -> List[List[int]]:
        """Neighbourhood of one plan: single moves plus joint moves of communicating pairs.

        The pair moves are workflow-aware: relocating a caller together with its callee
        keeps their interaction local, which single moves cannot express (e.g. moving a
        cache back on-prem together with the service that reads it synchronously).
        Every move targets each of the search's locations in turn, so on a 3-site
        topology a single gene yields two candidates (the two other sites) and a pair
        or API path can be consolidated onto any one site.
        """
        moves: List[List[int]] = []
        n = len(vector)
        for gene in range(n):
            if gene in self._pinned_indices:
                continue
            for target in self.locations:
                if vector[gene] == target or not self._gene_permits(gene, target):
                    continue
                candidate = list(vector)
                candidate[gene] = target
                moves.append(candidate)
        index = {name: i for i, name in enumerate(self.components)}
        for caller, callee in self.evaluator.performance.invocation_edges():
            i, j = index.get(caller), index.get(callee)
            if i is None or j is None:
                continue
            if i in self._pinned_indices or j in self._pinned_indices:
                continue
            for target in self.locations:
                if vector[i] == target and vector[j] == target:
                    continue
                if not (self._gene_permits(i, target) and self._gene_permits(j, target)):
                    continue
                candidate = list(vector)
                candidate[i] = target
                candidate[j] = target
                moves.append(candidate)
        # API-path moves: relocate every (movable) component one API touches to the same
        # site.  This is the API-centric counterpart of the pair moves above — e.g. keep
        # the whole media path on-prem so /getMedia never crosses datacenters.
        for members in self.evaluator.performance.api_components().values():
            indices = [
                index[name]
                for name in members
                if name in index and index[name] not in self._pinned_indices
            ]
            if not indices:
                continue
            for target in self.locations:
                if all(vector[i] == target for i in indices):
                    continue
                if not all(self._gene_permits(i, target) for i in indices):
                    continue
                candidate = list(vector)
                for i in indices:
                    candidate[i] = target
                moves.append(candidate)
        return moves

    def _elite_local_search(
        self, population: Sequence[Sequence[int]], qualities: Sequence[PlanQuality]
    ) -> List[List[int]]:
        """One improvement sweep on the best feasible plan per objective.

        Every candidate move goes through the (cached, budget-counted) evaluator, so the
        refinement respects the "plans visited" accounting of the paper's comparison.
        """
        improved: List[List[int]] = []
        feasible = [
            (vector, quality)
            for vector, quality in zip(population, qualities)
            if quality.feasible
        ]
        if not feasible:
            return improved
        for objective_index in range(self.evaluator.problem.K):
            vector, quality = min(feasible, key=lambda vq: vq[1].objectives()[objective_index])
            best_vector = list(vector)
            best_value = quality.objectives()[objective_index]
            # Batch-evaluate the neighbourhood in chunks bounded by the remaining
            # budget: each uncached plan costs exactly one evaluation, so a chunk of
            # `remaining` candidates can never overshoot, and cache hits let the next
            # chunk pick up the leftovers — the same candidates are visited as the
            # sequential check-then-evaluate loop.
            moves = self._move_candidates(vector)
            position = 0
            while position < len(moves):
                remaining = self.config.evaluation_budget - self.evaluator.evaluations
                if remaining <= 0:
                    break
                chunk = moves[position : position + remaining]
                position += len(chunk)
                qualities_chunk = self.evaluator.evaluate_vectors(chunk, self.components)
                for candidate, candidate_quality in zip(chunk, qualities_chunk):
                    if (
                        candidate_quality.feasible
                        and candidate_quality.objectives()[objective_index] < best_value
                    ):
                        best_vector = candidate
                        best_value = candidate_quality.objectives()[objective_index]
            if best_vector != list(vector):
                improved.append(best_vector)
        return improved

    # -- main loop -------------------------------------------------------------------------------
    def run(self) -> SearchResult:
        """Run the search: the serial loop, or W forked islands when ``islands > 1``.

        The parallel path shards the population into ``islands`` subpopulations in
        worker processes scoring against shared-memory compiled state, with periodic
        elite migration on a fixed ring and a K-dim non-dominated merge of the
        per-island fronts (see ``optimizer/parallel.py`` for the execution model and
        the determinism contract).  ``islands=1`` is the unmodified serial path.
        """
        if self.islands > 1:
            from .parallel import run_island_search

            return run_island_search(self)
        return self._run_serial()

    def _run_serial(self) -> SearchResult:
        start = time.perf_counter()
        # Plans cached on the evaluator before this run started (e.g. by a previous
        # run() on a shared evaluator) are not part of this run's "plans visited".
        preexisting = self.evaluator.cache_size()
        history: Optional[TrainingHistory] = None
        if self.config.crossover == "drl":
            history = self.train_agent()

        population: List[List[int]] = [list(v) for v in self.seed_vectors]
        population += [
            self._random_vector()
            for _ in range(max(self.config.population_size - len(population), 0))
        ]
        qualities: List[PlanQuality] = self.evaluator.evaluate_vectors(
            population, self.components
        )
        generations = 0
        early_stopped = False
        front_signal: Optional[Tuple] = None
        stall = 0
        while (
            self.evaluator.evaluations < self.config.evaluation_budget
            and generations < self.config.max_generations
        ):
            generations += 1
            objectives = [penalized_objectives(q) for q in qualities]
            ranked = rank_population(objectives)
            pairs = tournament_pairs(ranked, self.config.offspring_per_generation, self._rng)
            offspring: List[List[int]] = []
            for idx_a, idx_b in pairs:
                parent_a, parent_b = population[idx_a], population[idx_b]
                if self.config.crossover == "drl" and self.agent is not None:
                    child = self.agent.crossover(parent_a, parent_b, self._rng)
                else:
                    child = uniform_crossover(parent_a, parent_b, self._rng)
                child = bitflip_mutation(
                    child, self._rng, self.config.mutation_rate, locations=self.locations
                )
                offspring.append(self._apply_constraints(child))
            for _ in range(self.config.immigrants_per_generation):
                offspring.append(self._random_vector())
            if self._migration is not None:
                # Elites received from the ring neighbour last epoch compete as
                # extra offspring (deterministic, no RNG consumed; never taken in
                # the serial path, so fixed-seed trajectories are untouched).
                for migrant in self._migration.take_migrants():
                    offspring.append(self._apply_constraints(list(migrant)))
            if (
                self.config.local_search_period > 0
                and generations % self.config.local_search_period == 0
            ):
                offspring.extend(self._elite_local_search(population, qualities))
            offspring_quality = self.evaluator.evaluate_vectors(
                offspring, self.components
            )

            combined = population + offspring
            combined_quality = qualities + offspring_quality
            combined_objectives = [penalized_objectives(q) for q in combined_quality]
            survivors = survival_selection(combined_objectives, self.config.population_size)
            population = [combined[i] for i in survivors]
            qualities = [combined_quality[i] for i in survivors]
            if self._migration is not None:
                self._migration.after_generation(generations, population, qualities)
            if self.config.patience > 0:
                # Anytime mode: the convergence signal is the exact multiset of
                # feasible-front objective vectors (repr keeps full float
                # precision, so any knee/hypervolume movement changes it).  The
                # check consumes no RNG — trajectories up to the exit generation
                # stay byte-identical to a patience-less run.
                front = pareto_front(
                    [q for q in qualities if q.feasible], key=lambda q: q.objectives()
                )
                signal = tuple(sorted(repr(tuple(q.objectives())) for q in front))
                if front and signal == front_signal:
                    stall += 1
                    if stall >= self.config.patience:
                        early_stopped = True
                        break
                else:
                    stall = 0
                front_signal = signal

        if self._migration is not None:
            # Keep answering the remaining migration epochs (the schedule is fixed
            # fleet-wide) so slower islands never block on this one's barriers.
            self._migration.drain(population, qualities)
        feasible = [q for q in qualities if q.feasible]
        front = pareto_front(feasible, key=lambda q: q.objectives())
        front.sort(key=lambda q: q.objectives())
        return SearchResult(
            pareto=front,
            generations=generations,
            evaluations=self.evaluator.evaluations,
            training_history=history,
            wall_clock_s=time.perf_counter() - start,
            all_evaluated=self.evaluator.evaluated_qualities()[preexisting:],
            final_population=qualities,
            objective_names=self.evaluator.problem.objective_names,
            early_stopped=early_stopped,
        )
