"""Tests for the plan search: Pareto tools, NSGA-II machinery, DRL agent, Atlas GA, baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from dataclasses import replace

from drl_oracles import agent_snapshot, one_row_at_a_time, oracle_train, per_sample_train
from fingerprints import GOLDEN_GA, build_tiny_evaluator
from pareto_oracles import (
    oracle_merge_fronts,
    oracle_non_dominated_sort,
    oracle_pareto_front,
)

from repro.cluster import CLOUD, ON_PREM, MigrationPlan
from repro.optimizer import (
    AdamOptimizer,
    CrossoverAgent,
    GAConfig,
    MLP,
    bitflip_mutation,
    crowding_distance,
    dominates,
    hypervolume_2d,
    merge_fronts,
    non_dominated_sort,
    pareto_front,
    rank_population,
    survival_selection,
    tournament_pairs,
    uniform_crossover,
)
from repro.optimizer import AtlasGA
from repro.optimizer.atlas_ga import (
    _INFEASIBILITY_PENALTY,
    affinity_seed_vectors,
    penalized_objectives,
)
from repro.quality import MigrationPreferences
from repro.quality.evaluator import PlanQuality


class TestParetoTools:
    def test_dominates_basic(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (1, 3))
        assert not dominates((1, 3), (2, 1))
        assert not dominates((1, 1), (1, 1))

    def test_dominates_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1,), (1, 2))

    def test_pareto_front_filters_dominated(self):
        points = [(1, 5), (2, 2), (5, 1), (3, 3), (6, 6)]
        front = pareto_front(points, key=lambda p: p)
        assert set(front) == {(1, 5), (2, 2), (5, 1)}

    def test_pareto_front_deduplicates(self):
        points = [(1, 1), (1, 1), (2, 2)]
        assert pareto_front(points, key=lambda p: p) == [(1, 1)]

    def test_non_dominated_sort_layers(self):
        objectives = [(1, 1), (2, 2), (3, 3), (1, 3), (3, 1)]
        fronts = non_dominated_sort(objectives)
        assert 0 in fronts[0]
        assert set(fronts[0]) == {0}
        assert all(i in fronts[1] for i in (1, 3, 4))

    def test_crowding_distance_boundaries_infinite(self):
        objectives = [(0.0, 3.0), (1.0, 2.0), (2.0, 1.0), (3.0, 0.0)]
        distances = crowding_distance(objectives)
        assert distances[0] == float("inf")
        assert distances[3] == float("inf")
        assert all(d > 0 for d in distances)

    def test_crowding_distance_small_fronts(self):
        assert crowding_distance([(1, 1)]) == [float("inf")]
        assert crowding_distance([]) == []

    def test_hypervolume_monotone_in_front_quality(self):
        reference = (10.0, 10.0)
        weak = [(8.0, 8.0)]
        strong = [(2.0, 8.0), (8.0, 2.0), (4.0, 4.0)]
        assert hypervolume_2d(strong, reference) > hypervolume_2d(weak, reference)
        assert hypervolume_2d([], reference) == 0.0


#: Objective values: tie-heavy integer grids, or finite floats.
_OBJECTIVE_VALUES = (
    st.integers(0, 1).map(float),
    st.integers(0, 4).map(float),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _objective_rows(draw, max_rows=130):
    """0..max_rows K-vectors (K in 1..4) with exact duplicates, some rows offset by
    the GA's infeasibility penalty times 1 or 2 violations."""
    width = draw(st.integers(1, 4))
    values = draw(st.sampled_from(_OBJECTIVE_VALUES))
    distinct = draw(st.lists(st.tuples(*[values] * width), min_size=1, max_size=40))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=max_rows))
    violations = draw(
        st.lists(st.sampled_from((0, 0, 0, 1, 2)), min_size=len(picks), max_size=len(picks))
    )
    return [
        tuple(v + _INFEASIBILITY_PENALTY * count for v in distinct[pick])
        for pick, count in zip(picks, violations)
    ]


@st.composite
def _partitioned_items(draw):
    """Distinct item objects over :func:`_objective_rows`, split into 0..4 fronts."""
    items = [{"obj": row} for row in draw(_objective_rows())]
    cuts = sorted(draw(st.lists(st.integers(0, len(items)), max_size=3)))
    bounds = [0, *cuts, len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _same_items(left, right):
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


class TestDominanceKernelMatchesOracle:
    """The numpy kernel against the pairwise loops it replaced (tests/pareto_oracles.py)."""

    @settings(max_examples=150, deadline=None)
    @given(rows=_objective_rows())
    def test_sort_same_fronts_same_order(self, rows):
        assert non_dominated_sort(rows) == oracle_non_dominated_sort(rows)

    @settings(max_examples=150, deadline=None)
    @given(rows=_objective_rows())
    def test_pareto_front_same_items_same_order(self, rows):
        items = [{"obj": row} for row in rows]
        key = lambda item: item["obj"]  # noqa: E731
        assert _same_items(pareto_front(items, key), oracle_pareto_front(items, key))

    @settings(max_examples=150, deadline=None)
    @given(fronts=_partitioned_items())
    def test_merge_fronts_same_items_same_order(self, fronts):
        key = lambda item: item["obj"]  # noqa: E731
        assert _same_items(merge_fronts(fronts, key), oracle_merge_fronts(fronts, key))

    def test_sort_discovery_order_follows_last_dominator(self):
        # Front 0 is [0, 1]; 3 is released by 0 (position 0), 2 only once 1
        # (position 1) is processed, so 3 precedes 2 despite its larger index.
        objectives = [(0.0, 2.0), (2.0, 0.0), (3.0, 1.0), (1.0, 3.0)]
        assert non_dominated_sort(objectives) == [[0, 1], [3, 2]]
        assert non_dominated_sort(objectives) == oracle_non_dominated_sort(objectives)


class TestDominanceKernelContract:
    RAGGED = [(1.0, 2.0), (2.0, 1.0, 0.0)]

    def test_ragged_objectives_raise(self):
        with pytest.raises(ValueError):
            non_dominated_sort(self.RAGGED)
        with pytest.raises(ValueError):
            pareto_front(self.RAGGED, key=lambda p: p)
        with pytest.raises(ValueError):
            merge_fronts([self.RAGGED[:1], self.RAGGED[1:]], key=lambda p: p)

    def test_empty_input(self):
        assert non_dominated_sort([]) == []
        assert pareto_front([], key=lambda p: p) == []
        assert merge_fronts([], key=lambda p: p) == []
        assert merge_fronts([[], []], key=lambda p: p) == []

    def test_single_objective_is_a_total_order_with_ties_in_index_order(self):
        values = [(3.0,), (1.0,), (3.0,), (2.0,), (1.0,)]
        assert non_dominated_sort(values) == [[1, 4], [3], [0, 2]]
        assert pareto_front(list(range(5)), key=lambda i: values[i]) == [1]


class TestNSGA2Machinery:
    def test_rank_population_assigns_ranks(self):
        objectives = [(1, 1), (2, 2), (1, 3), (3, 1)]
        ranked = rank_population(objectives)
        by_index = {r.index: r for r in ranked}
        assert by_index[0].rank == 0
        assert by_index[1].rank == 1

    def test_crowded_comparison(self):
        objectives = [(1, 1), (2, 2)]
        ranked = rank_population(objectives)
        better = next(r for r in ranked if r.index == 0)
        worse = next(r for r in ranked if r.index == 1)
        assert better.beats(worse)

    def test_tournament_pairs_prefer_distinct_parents(self):
        rng = np.random.default_rng(0)
        ranked = rank_population([(1, 1), (2, 2), (3, 3), (4, 4)])
        pairs = tournament_pairs(ranked, 10, rng)
        assert len(pairs) == 10
        assert any(a != b for a, b in pairs)

    def test_survival_selection_is_elitist(self):
        objectives = [(1, 1), (5, 5), (2, 2), (4, 4), (3, 3)]
        survivors = survival_selection(objectives, 2)
        assert 0 in survivors and len(survivors) == 2

    def test_survival_selection_uses_crowding_within_front(self):
        # One big front; selection should keep the extremes.
        objectives = [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
        survivors = survival_selection(objectives, 3)
        assert 0 in survivors and 4 in survivors

    def test_uniform_crossover_genes_come_from_parents(self):
        rng = np.random.default_rng(1)
        child = uniform_crossover([0] * 10, [1] * 10, rng)
        assert all(g in (0, 1) for g in child)
        assert len(child) == 10

    def test_uniform_crossover_length_mismatch(self):
        with pytest.raises(ValueError):
            uniform_crossover([0], [0, 1], np.random.default_rng(0))

    def test_bitflip_mutation_rate_extremes(self):
        rng = np.random.default_rng(2)
        assert bitflip_mutation([0, 1, 0], rng, rate=0.0) == [0, 1, 0]
        flipped = bitflip_mutation([0, 0, 0, 0], rng, rate=1.0)
        assert flipped == [1, 1, 1, 1]
        with pytest.raises(ValueError):
            bitflip_mutation([0], rng, rate=2.0)


class TestMLPAndAdam:
    def test_forward_shapes(self):
        net = MLP(4, [8], 3, head="sigmoid", seed=0)
        out = net(np.zeros(4))
        assert out.shape == (1, 3)
        assert np.all((out >= 0) & (out <= 1))

    def test_linear_head_unbounded(self):
        net = MLP(2, [4], 1, head="linear", seed=0)
        out = net(np.array([10.0, -10.0]))
        assert out.shape == (1, 1)

    def test_invalid_head_rejected(self):
        with pytest.raises(ValueError):
            MLP(2, [4], 1, head="tanh")

    def test_training_reduces_regression_loss(self):
        rng = np.random.default_rng(0)
        net = MLP(3, [16, 16], 1, head="linear", seed=1)
        opt = AdamOptimizer(learning_rate=1e-2)
        inputs = rng.normal(size=(64, 3))
        targets = (inputs.sum(axis=1, keepdims=True)) * 0.5

        def loss():
            pred, _ = net.forward(inputs)
            return float(np.mean((pred - targets) ** 2))

        before = loss()
        for _ in range(200):
            pred, cache = net.forward(inputs, keep_cache=True)
            grad = 2.0 * (pred - targets) / len(inputs)
            grads = net.backward(cache, grad)
            net.apply_gradients(grads, opt)
        assert loss() < before * 0.2


class TestCrossoverAgent:
    def test_child_respects_pins(self):
        agent = CrossoverAgent(n_components=6, hidden_dims=(16,), pinned={0: ON_PREM, 5: CLOUD}, seed=0)
        rng = np.random.default_rng(0)
        child = agent.crossover([0] * 6, [1] * 6, rng)
        assert child[0] == ON_PREM and child[5] == CLOUD
        assert len(child) == 6

    def test_probabilities_shape_and_range(self):
        agent = CrossoverAgent(n_components=5, hidden_dims=(8,), seed=1)
        probs = agent.child_probabilities([0] * 5, [1] * 5)
        assert probs.shape == (5,)
        assert np.all((probs > 0) & (probs < 1))

    def test_parent_length_validation(self):
        agent = CrossoverAgent(n_components=4, hidden_dims=(8,), seed=1)
        with pytest.raises(ValueError):
            agent.state([0, 1], [0, 1, 0, 1])

    def test_training_learns_simple_reward(self):
        """Reward favours offloading everything: the agent should learn to emit ones."""
        agent = CrossoverAgent(n_components=6, hidden_dims=(16, 16), learning_rate=5e-3, seed=2)
        pairs = [([0] * 6, [1] * 6), ([1] * 6, [0] * 6)]

        def reward(children, _pa, _pb):
            return [float(sum(child)) - 3.0 for child in children]

        history = agent.train(pairs, reward, iterations=150, batch_size=4)
        assert len(history.mean_rewards) == 150
        early = np.mean(history.mean_rewards[:20])
        late = np.mean(history.mean_rewards[-20:])
        assert late > early
        probs = agent.child_probabilities([0] * 6, [1] * 6)
        assert probs.mean() > 0.6

    def test_smoothed_rewards_length(self):
        agent = CrossoverAgent(n_components=3, hidden_dims=(8,), seed=3)
        history = agent.train(
            [([0, 0, 0], [1, 1, 1])], lambda c, a, b: [1.0] * len(c), iterations=10, batch_size=1
        )
        assert len(history.smoothed_rewards()) == 10


def _logging_reward(log):
    """A batched reward that reads every gene, goes both signs and logs its rows."""

    def reward(children, parents_a, parents_b):
        out = []
        for child, parent_a, parent_b in zip(children, parents_a, parents_b):
            log.append((tuple(child), tuple(parent_a), tuple(parent_b)))
            score = sum((i + 1) * v for i, v in enumerate(child)) - sum(parent_a)
            out.append(float(score % 7) - 3.0 + 0.25 * sum(parent_b))
        return out

    return reward


#: (locations, pins, whitelists) of the agents held to the per-sample oracle.
_ORACLE_AGENTS = {
    "binary": ((0, 1), {}, {}),
    "binary-pins-whitelists": ((0, 1), {2: ON_PREM, 5: CLOUD}, {3: (ON_PREM,)}),
    "3-location": ((0, 1, 2), {}, {}),
    "3-location-pins-whitelists": ((0, 1, 2), {2: ON_PREM, 5: 2}, {3: (2,), 1: (1,)}),
}


class TestMinibatchTrainingMatchesOracle:
    """Batched ``train`` is the per-sample loop of ``drl_oracles``, bit for bit."""

    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    @pytest.mark.parametrize("agent_kind", sorted(_ORACLE_AGENTS))
    def test_agent_state_and_scored_rows_match(self, agent_kind, batch_size):
        locations, pinned, allowed = _ORACLE_AGENTS[agent_kind]
        pairs_rng = np.random.default_rng(17)
        pairs = [
            tuple([int(v) for v in pairs_rng.choice(locations, size=6)] for _ in range(2))
            for _ in range(5)
        ]

        def make_agent():
            return CrossoverAgent(
                n_components=6, hidden_dims=(16, 8), seed=4, locations=locations,
                pinned=pinned, allowed=allowed,
            )

        batched, batched_rows = make_agent(), []
        batched.train(pairs, _logging_reward(batched_rows), iterations=12, batch_size=batch_size)
        oracle, oracle_rows = make_agent(), []
        oracle_train(
            oracle, pairs, one_row_at_a_time(_logging_reward(oracle_rows)),
            iterations=12, batch_size=batch_size,
        )
        assert agent_snapshot(batched) == agent_snapshot(oracle)
        assert batched_rows == oracle_rows
        assert len(batched_rows) == 12 * batch_size
        assert all(
            child[index] == loc for child, _, _ in batched_rows for index, loc in pinned.items()
        )

    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    @pytest.mark.parametrize("whitelisted", [False, True])
    def test_atlas_ga_training_matches_oracle(
        self, tiny_telemetry, monkeypatch, batch_size, whitelisted
    ):
        app, result = tiny_telemetry
        preferences = (
            MigrationPreferences(
                pinned_placement={"Database": ON_PREM, "Notifier": CLOUD},
                allowed_locations={"Cache": ()},
            )
            if whitelisted
            else None
        )
        config = replace(GOLDEN_GA, train_batch_size=batch_size)

        def train():
            evaluator = build_tiny_evaluator(app, result.telemetry, preferences=preferences)
            ga = AtlasGA(evaluator, app.component_names, config=config)
            ga.train_agent()
            return ga, evaluator

        batched_ga, batched_eval = train()
        monkeypatch.setattr(CrossoverAgent, "train", per_sample_train)
        oracle_ga, oracle_eval = train()
        assert agent_snapshot(batched_ga.agent) == agent_snapshot(oracle_ga.agent)
        assert [
            (q.plan.to_vector(), q.objectives(), q.feasible)
            for q in batched_eval.evaluated_qualities()
        ] == [
            (q.plan.to_vector(), q.objectives(), q.feasible)
            for q in oracle_eval.evaluated_qualities()
        ]
        assert batched_eval.evaluations == oracle_eval.evaluations

    def test_training_makes_one_evaluator_call_per_iteration(self, tiny_telemetry):
        app, result = tiny_telemetry
        evaluator = build_tiny_evaluator(app, result.telemetry)
        config = replace(GOLDEN_GA, train_batch_size=4)
        calls = []
        score = evaluator.evaluate_vectors

        def counted(vectors, components=None, **kwargs):
            calls.append(len(vectors))
            return score(vectors, components, **kwargs)

        evaluator.evaluate_vectors = counted
        AtlasGA(evaluator, app.component_names, config=config).train_agent()
        assert 0 < len(calls) <= config.train_iterations
        assert sum(calls) == 3 * config.train_iterations * config.train_batch_size

    def test_reward_count_mismatch_raises(self):
        agent = CrossoverAgent(n_components=3, hidden_dims=(8,), seed=3)
        with pytest.raises(ValueError, match="rewards"):
            agent.train(
                [([0, 0, 0], [1, 1, 1])], lambda c, a, b: [1.0], iterations=1, batch_size=2
            )


class TestBatchedRewards:
    """``AtlasGA.rewards`` over a batch equals one-row calls, evaluator state included."""

    def test_batch_equals_per_row_calls(self, tiny_telemetry):
        app, result = tiny_telemetry
        n = len(app.component_names)
        on_prem, cloud = [ON_PREM] * n, [CLOUD] * n
        mixed = [ON_PREM, CLOUD] * (n // 2)
        flipped = [CLOUD, ON_PREM] * (n // 2)
        # Row 1 repeats row 0's child; row 2's child is row 3's parent.
        children = [mixed, mixed, flipped, on_prem]
        parents_a = [on_prem, cloud, cloud, flipped]
        parents_b = [cloud, on_prem, on_prem, mixed]

        def make_ga():
            evaluator = build_tiny_evaluator(app, result.telemetry)
            return AtlasGA(evaluator, app.component_names, config=GOLDEN_GA), evaluator

        batched_ga, batched_eval = make_ga()
        batched = batched_ga.rewards(children, parents_a, parents_b)
        row_ga, row_eval = make_ga()
        per_row = [
            one_row_at_a_time(row_ga.rewards)(c, a, b)
            for c, a, b in zip(children, parents_a, parents_b)
        ]
        assert batched == per_row
        assert all(isinstance(r, float) for r in batched)
        assert [q.plan.to_vector() for q in batched_eval.evaluated_qualities()] == [
            q.plan.to_vector() for q in row_eval.evaluated_qualities()
        ]
        assert batched_eval.evaluations == row_eval.evaluations == 4

    def test_misaligned_rows_raise(self, tiny_telemetry):
        app, result = tiny_telemetry
        ga = AtlasGA(
            build_tiny_evaluator(app, result.telemetry), app.component_names, config=GOLDEN_GA
        )
        vector = [ON_PREM] * len(app.component_names)
        with pytest.raises(ValueError, match="aligned"):
            ga.rewards([vector, vector], [vector], [vector])


def _quality(vector, perf, avail, cost, feasible=True):
    plan = MigrationPlan.from_vector([f"c{i}" for i in range(len(vector))], vector)
    return PlanQuality(plan=plan, perf=perf, avail=avail, cost=cost, feasible=feasible,
                       violations=() if feasible else ("v",))


class TestPlanQualityDominates:
    def test_mismatched_objective_lengths_raise(self):
        plan = MigrationPlan.from_vector(["c0"], [0])
        two = PlanQuality(plan, 1.0, 1.0, 1.0, True, values=(1.0, 1.0))
        three = PlanQuality(plan, 2.0, 2.0, 0.0, True, values=(2.0, 2.0, 0.0))
        # A prefix comparison would claim (1, 1) dominates (2, 2, 0).
        with pytest.raises(ValueError):
            two.dominates(three)
        with pytest.raises(ValueError):
            three.dominates(two)


class TestAtlasGAHelpers:
    def test_penalized_objectives(self):
        ok = _quality([0, 1], 1.0, 2.0, 3.0, feasible=True)
        bad = _quality([1, 0], 1.0, 2.0, 3.0, feasible=False)
        assert penalized_objectives(ok) == (1.0, 2.0, 3.0)
        assert all(v > 1e5 for v in penalized_objectives(bad))

    def test_affinity_seed_vectors_reach_feasibility(self):
        components = ["A", "B", "C", "D"]
        traffic = {("A", "B"): 1000.0, ("B", "C"): 10.0, ("C", "D"): 500.0}

        def feasible(vector):
            return sum(1 for location in vector if location != ON_PREM) >= 2

        seeds = affinity_seed_vectors(
            components, pinned={"A": ON_PREM}, pair_traffic=traffic,
            is_feasible=feasible, rng=np.random.default_rng(0), count=3,
        )
        assert len(seeds) == 3
        for seed in seeds:
            assert seed[0] == ON_PREM  # pin respected
            assert sum(seed) >= 2  # feasible

    def test_affinity_seeds_prefer_cutting_light_edges(self):
        components = ["A", "B", "C"]
        traffic = {("A", "B"): 10_000.0, ("B", "C"): 1.0}

        def feasible(vector):
            return sum(1 for location in vector if location != ON_PREM) >= 1

        seeds = affinity_seed_vectors(
            components, pinned={}, pair_traffic=traffic,
            is_feasible=feasible, rng=np.random.default_rng(0), count=1, noise=0.0,
        )
        # Offloading C cuts only the 1-byte edge; A/B stay together.
        assert seeds[0] == [ON_PREM, ON_PREM, CLOUD]


class TestGAConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=2)
        with pytest.raises(ValueError):
            GAConfig(crossover="magic")
        with pytest.raises(ValueError):
            GAConfig(population_size=100, evaluation_budget=50)
