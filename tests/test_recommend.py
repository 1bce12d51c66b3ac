"""Tests for the Atlas advisor facade, the search loop and the plan hierarchy."""

import pytest

from repro.cluster import CLOUD, ON_PREM, MigrationPlan
from repro.optimizer import AtlasGA, GAConfig
from repro.optimizer.baselines import (
    AffinityNSGA2Baseline,
    GreedyBusiestBaseline,
    GreedySmallestBaseline,
    IntMABaseline,
    RandomSearchBaseline,
    REMaPBaseline,
)
from repro.quality import MigrationPreferences
from repro.recommend import Atlas, AtlasConfig, PlanHierarchy
from repro.recommend.advisor import Recommendation


SMALL_GA = GAConfig(
    population_size=16,
    offspring_per_generation=8,
    evaluation_budget=220,
    immigrants_per_generation=3,
    local_search_period=3,
    train_iterations=15,
    train_batch_size=2,
    train_pairs=8,
    seed=0,
)


@pytest.fixture(scope="module")
def tiny_atlas(tiny_telemetry):
    """An Atlas advisor learned on the tiny app with a binding on-prem CPU limit."""
    app, result = tiny_telemetry
    atlas = Atlas(app, MigrationPreferences(), config=AtlasConfig(traces_per_api=15, ga=SMALL_GA))
    atlas.learn(result.telemetry)
    peak = atlas.knowledge.estimator.predict_scaled(3.0).peak(
        "cpu_millicores", app.component_names
    )
    atlas.preferences = MigrationPreferences.pin_on_prem(
        ["Database"], onprem_limits={"cpu_millicores": 0.7 * peak}
    )
    return app, atlas


class TestApplicationLearning:
    def test_learn_produces_knowledge(self, tiny_atlas):
        app, atlas = tiny_atlas
        knowledge = atlas.knowledge
        assert set(knowledge.api_profiles) == set(app.api_names)
        assert set(knowledge.component_profiles) == set(app.component_names)
        assert knowledge.footprint.pairs()
        assert knowledge.stateful_components_by_api()["/read"] == ["Database"]

    def test_learn_required_before_recommend(self, tiny_app):
        atlas = Atlas(tiny_app)
        with pytest.raises(RuntimeError):
            atlas.build_evaluator()
        with pytest.raises(RuntimeError):
            atlas.breach_detector()


class TestRecommendation:
    @pytest.fixture(scope="class")
    def recommendation(self, tiny_atlas) -> Recommendation:
        _app, atlas = tiny_atlas
        return atlas.recommend(expected_scale=3.0)

    def test_returns_feasible_pareto_plans(self, tiny_atlas, recommendation):
        app, atlas = tiny_atlas
        assert recommendation.plans
        for quality in recommendation.plans:
            assert quality.feasible
            assert quality.plan["Database"] == ON_PREM  # pinned

    def test_front_is_mutually_non_dominated(self, recommendation):
        plans = recommendation.plans
        for a in plans:
            for b in plans:
                if a is not b:
                    assert not a.dominates(b)

    def test_objective_selectors(self, recommendation):
        perf = recommendation.performance_optimized()
        cost = recommendation.cost_optimized()
        avail = recommendation.availability_optimized()
        assert perf.perf == min(q.perf for q in recommendation.plans)
        assert cost.cost == min(q.cost for q in recommendation.plans)
        assert avail.avail == min(q.avail for q in recommendation.plans)

    def test_latency_preview_covers_all_apis(self, tiny_atlas, recommendation):
        app, _atlas = tiny_atlas
        preview = recommendation.latency_preview(recommendation.performance_optimized().plan)
        assert set(preview) == set(app.api_names)
        for estimate in preview.values():
            assert estimate.estimated_mean_ms > 0

    def test_training_history_recorded(self, recommendation):
        history = recommendation.result.training_history
        assert history is not None
        assert len(history.mean_rewards) == SMALL_GA.train_iterations

    def test_budget_respected(self, recommendation):
        assert recommendation.result.evaluations <= SMALL_GA.evaluation_budget + 60

    def test_hierarchy_renders(self, recommendation):
        hierarchy = recommendation.hierarchy()
        clusters = hierarchy.clusters(min(3, len(recommendation.plans)))
        assert clusters
        assert sum(c.size for c in clusters) == len(recommendation.plans)
        text = hierarchy.to_text()
        assert "perf=" in text

    def test_critical_apis_shift_plan_choice(self, tiny_atlas):
        app, atlas = tiny_atlas
        prefs = atlas.preferences.with_critical_apis(["/write"])
        recommendation = atlas.recommend(expected_scale=3.0, preferences=prefs)
        weights = recommendation.evaluator.api_weights
        assert weights["/write"] == 2.0 and weights["/read"] == 1.0


class TestPlanHierarchy:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PlanHierarchy([])

    def test_single_plan_hierarchy(self, tiny_atlas):
        app, atlas = tiny_atlas
        evaluator = atlas.build_evaluator(expected_scale=1.0)
        quality = evaluator.evaluate(MigrationPlan.all_on_prem(app.component_names))
        hierarchy = PlanHierarchy([quality])
        clusters = hierarchy.clusters(3)
        assert len(clusters) == 1
        assert clusters[0].representative is quality
        assert hierarchy.drill_down(clusters[0]) == []


class TestGACrossoverVariants:
    def test_uniform_variant_runs_without_agent(self, tiny_atlas):
        app, atlas = tiny_atlas
        evaluator = atlas.build_evaluator(expected_scale=3.0)
        config = GAConfig(
            population_size=12, offspring_per_generation=6, evaluation_budget=120,
            train_iterations=5, crossover="uniform", seed=1,
        )
        result = AtlasGA(evaluator, app.component_names, config).run()
        assert result.training_history is None
        assert result.pareto
        assert result.evaluations <= 180

    def test_seed_vectors_are_pinned_and_used(self, tiny_atlas):
        app, atlas = tiny_atlas
        evaluator = atlas.build_evaluator(expected_scale=3.0)
        seeds = [[1] * len(app.component_names)]
        ga = AtlasGA(evaluator, app.component_names, SMALL_GA, seed_vectors=seeds)
        db_index = app.component_names.index("Database")
        assert ga.seed_vectors[0][db_index] == ON_PREM

    def test_reward_matches_equation5(self, tiny_atlas):
        app, atlas = tiny_atlas
        evaluator = atlas.build_evaluator(expected_scale=3.0)
        ga = AtlasGA(evaluator, app.component_names, SMALL_GA)
        all_cloud = [CLOUD] * len(app.component_names)
        all_onprem = [ON_PREM] * len(app.component_names)
        (reward,) = ga.rewards([all_onprem], [all_cloud], [all_cloud])
        assert isinstance(reward, float)
        # The all-on-prem child violates the CPU limit -> negative reward.
        assert reward < 0


class TestBaselines:
    @pytest.fixture(scope="class")
    def context(self, tiny_atlas):
        _app, atlas = tiny_atlas
        evaluator = atlas.build_evaluator(expected_scale=3.0)
        return atlas.baseline_context(evaluator)

    def test_greedy_baselines_reach_feasibility(self, context):
        for cls in (GreedyBusiestBaseline, GreedySmallestBaseline):
            plan = cls(context).recommend()
            assert context.feasible(plan)
            assert plan["Database"] == ON_PREM

    def test_greedy_order_differs(self, context):
        largest = GreedyBusiestBaseline(context).recommend()
        smallest = GreedySmallestBaseline(context).recommend()
        assert largest.offloaded() != smallest.offloaded() or largest == smallest

    def test_affinity_heuristics_minimize_cut(self, context):
        for cls in (REMaPBaseline, IntMABaseline):
            plan = cls(context).recommend()
            assert context.feasible(plan)
            # The heuristic should never leave an obviously better single flip on the table.
            base_cut = context.cross_dc_affinity(plan, cls.message_weight)
            for component in context.movable_components:
                flipped = plan.with_location(component, 1 - plan[component])
                if context.feasible(flipped):
                    assert context.cross_dc_affinity(flipped, cls.message_weight) >= base_cut - 1e-6

    def test_affinity_ga_returns_front(self, context):
        result = AffinityNSGA2Baseline(context, population_size=12, evaluation_budget=150, seed=0).recommend()
        assert result.plans
        assert len(result.plans) == len(result.objectives)
        assert result.evaluations >= 150

    def test_random_search_returns_feasible_pareto(self, context):
        qualities = RandomSearchBaseline(context, evaluation_budget=150, seed=0).recommend()
        assert qualities
        for quality in qualities:
            assert quality.feasible
        for a in qualities:
            for b in qualities:
                if a is not b:
                    assert not a.dominates(b)
