"""N-location topology invariants.

Three laws anchor the multi-location generalization:

1. **Degeneration** (property-based): a 3-location quality stack whose third site is
   unreachable/priced out scores every two-location plan *identically* to the
   two-location stack — adding an unused region never perturbs the objectives.
2. **Engine equivalence**: the compiled replay engine matches the recursive
   ``DelayInjector`` oracle on 3-location topologies exactly, like it does on two.
3. **Two-location invariance**: running the searchers with an explicit
   ``locations=(0, 1)`` is bit-for-bit the same as the historical binary path, so
   fixed-seed 2-DC runs reproduce pre-N-location results.
"""

import numpy as np
import pytest
from drl_oracles import agent_snapshot, per_sample_train
from fingerprints import fingerprint_qualities, fingerprint_search_result
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CLOUD,
    ON_PREM,
    MigrationPlan,
    NodeSpec,
    default_multi_location_cluster,
    default_multi_location_network,
    default_network_model,
)
from repro.learning import ApiProfiler, FootprintLearner, ResourceEstimator
from repro.optimizer import AtlasGA, GAConfig, RandomSearchBaseline
from repro.optimizer.baselines import BaselineContext
from repro.optimizer.drl.agent import CrossoverAgent
from repro.quality import (
    ApiAvailabilityModel,
    ApiPerformanceModel,
    CloudCostModel,
    MigrationPreferences,
    PricingCatalog,
    QualityEvaluator,
)

THREE_LOCATIONS = (0, 1, 2)

#: A third region so expensive that any plan touching it blows any sane budget.
PRICED_OUT = PricingCatalog(
    node_spec=NodeSpec(
        name="unobtainium",
        cpu_millicores=2_000.0,
        memory_mb=8_192.0,
        hourly_price_usd=1e9,
    ),
    storage_usd_per_gb_month=1e9,
    egress_usd_per_gb=1e9,
)


@pytest.fixture(scope="module")
def tiny_stack(tiny_telemetry):
    """Learned models of the tiny app plus an evaluator factory over any topology."""
    app, result = tiny_telemetry
    telemetry = result.telemetry
    baseline = MigrationPlan.all_on_prem(app.component_names)
    profiles = ApiProfiler(
        telemetry, stateful_components=app.stateful_components(), traces_per_api=20
    ).profile_all()
    footprint = FootprintLearner(telemetry).learn()
    estimator = ResourceEstimator(app, telemetry).fit()
    estimate = estimator.predict_scaled(3.0)

    def build_evaluator(
        locations=(ON_PREM, CLOUD),
        catalogs=None,
        location_weights=None,
        engine="compiled",
        preferences=None,
    ):
        if len(locations) == 2:
            network = default_network_model()
        else:
            network = default_multi_location_network(locations=locations)
        performance = ApiPerformanceModel(
            traces_by_api={api: p.sample_traces for api, p in profiles.items()},
            footprint=footprint,
            network=network,
            baseline_plan=baseline,
            traces_per_api=20,
            engine=engine,
        )
        availability = ApiAvailabilityModel(
            {api: p.stateful_components for api, p in profiles.items()},
            baseline,
            location_weights=location_weights,
        )
        cost = CloudCostModel(
            PricingCatalog(),
            estimate,
            footprint,
            {c.name: c.resources.storage_gb for c in app.components},
            baseline,
            time_compression=288.0,
            catalogs=catalogs,
        )
        return QualityEvaluator(
            performance=performance,
            availability=availability,
            cost=cost,
            preferences=preferences or MigrationPreferences(),
            estimate=estimate,
            component_order=app.component_names,
        )

    return app, build_evaluator


def _plan(app, vector):
    return MigrationPlan.from_vector(app.component_names, list(vector))


class TestDegeneration:
    """Adding an unreachable/priced-out third site must not change anything."""

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_two_location_plans_score_identically(self, tiny_stack, vector):
        app, build_evaluator = tiny_stack
        two_dc = build_evaluator(locations=(ON_PREM, CLOUD))
        three_dc = build_evaluator(
            locations=THREE_LOCATIONS,
            catalogs={CLOUD: PricingCatalog(), 2: PRICED_OUT},
            location_weights={CLOUD: 1.0, 2: 5.0},
        )
        plan = _plan(app, vector)
        got = three_dc.evaluate(plan)
        want = two_dc.evaluate(plan)
        assert got.objectives() == want.objectives()
        assert got.feasible == want.feasible
        assert got.violations == want.violations

    def test_priced_out_region_is_infeasible_under_budget(self, tiny_stack):
        app, build_evaluator = tiny_stack
        preferences = MigrationPreferences(budget_usd=1e6)
        three_dc = build_evaluator(
            locations=THREE_LOCATIONS,
            catalogs={CLOUD: PricingCatalog(), 2: PRICED_OUT},
            preferences=preferences,
        )
        for component in app.component_names:
            plan = MigrationPlan.all_on_prem(app.component_names).with_location(
                component, 2
            )
            assert not three_dc.is_feasible(plan)

    def test_search_degenerates_when_third_site_priced_out(self, tiny_stack):
        """The 3-location GA never keeps a plan on the priced-out site, and every plan
        it returns scores exactly as the plain two-location stack scores it."""
        app, build_evaluator = tiny_stack
        preferences = MigrationPreferences(budget_usd=1e6)
        three_dc = build_evaluator(
            locations=THREE_LOCATIONS,
            catalogs={CLOUD: PricingCatalog(), 2: PRICED_OUT},
            preferences=preferences,
        )
        config = GAConfig(
            population_size=12,
            offspring_per_generation=6,
            evaluation_budget=160,
            max_generations=10,
            train_iterations=5,
            train_batch_size=2,
            train_pairs=8,
            seed=3,
        )
        result = AtlasGA(
            three_dc, app.component_names, config, locations=THREE_LOCATIONS
        ).run()
        assert result.pareto, "the search must still find feasible plans"
        two_dc = build_evaluator(locations=(ON_PREM, CLOUD), preferences=preferences)
        for quality in result.pareto:
            assert set(quality.plan.locations_used()) <= {ON_PREM, CLOUD}
            assert quality.objectives() == two_dc.evaluate(quality.plan).objectives()


class TestEngineEquivalenceThreeLocations:
    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_compiled_matches_oracle(self, tiny_stack, vector):
        app, build_evaluator = tiny_stack
        compiled = build_evaluator(locations=THREE_LOCATIONS, engine="compiled")
        reference = build_evaluator(locations=THREE_LOCATIONS, engine="reference")
        plan = _plan(app, vector)
        got = compiled.evaluate(plan)
        want = reference.evaluate(plan)
        assert got.objectives() == want.objectives()  # bitwise, like the 2-DC contract
        for api in compiled.performance.apis:
            assert compiled.performance.estimate_latencies(
                api, plan
            ) == reference.performance.estimate_latencies(api, plan)


class TestTwoLocationInvariance:
    """Explicit ``locations=(0, 1)`` must be byte-identical to the historical path."""

    def test_atlas_ga_fixed_seed_trajectory_unchanged(self, tiny_stack):
        app, build_evaluator = tiny_stack
        config = GAConfig(
            population_size=10,
            offspring_per_generation=5,
            evaluation_budget=120,
            max_generations=8,
            train_iterations=5,
            train_batch_size=2,
            train_pairs=8,
            seed=7,
        )
        implicit = AtlasGA(build_evaluator(), app.component_names, config).run()
        explicit = AtlasGA(
            build_evaluator(), app.component_names, config, locations=(ON_PREM, CLOUD)
        ).run()
        assert fingerprint_search_result(implicit) == fingerprint_search_result(
            explicit
        )

    def test_crossover_agent_binary_path_unchanged(self):
        binary = CrossoverAgent(n_components=5, hidden_dims=(8,), seed=4)
        explicit = CrossoverAgent(
            n_components=5, hidden_dims=(8,), seed=4, locations=(0, 1)
        )
        parent_a, parent_b = [0, 1, 0, 1, 1], [1, 0, 0, 1, 0]
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        assert binary.crossover(parent_a, parent_b, rng_a) == explicit.crossover(
            parent_a, parent_b, rng_b
        )

    def test_random_search_binary_path_unchanged(self, tiny_stack):
        app, build_evaluator = tiny_stack

        def run(locations):
            evaluator = build_evaluator()
            context = BaselineContext(
                components=app.component_names,
                evaluator=evaluator,
                traffic_matrix={},
                locations=locations,
            )
            front = RandomSearchBaseline(context, evaluation_budget=60, seed=2).recommend()
            return fingerprint_qualities(front)

        assert run((ON_PREM, CLOUD)) == run((0, 1))


class TestMultiLocationSearch:
    def test_agent_emits_all_locations_and_respects_pins(self):
        agent = CrossoverAgent(
            n_components=8,
            hidden_dims=(16,),
            seed=0,
            locations=THREE_LOCATIONS,
            pinned={0: ON_PREM, 7: 2},
        )
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(60):
            child = agent.crossover([0, 1, 2, 0, 1, 2, 0, 1], [2, 1, 0, 2, 1, 0, 2, 1], rng)
            assert child[0] == ON_PREM and child[7] == 2
            seen.update(child)
            assert set(child) <= set(THREE_LOCATIONS)
        assert seen == set(THREE_LOCATIONS)

    def test_agent_rejects_pins_outside_location_set(self):
        with pytest.raises(ValueError, match="pinned locations"):
            CrossoverAgent(
                n_components=4, hidden_dims=(8,), locations=THREE_LOCATIONS,
                pinned={1: 7},
            )

    def test_ga_rejects_pins_outside_location_set(self, tiny_stack):
        app, build_evaluator = tiny_stack
        stateful = sorted(app.stateful_components())
        preferences = MigrationPreferences(pinned_placement={stateful[0]: 7})
        evaluator = build_evaluator(
            locations=THREE_LOCATIONS, preferences=preferences
        )
        with pytest.raises(ValueError, match="outside the search"):
            AtlasGA(
                evaluator, app.component_names, GAConfig(seed=0),
                locations=THREE_LOCATIONS,
            )

    def test_agent_training_improves_nothing_but_runs(self, tiny_stack):
        """Categorical training must run end to end and keep pins fixed."""
        agent = CrossoverAgent(
            n_components=6, hidden_dims=(8,), seed=1, locations=THREE_LOCATIONS,
            pinned={2: ON_PREM},
        )
        pairs = [([0, 1, 0, 2, 1, 0], [2, 0, 1, 0, 2, 1])]

        def reward(children, _a, _b):
            assert all(child[2] == ON_PREM for child in children)
            return [1.0 if child.count(ON_PREM) >= 2 else -1.0 for child in children]

        history = agent.train(pairs, reward, iterations=5, batch_size=2)
        assert len(history.mean_rewards) == 5

    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    def test_agent_training_matches_per_sample_oracle(
        self, tiny_stack, monkeypatch, batch_size
    ):
        """Minibatch reward scoring trains the 3-location agent bit for bit like the
        per-sample loop, with pins and whitelists, and scores the same rows in order."""
        app, build_evaluator = tiny_stack
        preferences = MigrationPreferences(
            pinned_placement={"Database": ON_PREM, "Notifier": 2},
            allowed_locations={"Cache": (2,), "ServiceA": (CLOUD,)},
        )
        config = GAConfig(
            train_iterations=12, train_batch_size=batch_size, train_pairs=6, seed=5
        )

        def train():
            evaluator = build_evaluator(locations=THREE_LOCATIONS, preferences=preferences)
            ga = AtlasGA(evaluator, app.component_names, config, locations=THREE_LOCATIONS)
            ga.train_agent()
            return ga.agent, evaluator

        batched_agent, batched_eval = train()
        monkeypatch.setattr(CrossoverAgent, "train", per_sample_train)
        oracle_agent, oracle_eval = train()
        assert agent_snapshot(batched_agent) == agent_snapshot(oracle_agent)
        assert [q.plan.to_vector() for q in batched_eval.evaluated_qualities()] == [
            q.plan.to_vector() for q in oracle_eval.evaluated_qualities()
        ]
        assert batched_eval.evaluations == oracle_eval.evaluations

    def test_ga_explores_every_location(self, tiny_stack):
        app, build_evaluator = tiny_stack
        evaluator = build_evaluator(
            locations=THREE_LOCATIONS,
            catalogs={CLOUD: PricingCatalog(), 2: PricingCatalog()},
        )
        config = GAConfig(
            population_size=12,
            offspring_per_generation=6,
            evaluation_budget=150,
            max_generations=8,
            train_iterations=4,
            train_batch_size=2,
            train_pairs=8,
            seed=5,
        )
        result = AtlasGA(
            evaluator, app.component_names, config, locations=THREE_LOCATIONS
        ).run()
        visited = set()
        for quality in result.all_evaluated:
            visited.update(quality.plan.locations_used())
        assert visited == set(THREE_LOCATIONS)

    def test_affinity_seed_cut_accounting_with_third_site_pin(self):
        """A neighbour pinned to a third site crosses the cut on *both* sides of a
        toggle, so it must never make a move look cut-reducing."""
        from repro.optimizer.atlas_ga import affinity_seed_vectors

        components = ["a", "b", "p"]
        seeds = affinity_seed_vectors(
            components=components,
            pinned={"p": 2},
            # a<->p dominates but is cross-site whatever a does; a<->b is local and
            # would be cut by offloading a.
            pair_traffic={("a", "p"): 100.0, ("a", "b"): 10.0},
            is_feasible=lambda plan: True,
            rng=np.random.default_rng(0),
            count=2,
            locations=THREE_LOCATIONS,
        )
        for seed in seeds:
            # Offloading "a" would add 10 bytes of cut; the pinned edge is a wash.
            assert seed == [ON_PREM, ON_PREM, 2]

    def test_all_evaluated_scoped_to_one_run(self, tiny_stack):
        app, build_evaluator = tiny_stack
        evaluator = build_evaluator()
        config = GAConfig(
            population_size=8,
            offspring_per_generation=4,
            evaluation_budget=60,
            max_generations=4,
            train_iterations=3,
            train_batch_size=2,
            train_pairs=6,
            seed=11,
        )
        first = AtlasGA(evaluator, app.component_names, config).run()
        config_b = GAConfig(
            population_size=8,
            offspring_per_generation=4,
            evaluation_budget=120,
            max_generations=4,
            train_iterations=3,
            train_batch_size=2,
            train_pairs=6,
            seed=12,
        )
        second = AtlasGA(evaluator, app.component_names, config_b).run()
        # The two runs partition the shared evaluator's distinct-plan cache.
        assert len(first.all_evaluated) + len(second.all_evaluated) == evaluator.cache_size()

    def test_move_candidates_cover_all_targets(self, tiny_stack):
        app, build_evaluator = tiny_stack
        evaluator = build_evaluator(locations=THREE_LOCATIONS)
        ga = AtlasGA(
            evaluator, app.component_names, GAConfig(seed=0), locations=THREE_LOCATIONS
        )
        vector = [0] * len(app.component_names)
        moves = ga._move_candidates(vector)
        single_values = {tuple(m) for m in moves}
        # Every component can be moved to each of the two remote sites.
        for gene in range(len(vector)):
            for target in (1, 2):
                candidate = list(vector)
                candidate[gene] = target
                assert tuple(candidate) in single_values


class TestTopologyBuilders:
    def test_multi_location_cluster_shape(self):
        cluster = default_multi_location_cluster()
        assert cluster.location_ids == [0, 1, 2]
        assert [dc.name for dc in cluster.datacenters] == [
            "on-prem",
            "cloud-east",
            "cloud-west",
        ]
        assert [dc.location_id for dc in cluster.elastic_datacenters()] == [1, 2]
        assert [dc.location_id for dc in cluster.remote_datacenters()] == [1, 2]
        assert cluster.n_locations == 3

    def test_extra_regions_extend_location_ids(self):
        cluster = default_multi_location_cluster(
            extra_regions=[{"name": "edge", "region": "factory-floor"}]
        )
        assert cluster.location_ids == [0, 1, 2, 3]
        assert cluster.datacenter(3).name == "edge"

    def test_multi_location_network_is_dense_and_degenerates(self):
        network = default_multi_location_network(locations=(0, 1, 2))
        assert network.locations() == [0, 1, 2]
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                assert network.has_link(a, b)
        two_dc = default_network_model()
        for pair in ((0, 0), (1, 1), (0, 1)):
            assert network.latency_ms(*pair) == two_dc.latency_ms(*pair)
            assert network.bandwidth_mbps(*pair) == two_dc.bandwidth_mbps(*pair)
        # The farther region is actually farther.
        assert network.latency_ms(0, 2) > network.latency_ms(0, 1)

    def test_plan_locations_used(self):
        plan = MigrationPlan({"a": 0, "b": 2, "c": 0, "d": 1})
        assert plan.locations_used() == [0, 1, 2]
        assert plan.components_at(2) == ["b"]
        assert sorted(plan.offloaded()) == ["b", "d"]


class TestMultiLocationQuality:
    def test_cost_bills_each_region_with_its_catalog(self, tiny_stack):
        app, build_evaluator = tiny_stack
        cheap_west = PricingCatalog(
            node_spec=NodeSpec(
                name="west", cpu_millicores=2_000.0, memory_mb=8_192.0,
                hourly_price_usd=0.01,
            ),
            storage_usd_per_gb_month=0.01,
            egress_usd_per_gb=0.09,
        )
        evaluator = build_evaluator(
            locations=THREE_LOCATIONS,
            catalogs={CLOUD: PricingCatalog(), 2: cheap_west},
        )
        components = app.component_names
        east = MigrationPlan.from_vector(components, [1] * len(components))
        west = MigrationPlan.from_vector(components, [2] * len(components))
        east_cost = evaluator.cost.qcost(east)
        west_cost = evaluator.cost.qcost(west)
        assert west_cost < east_cost  # same demand, cheaper nodes/storage
        by_location = evaluator.cost.node_series_by_location(east)
        assert set(by_location) == {CLOUD, 2}
        assert sum(by_location[2]) == 0  # nothing placed west under the east plan

    def test_cloud_egress_only_bills_each_endpoint_site(self, tiny_stack):
        """With per-endpoint egress billing, request bytes are charged at the caller's
        site rate and response bytes at the callee's; the 2-DC single-catalog path
        matches the flat-rate accounting for plans with one billable endpoint."""
        app, build_evaluator = tiny_stack
        flat = build_evaluator().cost
        endpoint = build_evaluator().cost
        endpoint.charge_cloud_egress_only = True
        components = app.component_names
        # One component in the cloud: every cross edge has exactly one billable side,
        # so the endpoint accounting bills a subset of the flat-rate bytes.
        plan = MigrationPlan.from_offloaded(components, [components[0]])
        assert 0.0 < endpoint.traffic_cost(plan) <= flat.traffic_cost(plan)

    def test_footprint_cross_location_traffic_matrix(self, tiny_stack):
        app, build_evaluator = tiny_stack
        evaluator = build_evaluator(locations=THREE_LOCATIONS)
        footprint = evaluator.cost.footprint
        counts = {api: 10.0 for api in evaluator.performance.apis}
        components = app.component_names
        collocated = MigrationPlan.all_on_prem(components)
        assert footprint.expected_cross_location_traffic(collocated, counts) == {}
        split = MigrationPlan.from_offloaded(components, [components[0]], location=2)
        loads = footprint.expected_cross_location_traffic(split, counts)
        assert loads, "splitting a communicating component must load some link"
        assert all(a != b for a, b in loads)
        assert set(sum(([a, b] for a, b in loads), [])) <= {0, 2}
        assert all(v > 0 for v in loads.values())
        # Conservation: summed link load equals the flat pair-traffic restricted to
        # cross-location pairs.
        pair_traffic = footprint.expected_pair_traffic(counts)
        expected = sum(
            bytes_
            for (src, dst), bytes_ in pair_traffic.items()
            if split[src] != split[dst]
        )
        assert sum(loads.values()) == pytest.approx(expected)

    def test_availability_weights_scale_with_destination(self, tiny_stack):
        app, build_evaluator = tiny_stack
        weighted = build_evaluator(
            locations=THREE_LOCATIONS,
            location_weights={CLOUD: 1.0, 2: 3.0},
        ).availability
        stateful = sorted(app.stateful_components())
        assert stateful, "tiny app must have a stateful component"
        base = MigrationPlan.all_on_prem(app.component_names)
        near = base.with_location(stateful[0], CLOUD)
        far = base.with_location(stateful[0], 2)
        assert weighted.qavai(far) == 3.0 * weighted.qavai(near)
        assert weighted.disruption_factor("/read", far) in (0.0, 3.0)
