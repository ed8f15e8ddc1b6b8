"""Integration tests for the cluster simulation engine."""

import pytest

from repro.autoscale.manager import ElasticityManager, ScalingDecision
from repro.core.regression import MachineSpec
from repro.errors import SimulationError
from repro.sim.cluster import DeploymentSpec
from repro.sim.engine import ClusterSimulator, DCABundle, SimulationConfig
from repro.workloads.generator import RequestClass, WorkloadGenerator
from repro.workloads.patterns import MixPhase, ScaledPattern, StepMixSchedule


class HoldManager(ElasticityManager):
    """Keeps every component at its current allocation (for engine tests)."""

    name = "hold"

    def __init__(self):
        self.observations = []

    def decide(self, observation):
        self.observations.append(observation)
        return ScalingDecision(
            targets={c: o.nodes + o.pending_nodes for c, o in observation.components.items()}
        )


MACHINE = MachineSpec(capacity_ms_per_minute=1_000.0)


def _generator(pipeline_app, rate=100.0):
    classes = [RequestClass("go", "start", {"x": 5})]
    return WorkloadGenerator(
        ScaledPattern(lambda t: 1.0, rate, rate),
        StepMixSchedule([MixPhase(0.0, {"go": 1.0})]),
        classes,
        deterministic=True,
    )


def _deployments(pipeline_app, nodes=2):
    return {name: DeploymentSpec(initial_nodes=nodes) for name in pipeline_app.components}


def _simulator(pipeline_app, manager=None, duration=5, rate=100.0, nodes=2, **cfg_kwargs):
    config = SimulationConfig(duration_minutes=duration, **cfg_kwargs)
    return ClusterSimulator(
        pipeline_app,
        _generator(pipeline_app, rate),
        _deployments(pipeline_app, nodes),
        MACHINE,
        manager or HoldManager(),
        config=config,
    )


class TestEngineBasics:
    def test_missing_deployment_rejected(self, pipeline_app):
        config = SimulationConfig(duration_minutes=5)
        with pytest.raises(SimulationError, match="missing"):
            ClusterSimulator(
                pipeline_app,
                _generator(pipeline_app),
                {"A": DeploymentSpec()},
                MACHINE,
                HoldManager(),
                config=config,
            )

    def test_run_produces_one_record_per_minute(self, pipeline_app):
        result = _simulator(pipeline_app, duration=7).run()
        assert len(result.records) == 7
        assert [r.time_minutes for r in result.records] == [float(t) for t in range(7)]

    def test_arrivals_follow_the_seeded_per_interval_draws(self, pipeline_app):
        """The tick loop draws its whole schedule up front; the records
        must carry exactly the draws a fresh, same-seeded generator makes
        one interval at a time."""

        def seeded():
            return WorkloadGenerator(
                ScaledPattern(lambda t: 1.0, 40.0, 40.0),
                StepMixSchedule([MixPhase(0.0, {"go": 1.0})]),
                [RequestClass("go", "start", {"x": 5})],
                seed=5,
            )

        sim = ClusterSimulator(
            pipeline_app,
            seeded(),
            _deployments(pipeline_app),
            MACHINE,
            HoldManager(),
            config=SimulationConfig(duration_minutes=12),
        )
        records = sim.run().records
        reference = seeded()
        assert [r.class_arrivals for r in records] == [
            reference.arrivals(float(t)) for t in range(12)
        ]

    def test_sla_auto_derived_from_path_cost(self, pipeline_app):
        sim = _simulator(pipeline_app)
        # Path cost: 3 components × 5ms + 4 hops × 2ms network = 23ms; ×10.
        assert sim.sla_latency_ms == pytest.approx(230.0)

    def test_sla_override(self, pipeline_app):
        sim = _simulator(pipeline_app, sla_latency_ms=99.0)
        assert sim.sla_latency_ms == 99.0

    def test_demand_matches_hand_computation(self, pipeline_app):
        result = _simulator(pipeline_app, rate=100.0).run()
        record = result.records[0]
        # 100 requests × 1 message × 5ms at each component.
        for comp in ("A", "B", "C"):
            assert record.components[comp].base_demand_ms == pytest.approx(500.0)

    def test_utilization_reflects_capacity(self, pipeline_app):
        result = _simulator(pipeline_app, rate=100.0, nodes=2).run()
        record = result.records[0]
        # 500ms demand over 2 × 1000ms capacity.
        assert record.components["A"].utilization == pytest.approx(0.25)

    def test_manager_sees_observations(self, pipeline_app):
        manager = HoldManager()
        _simulator(pipeline_app, manager=manager, duration=4).run()
        assert len(manager.observations) == 4
        obs = manager.observations[0]
        assert set(obs.components) == {"A", "B", "C"}
        assert obs.external_arrivals_per_min == pytest.approx(100.0)

    def test_saturation_causes_sla_violations(self, pipeline_app):
        # 1000 req/min × 5ms = 5000ms demand over 1 node × 1000ms.
        result = _simulator(pipeline_app, rate=1000.0, nodes=1).run()
        assert result.sla_violation_percent() > 50.0

    def test_workload_decreasing_flag(self, pipeline_app):
        """The flag follows the smoothed trend: it turns on only after a
        sustained drop (3-minute window means), never on a single noisy
        minute."""
        classes = [RequestClass("go", "start", {"x": 5})]
        generator = WorkloadGenerator(
            # High for 5 minutes, then a sustained 50% drop.
            ScaledPattern(lambda t: 1.0 if t < 5 else 0.5, 0.0, 100.0),
            StepMixSchedule([MixPhase(0.0, {"go": 1.0})]),
            classes,
            deterministic=True,
        )
        sim = ClusterSimulator(
            pipeline_app,
            generator,
            _deployments(pipeline_app),
            MACHINE,
            HoldManager(),
            config=SimulationConfig(duration_minutes=10),
        )
        result = sim.run()
        assert not any(r.workload_decreasing for r in result.records[:5])
        assert any(r.workload_decreasing for r in result.records[5:9])


class TestDCAIntegration:
    def test_bundle_wires_profiler(self, pipeline_app):
        bundle = DCABundle.create(pipeline_app, sampling_rate=1.0)
        sim = ClusterSimulator(
            pipeline_app,
            _generator(pipeline_app, rate=50.0),
            _deployments(pipeline_app),
            MACHINE,
            HoldManager(),
            config=SimulationConfig(duration_minutes=3),
            dca=bundle,
        )
        result = sim.run()
        counts = bundle.profiler.counts(2.0)
        # 100% sampling: every arrival in the window is counted.
        assert sum(counts.values()) == sum(r.sampled_requests for r in result.records)
        assert sum(counts.values()) > 0

    def test_sampled_requests_recorded(self, pipeline_app):
        bundle = DCABundle.create(pipeline_app, sampling_rate=0.1, seed=3)
        sim = ClusterSimulator(
            pipeline_app,
            _generator(pipeline_app, rate=200.0),
            _deployments(pipeline_app),
            MACHINE,
            HoldManager(),
            config=SimulationConfig(duration_minutes=5),
            dca=bundle,
        )
        result = sim.run()
        total_sampled = sum(r.sampled_requests for r in result.records)
        assert 0 < total_sampled < 1000 * 0.5  # roughly 10% of 1000

    def test_overhead_demand_positive_when_instrumented(self, pipeline_app):
        bundle = DCABundle.create(pipeline_app, sampling_rate=1.0)
        sim = ClusterSimulator(
            pipeline_app,
            _generator(pipeline_app, rate=50.0),
            _deployments(pipeline_app),
            MACHINE,
            HoldManager(),
            config=SimulationConfig(duration_minutes=2),
            dca=bundle,
        )
        result = sim.run()
        assert result.overhead_mean() > 0

    def test_infrastructure_not_counted_by_default(self, pipeline_app):
        class InfraManager(HoldManager):
            def decide(self, observation):
                decision = super().decide(observation)
                return ScalingDecision(targets=decision.targets, infrastructure_nodes=3)

        result = _simulator(pipeline_app, manager=InfraManager(), duration=3).run()
        assert all(r.infra_nodes == 0 for r in result.records)

    def test_infrastructure_counted_when_enabled(self, pipeline_app):
        class InfraManager(HoldManager):
            def decide(self, observation):
                decision = super().decide(observation)
                return ScalingDecision(targets=decision.targets, infrastructure_nodes=3)

        result = _simulator(
            pipeline_app, manager=InfraManager(), duration=3, count_infrastructure=True
        ).run()
        # The first interval records the infra of the previous decision (0).
        assert result.records[0].infra_nodes == 0
        assert all(r.infra_nodes == 3 for r in result.records[1:])
