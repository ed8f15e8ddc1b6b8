"""Profiler precision-mode plumbing: config, CLI, and replay eligibility.

The sketch tiers change what the tick loop may replay: batched
replayed record ops are additive for exact buckets but would change
space-saving promotion order, so any non-exact profiler (or a manager
that can downshift into one mid-run) must cleanly keep the run on live
ingestion.
"""

import pytest

from repro.apps.catalog import load_scenario
from repro.cli import main
from repro.core.elasticity import ProfileStalenessDetector, StalenessPolicy
from repro.errors import EvaluationError, SimulationError
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.faults.plan import FaultPlan
from repro.sim.engine import SimulationConfig
from repro.sim.events import ReplayIngestor
from repro.sim.parity import diff_results
from repro.telemetry import MetricsRegistry


def _build(manager="DCA-10%", replay=True, scenario="hedwig", **cfg_kwargs):
    config = ExperimentConfig(
        duration_minutes=40, seed=7, sim=SimulationConfig(replay=replay), **cfg_kwargs
    )
    registry = MetricsRegistry()
    sim = build_simulator(
        load_scenario(scenario), manager, config=config, registry=registry
    )
    return sim, registry


class TestConfigValidation:
    def test_sim_config_rejects_unknown_mode(self):
        with pytest.raises(SimulationError):
            SimulationConfig(profiler_mode="fuzzy")

    def test_sim_config_rejects_bad_topk(self):
        with pytest.raises(SimulationError):
            SimulationConfig(profiler_topk=0)

    def test_experiment_config_rejects_unknown_mode(self):
        with pytest.raises(EvaluationError):
            ExperimentConfig(profiler_mode="fuzzy")

    def test_experiment_config_propagates_to_sim(self):
        config = ExperimentConfig(profiler_mode="topk", profiler_topk=64)
        assert config.sim.profiler_mode == "topk"
        assert config.sim.profiler_topk == 64

    def test_default_is_exact(self):
        assert ExperimentConfig().sim.profiler_mode == "exact"


class TestBuildSimulator:
    def test_dca_profiler_gets_mode(self):
        sim, _ = _build(profiler_mode="topk", profiler_topk=64)
        assert sim.dca.profiler.mode == "topk"
        assert sim.dca.profiler.topk_k == 64

    def test_component_mode(self):
        sim, _ = _build(profiler_mode="component")
        assert sim.dca.profiler.mode == "component"

    def test_baseline_manager_unaffected(self):
        sim, _ = _build(manager="CloudWatch", profiler_mode="topk")
        assert sim.dca is None


class TestCLI:
    def test_simulate_accepts_profiler_mode(self, capsys):
        assert main(
            [
                "simulate",
                "hedwig",
                "--manager",
                "DCA-10%",
                "--duration",
                "10",
                "--profiler-mode",
                "topk",
                "--profiler-topk",
                "64",
            ]
        ) == 0
        assert "agility" in capsys.readouterr().out

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["simulate", "hedwig", "--manager", "DCA-10%", "--profiler-mode", "fuzzy"]
            )


class TestReplayEligibility:
    def test_sketch_mode_disables_cutover(self):
        # Long enough that an exact-mode run would engage replay
        # (~80 intervals to converge); topk must run full fidelity.
        config = ExperimentConfig(duration_minutes=160, seed=7, profiler_mode="topk")
        sim = build_simulator(
            load_scenario("marketcetera"),
            "DCA-100%",
            config=config,
            registry=MetricsRegistry(),
        )
        sim.run()
        assert sim.ingestor is None

    def test_exact_mode_still_engages(self):
        config = ExperimentConfig(duration_minutes=160, seed=7)
        sim = build_simulator(
            load_scenario("marketcetera"),
            "DCA-100%",
            config=config,
            registry=MetricsRegistry(),
        )
        sim.run()
        assert sim.ingestor is not None
        assert sim.ingestor.replaying

    def test_ingestor_rejects_sketch_profiler(self):
        sim, _ = _build(profiler_mode="topk")
        with pytest.raises(ValueError):
            ReplayIngestor(sim)

    def test_ingestor_rejects_downshift_capable_manager(self):
        sim, registry = _build()
        sim.manager.staleness_detector = ProfileStalenessDetector(
            sim.dca.profiler,
            StalenessPolicy(downshift_mode="topk"),
            registry,
        )
        with pytest.raises(ValueError):
            ReplayIngestor(sim)

    def test_downshift_capable_manager_disables_eligibility(self):
        sim, registry = _build()
        sim.manager.staleness_detector = ProfileStalenessDetector(
            sim.dca.profiler,
            StalenessPolicy(downshift_mode="component"),
            registry,
        )
        assert not ReplayIngestor.eligible(sim)
        sim.run()
        assert sim.ingestor is None


class TestEligibilityRule:
    """``ReplayIngestor.eligible`` is the one replay rule; each clause
    on its own keeps a run live."""

    def test_default_dca_run_is_eligible(self):
        sim, _ = _build()
        assert sim.config.replay
        assert ReplayIngestor.eligible(sim)

    @pytest.mark.parametrize(
        "build_kwargs",
        [
            {"manager": "CloudWatch"},
            {"profiler_mode": "topk"},
            {"profiler_mode": "component"},
        ],
        ids=["baseline-manager", "topk", "component"],
    )
    def test_ineligible_configs(self, build_kwargs):
        sim, _ = _build(**build_kwargs)
        assert not ReplayIngestor.eligible(sim)

    @pytest.mark.parametrize(
        "sim_kwargs",
        [
            {"fault_plan": FaultPlan(seed=3, message_drop_rate=0.1)},
            {"path_timeout_minutes": 5.0},
        ],
        ids=["fault-plan", "path-timeout"],
    )
    def test_faults_and_timeouts_are_ineligible(self, sim_kwargs):
        sim = build_simulator(
            load_scenario("hedwig"),
            "DCA-10%",
            config=ExperimentConfig(duration_minutes=40, seed=7),
            registry=MetricsRegistry(),
            **sim_kwargs,
        )
        assert not ReplayIngestor.eligible(sim)
        with pytest.raises(ValueError, match="snapshot replay"):
            ReplayIngestor(sim)

    def test_replay_off_never_builds_an_ingestor(self):
        sim, _ = _build(replay=False)
        assert ReplayIngestor.eligible(sim)
        sim.run()
        assert sim.ingestor is None


class TestTopKEngineSmoke:
    def test_tick_and_event_agree_in_topk_mode(self):
        """topk runs are ineligible, so replay on and off drive the same
        full-fidelity ingestion — interval records must match exactly."""
        results = {}
        for replay in (False, True):
            sim, _ = _build(replay=replay, profiler_mode="topk", profiler_topk=64)
            results[replay] = sim.run()
            assert sim.ingestor is None
        diffs = diff_results(results[False], results[True])
        assert not diffs, diffs
