"""Tick-loop edge cases, each run with replay off (the oracle) and on.

The scenario-suite parity tests (``test_engine_parity.py``) cover the
paper configurations; these tests pin down the boundary conditions the
tick loop must handle identically whichever DCA ingestion it uses:

* one-interval runs (nothing ever matures or delivers),
* non-unit ``interval_minutes`` (record spacing, rate conversion),
* fault delays landing exactly on, or between, interval boundaries,
* the clock-driven ``_inject_failures`` roll (pinned seeded counts),
* the converged-replay cutover machinery itself.
"""

import pytest

from repro.apps.catalog import load_scenario
from repro.errors import SimulationError
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.faults.plan import FaultPlan
from repro.sim.engine import SimulationConfig
from repro.sim.parity import diff_results, diff_snapshots
from repro.telemetry import MetricsRegistry


def _run_pair(
    scenario_name,
    manager,
    duration_minutes,
    seed=7,
    interval_minutes=None,
    node_failure_rate=None,
    failure_seed=0,
    fault_plan=None,
    path_timeout_minutes=None,
):
    """Run one config with replay off and on; return {side: (sim, result, snap)}."""
    out = {}
    for side, replay in (("live", False), ("replay", True)):
        sim_config = SimulationConfig(replay=replay)
        if interval_minutes is not None:
            sim_config.interval_minutes = interval_minutes
        if node_failure_rate is not None:
            sim_config.node_failure_rate_per_min = node_failure_rate
            sim_config.failure_seed = failure_seed
        config = ExperimentConfig(
            duration_minutes=duration_minutes,
            seed=seed,
            sim=sim_config,
        )
        registry = MetricsRegistry()
        sim = build_simulator(
            load_scenario(scenario_name),
            manager,
            config=config,
            registry=registry,
            fault_plan=fault_plan,
            path_timeout_minutes=path_timeout_minutes,
        )
        result = sim.run()
        out[side] = (sim, result, registry.snapshot())
    return out


def _assert_pair_parity(pair):
    _, live_result, live_snap = pair["live"]
    _, replay_result, replay_snap = pair["replay"]
    diffs = diff_results(live_result, replay_result)
    assert not diffs, diffs
    diffs = diff_snapshots(live_snap, replay_snap)
    assert not diffs, diffs
    assert pair["live"][0].nodes_failed_total == pair["replay"][0].nodes_failed_total


class TestDurationEdges:
    def test_single_interval_run(self):
        pair = _run_pair("hedwig", "DCA-100%", duration_minutes=1)
        _assert_pair_parity(pair)
        assert len(pair["replay"][1].records) == 1
        assert pair["replay"][1].records[0].time_minutes == 0.0

    def test_zero_duration_rejected(self):
        with pytest.raises(SimulationError):
            SimulationConfig(duration_minutes=0)


class TestNonUnitIntervals:
    """interval_minutes != 1.0: record spacing and rate conversion."""

    @pytest.mark.parametrize("interval_minutes", [0.5, 2.0])
    def test_parity(self, interval_minutes):
        pair = _run_pair(
            "hedwig",
            "DCA-10%",
            duration_minutes=30,
            interval_minutes=interval_minutes,
        )
        _assert_pair_parity(pair)

    @pytest.mark.parametrize(
        "interval_minutes,expected_intervals", [(0.5, 60), (2.0, 15)]
    )
    def test_record_spacing(self, interval_minutes, expected_intervals):
        pair = _run_pair(
            "hedwig",
            "CloudWatch",
            duration_minutes=30,
            interval_minutes=interval_minutes,
        )
        records = pair["replay"][1].records
        assert len(records) == expected_intervals
        times = [r.time_minutes for r in records]
        assert times == [k * interval_minutes for k in range(expected_intervals)]

    def test_half_interval_with_faults(self):
        plan = FaultPlan(seed=5, message_delay_rate=0.4, message_delay_minutes=0.7)
        pair = _run_pair(
            "hedwig",
            "DCA-100%",
            duration_minutes=20,
            interval_minutes=0.5,
            fault_plan=plan,
            path_timeout_minutes=5.0,
        )
        _assert_pair_parity(pair)


class TestBoundaryDelays:
    def test_delay_landing_exactly_on_boundary(self):
        """delay == interval length: ETA falls exactly on the next boundary."""
        plan = FaultPlan(seed=11, message_delay_rate=0.6, message_delay_minutes=1.0)
        pair = _run_pair(
            "hedwig",
            "DCA-100%",
            duration_minutes=40,
            fault_plan=plan,
            path_timeout_minutes=5.0,
        )
        _assert_pair_parity(pair)
        metrics = pair["live"][2]["metrics"]
        delivered = metrics["tracker.delayed_messages_delivered"]["value"]
        assert delivered > 0

    def test_fractional_delay(self):
        """A mid-interval ETA is delivered at the first boundary after it."""
        plan = FaultPlan(seed=11, message_delay_rate=0.6, message_delay_minutes=1.5)
        pair = _run_pair(
            "hedwig",
            "DCA-100%",
            duration_minutes=40,
            fault_plan=plan,
            path_timeout_minutes=5.0,
        )
        _assert_pair_parity(pair)
        metrics = pair["live"][2]["metrics"]
        assert metrics["tracker.delayed_messages_delivered"]["value"] > 0


class TestEventClockedFailureRolls:
    """_inject_failures consumes the simulation clock, not whole-minute ticks.

    The counts are pinned so any change to the roll schedule (the
    ``dt = now - last_roll`` accounting) shows up as a diff, and replay
    on and off must reproduce them exactly.
    """

    @pytest.mark.parametrize(
        "failure_seed,rate,expected_failed",
        [(3, 0.05, 68), (11, 0.02, 30)],
    )
    def test_pinned_seeded_counts(self, failure_seed, rate, expected_failed):
        pair = _run_pair(
            "hedwig",
            "ElasticRMI",
            duration_minutes=60,
            node_failure_rate=rate,
            failure_seed=failure_seed,
        )
        _assert_pair_parity(pair)
        assert pair["live"][0].nodes_failed_total == expected_failed
        assert pair["replay"][0].nodes_failed_total == expected_failed


class TestReplayCutover:
    def test_replay_engages_on_long_plain_runs(self):
        pair = _run_pair("marketcetera", "DCA-100%", duration_minutes=160)
        _assert_pair_parity(pair)
        assert pair["live"][0].ingestor is None
        ingestor = pair["replay"][0].ingestor
        assert ingestor is not None
        assert ingestor.replaying
        assert ingestor.replayed_executions > 0
        assert ingestor.cutover_minute is not None

    def test_replay_disabled_under_faults(self):
        """Fault-injected runs must take the full-fidelity path."""
        plan = FaultPlan(seed=3, message_drop_rate=0.1)
        pair = _run_pair(
            "hedwig",
            "DCA-100%",
            duration_minutes=40,
            fault_plan=plan,
            path_timeout_minutes=5.0,
        )
        _assert_pair_parity(pair)
        assert pair["replay"][0].ingestor is None

    def test_replay_disabled_for_baseline_managers(self):
        pair = _run_pair("hedwig", "CloudWatch", duration_minutes=40)
        _assert_pair_parity(pair)
        assert pair["replay"][0].ingestor is None
