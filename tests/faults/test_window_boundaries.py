"""The half-open fault-window contract, pinned at exact boundary minutes.

``FaultPlan.active_at`` is ``[start_minute, end_minute)``: a roll at
exactly ``end_minute`` is outside the outage.  The unit tests pin the
predicate itself; the parity tests run each boundary case with replay
off and on and require identical rolls inside the window when its
edges land exactly on interval boundaries — for any
``interval_minutes``.  Faulted runs are ineligible for replay, so both
sides must stay on live ingestion.
"""

import math

import pytest

from repro.faults.plan import FaultPlan, NodeCrash
from repro.sim.parity import run_replay_parity


def _assert_ok(report):
    assert report.ok, "\n".join(
        [report.summary()]
        + report.record_diffs
        + report.snapshot_diffs
        + report.state_diffs
    )
    assert report.replay_engaged is None, "faulted runs must stay live"


class TestActiveAtSemantics:
    def test_half_open_at_exact_boundaries(self):
        plan = FaultPlan(message_drop_rate=0.5, start_minute=4.0, end_minute=16.0)
        assert plan.active_at(4.0), "start minute is inside (closed left edge)"
        assert not plan.active_at(16.0), "end minute is outside (open right edge)"
        assert plan.active_at(15.999999)
        assert not plan.active_at(16.000001)
        assert not plan.active_at(3.999999)

    def test_default_window_is_always_active(self):
        plan = FaultPlan(message_drop_rate=0.1)
        assert plan.active_at(0.0)
        assert plan.active_at(1e9)
        assert plan.end_minute == math.inf

    def test_zero_length_window_rejected(self):
        from repro.errors import FaultPlanError

        with pytest.raises(FaultPlanError):
            FaultPlan(start_minute=5.0, end_minute=5.0)

    def test_crashes_ignore_the_window(self):
        """Scheduled crashes are events, not rates: the window is not consulted."""
        plan = FaultPlan(
            start_minute=4.0,
            end_minute=16.0,
            node_crashes=(NodeCrash(minute=20.0, component="*", count=1),),
        )
        assert not plan.active_at(20.0)
        assert plan.node_crashes[0].minute == 20.0


class TestEngineBoundaryAgreement:
    """Replay on and off must make identical rolls when window edges hit ticks."""

    @pytest.mark.parametrize("seed", (7, 23, 41))
    def test_end_on_default_interval_boundary(self, seed):
        report = run_replay_parity(
            "hedwig",
            "DCA-10%",
            duration_minutes=24,
            seed=seed,
            fault_plan=FaultPlan(
                seed=seed,
                message_drop_rate=0.25,
                message_duplicate_rate=0.10,
                start_minute=4.0,
                end_minute=16.0,
            ),
            path_timeout_minutes=5.0,
        )
        _assert_ok(report)

    def test_end_on_coarse_interval_boundary(self):
        """interval=2.0 with the window's edges on even minutes."""
        report = run_replay_parity(
            "hedwig",
            "DCA-10%",
            duration_minutes=24,
            fault_plan=FaultPlan(
                seed=7,
                message_drop_rate=0.30,
                store_write_failure_rate=0.20,
                start_minute=4.0,
                end_minute=16.0,
            ),
            path_timeout_minutes=5.0,
            interval_minutes=2.0,
        )
        _assert_ok(report)

    def test_fractional_interval_boundary(self):
        """interval=1.5: edges at 4.5 and 15.0 are exact tick multiples."""
        report = run_replay_parity(
            "hedwig",
            "DCA-10%",
            duration_minutes=24,
            fault_plan=FaultPlan(
                seed=11,
                message_drop_rate=0.20,
                message_delay_rate=0.15,
                message_delay_minutes=3.0,
                start_minute=4.5,
                end_minute=15.0,
            ),
            path_timeout_minutes=5.0,
            interval_minutes=1.5,
        )
        _assert_ok(report)

    def test_window_ending_at_run_end(self):
        """end_minute == duration: the last tick's rolls are all outside."""
        report = run_replay_parity(
            "hedwig",
            "DCA-10%",
            duration_minutes=20,
            fault_plan=FaultPlan(
                seed=7,
                message_drop_rate=0.25,
                start_minute=0.0,
                end_minute=20.0,
            ),
            path_timeout_minutes=5.0,
        )
        _assert_ok(report)

    def test_crash_at_window_end_boundary(self):
        """A crash scheduled exactly at end_minute still fires (no window)."""
        report = run_replay_parity(
            "zookeeper",
            "DCA-10%",
            duration_minutes=24,
            fault_plan=FaultPlan(
                seed=7,
                message_drop_rate=0.15,
                start_minute=4.0,
                end_minute=12.0,
                node_crashes=(NodeCrash(minute=12.0, component="*", count=1),),
            ),
            path_timeout_minutes=5.0,
        )
        _assert_ok(report)
