"""The replay fast path must refuse journaling store backends.

Converged replay freezes a telemetry delta and stops feeding the store;
with a journaling backend that would leave the durable log silently
incomplete (records for replayed executions simply never written).  The
eligibility gate lives in ``supports_snapshot_replay`` (part of
:meth:`~repro.sim.events.ReplayIngestor.eligible`) and is enforced
twice: at :class:`~repro.sim.events.ReplayIngestor` construction and
re-checked at the freeze cutover.  These tests pin both seams plus the
tick loop's fallback to full-fidelity ingestion.
"""

import inspect

import pytest

from repro.apps.catalog import load_scenario
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.sim.events import ReplayIngestor
from repro.telemetry import MetricsRegistry


def _simulator(backend, tmp_path):
    config = ExperimentConfig(
        duration_minutes=8, seed=7, store_backend=backend,
        store_dir=str(tmp_path / backend) if backend == "log" else None,
    )
    return build_simulator(
        load_scenario("hedwig"), "DCA-10%", config, registry=MetricsRegistry()
    )


def test_supports_snapshot_replay_is_backend_gated(tmp_path):
    assert _simulator("memory", tmp_path).dca.tracker.supports_snapshot_replay
    simulator = _simulator("log", tmp_path)
    try:
        assert not simulator.dca.tracker.supports_snapshot_replay
    finally:
        simulator.dca.tracker.store.close()


def test_replay_ingestor_refuses_journaling_backend(tmp_path):
    simulator = _simulator("log", tmp_path)
    try:
        with pytest.raises(ValueError, match="snapshot replay"):
            ReplayIngestor(simulator)
    finally:
        simulator.dca.tracker.store.close()


def test_event_runner_falls_back_to_full_ingestion(tmp_path):
    simulator = _simulator("log", tmp_path)
    assert not ReplayIngestor.eligible(simulator)
    simulator.run()
    assert simulator.ingestor is None

    eligible = _simulator("memory", tmp_path)
    assert ReplayIngestor.eligible(eligible)
    eligible.run()
    assert eligible.ingestor is not None


def test_freeze_cutover_rechecks_eligibility():
    """Introspection pin: the cutover re-reads ``supports_snapshot_replay``.

    Construction-time checks alone would miss a store/backend swap after
    the ingestor was built; the freeze condition must consult the
    tracker's *live* eligibility.  Pinned on source (the check has no
    behavioural trace in an eligible run) so a refactor that drops the
    re-check fails here, not in a silent-data-loss postmortem.
    """
    source = inspect.getsource(ReplayIngestor.ingest)
    assert "supports_snapshot_replay" in source


def test_frozen_run_would_skip_journal_writes(tmp_path):
    """Why the gate exists: replay executes nothing, so nothing journals.

    A memory-backend run cuts over to replay; if that were allowed
    on the log backend, every post-cutover execution would be absent
    from the log.  Assert the premise: the eligible run really does stop
    live-executing after convergence.
    """
    simulator = _simulator("memory", tmp_path)
    simulator.config.duration_minutes = 120
    simulator.run()
    ingestor = simulator.ingestor
    assert ingestor is not None and ingestor.replaying
    assert ingestor.replayed_executions > 0
