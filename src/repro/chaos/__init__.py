"""Chaos-matrix fault exploration with temporal invariant checking.

Systematic state-space exploration of the fault subsystem (Clotho-style):
:mod:`~repro.chaos.matrix` enumerates a deterministic seeded grid over
fault profiles x windows x crash schedules x store/profiler
configurations; :mod:`~repro.chaos.runner` executes cells in parallel,
evaluates the temporal invariants of :mod:`~repro.chaos.invariants`
over each run's :class:`~repro.sim.tap.SimTap` event stream, and scores
cells with the confidence-aware statistics of
:mod:`~repro.chaos.reliability`.  Any failing cell replays
bit-identically from its cell id (``repro chaos --replay``).
"""

from repro.chaos.invariants import INVARIANT_NAMES, Violation, check_all
from repro.chaos.matrix import (
    ChaosCell,
    ChaosMatrix,
    FAULT_PROFILES,
    MatrixConfig,
)
from repro.chaos.reliability import ReliabilityScore, reliability_score
from repro.chaos.runner import (
    CellReport,
    CellRunResult,
    load_replay_bundle,
    replay_cell,
    run_cell,
    run_matrix,
    telemetry_digest,
    write_replay_bundle,
)

__all__ = [
    "INVARIANT_NAMES",
    "Violation",
    "check_all",
    "ChaosCell",
    "ChaosMatrix",
    "FAULT_PROFILES",
    "MatrixConfig",
    "ReliabilityScore",
    "reliability_score",
    "CellReport",
    "CellRunResult",
    "load_replay_bundle",
    "replay_cell",
    "run_cell",
    "run_matrix",
    "telemetry_digest",
    "write_replay_bundle",
]
