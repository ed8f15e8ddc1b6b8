"""The benchmark's workloads and the code that runs one pass of one.

A workload is a fixed list of simulation runs made from the seed.  A pass
runs them one at a time in this process, each at the default
configuration (tick loop, memory store, exact profiler, one shard, batch
1) with its own private :class:`~repro.telemetry.MetricsRegistry`, and
checks every run's output.  A run that raises or fails a check is
recorded as failed; it never stops the pass.

The simulator is driven only through its public entry points, looked up
as module attributes so that the tracer in :mod:`e2ebench.ledger` can
wrap them.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.apps import catalog
from repro.chaos import invariants
from repro.chaos.runner import telemetry_digest
from repro.core.elasticity import DCAManagerConfig, StalenessPolicy
from repro.evalx import experiment, reporting
from repro.faults.scenarios import FAULT_SCENARIOS, build_fault_plan
from repro.sim.tap import SimTap
from repro.telemetry import MetricsRegistry

from e2ebench.fidelity import PAPER_FIG8

#: BENCHMARK.json at the repository root: the one list of workloads and
#: metrics, with their units.
SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in SPEC["workloads"])

APPS: Tuple[str, ...] = ("marketcetera", "hedwig", "zookeeper")

#: Simulated minutes per run at full size.
MINUTES: Mapping[str, int] = {"paper-table": 450, "fault-sweep": 40}

#: Seeds per (fault scenario, app) on fault-sweep: enough that the
#: seed-to-seed spread of its SLA mean stays well inside its bound.
FAULT_SEEDS = 8
FAULT_MANAGERS: Tuple[str, ...] = ("DCA-10%", "CloudWatch")
#: The path timeout ``repro chaos`` gives a cell.
FAULT_PATH_TIMEOUT_MINUTES = 5.0


@dataclass(frozen=True)
class SimRun:
    """One simulation: a manager over an app for a duration at a seed."""

    app: str
    manager: str
    minutes: int
    seed: int
    #: Fault scenario name; a faulted run is wired like a chaos cell.
    fault: Optional[str] = None

    @property
    def is_dca(self) -> bool:
        return self.manager in experiment.DCA_RATES


def derived_seed(seed: int, repeat: int) -> int:
    """Seed of the ``repeat``-th repetition, spaced as chaos cells space theirs."""
    return (seed + repeat * 7919) % (2**31 - 1)


def plan(workload: str, seed: int) -> List[SimRun]:
    """The runs of ``workload`` at ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    length = MINUTES[workload]
    if workload == "paper-table":
        return [
            SimRun(app, manager, length, seed)
            for app in APPS
            for manager in experiment.MANAGER_NAMES
        ]
    return [
        SimRun(app, manager, length, derived_seed(seed, repeat), fault=scenario)
        for scenario in FAULT_SCENARIOS
        for app in APPS
        for repeat in range(FAULT_SEEDS)
        for manager in FAULT_MANAGERS
    ]


def fig8_runs(seed: int) -> List[SimRun]:
    """The paper-table runs that have a paper Fig. 8 value (14 cells)."""
    return [run for run in plan("paper-table", seed) if run.app in PAPER_FIG8]


@dataclass
class RunOutcome:
    """What one simulation run produced, timed and checked."""

    run: SimRun
    setup_s: float = 0.0
    run_s: float = 0.0
    failure: Optional[str] = None
    record_digest: str = ""
    telemetry_digest: str = ""
    agility: float = 0.0
    sla_pct: float = 0.0
    #: Counter and gauge values of the run's registry, summed over labels.
    counters: Dict[str, float] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        if self.failure is None:
            self.failure = reason


@dataclass
class PassResult:
    """One pass over every run of a workload."""

    outcomes: List[RunOutcome]
    wall_s: float

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.failure is not None)


def record_digest(records: Sequence[object]) -> str:
    """sha256 over the exact repr of an ``IntervalRecord`` stream."""
    return hashlib.sha256(repr(list(records)).encode("utf-8")).hexdigest()


def _counters(snapshot: Mapping[str, object]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for key, data in snapshot["metrics"].items():
        if data["type"] in ("counter", "gauge"):
            totals[key.split("{", 1)[0]] += data["value"]
    return dict(totals)


def execute(run: SimRun):
    """Build, run and check one simulation.

    Returns the outcome and the :class:`~repro.sim.metrics.SimulationResult`
    (``None`` when the run raised).
    """
    outcome = RunOutcome(run)
    registry = MetricsRegistry()
    tap = SimTap() if run.fault is not None else None
    try:
        fault_kwargs = {}
        if run.fault is not None:
            fault_kwargs = {
                "fault_plan": build_fault_plan(run.fault, run.seed),
                "path_timeout_minutes": FAULT_PATH_TIMEOUT_MINUTES,
                "tap": tap,
            }
            if run.is_dca:
                fault_kwargs["manager_config"] = DCAManagerConfig(
                    sampling_rate=experiment.DCA_RATES[run.manager],
                    staleness=StalenessPolicy(),
                )
        t0 = perf_counter()
        scenario = catalog.load_scenario(run.app)
        simulator = experiment.build_simulator(
            scenario,
            run.manager,
            experiment.ExperimentConfig(duration_minutes=run.minutes, seed=run.seed),
            registry=registry,
            **fault_kwargs,
        )
        t1 = perf_counter()
        result = simulator.run()
        t2 = perf_counter()
    except Exception as exc:  # a failed run is counted, never fatal
        traceback.print_exc(file=sys.stderr)
        outcome.fail(f"{type(exc).__name__}: {exc}")
        return outcome, None
    outcome.setup_s = t1 - t0
    outcome.run_s = t2 - t1
    if len(result.records) != run.minutes:
        outcome.fail(f"{len(result.records)} interval records, expected {run.minutes}")
    else:
        outcome.agility = result.agility()
        outcome.sla_pct = result.sla_violation_percent()
    if tap is not None:
        detector = getattr(simulator.manager, "staleness_detector", None)
        fresh_after = detector.policy.fresh_after_intervals if detector is not None else 2
        violations = invariants.check_all(tap, fresh_after_intervals=fresh_after)
        if violations:
            outcome.fail(f"{len(violations)} chaos invariant violation(s): {violations[0]}")
    snapshot = registry.snapshot()
    outcome.record_digest = record_digest(result.records)
    outcome.telemetry_digest = telemetry_digest(snapshot)
    outcome.counters = _counters(snapshot)
    ingestor = getattr(getattr(simulator, "event_runner", None), "ingestor", None)
    if ingestor is not None:
        outcome.counters["replay.replayed_executions"] = ingestor.replayed_executions
        outcome.counters["replay.live_executions"] = ingestor.live_executions
    return outcome, result


def _check_tables(outcomes: Sequence[RunOutcome], results: Mapping[int, object]) -> None:
    """Render the Fig. 8 and SLA tables; every app row and run cell must exist."""
    by_app: Dict[str, Dict[str, object]] = defaultdict(dict)
    for idx, outcome in enumerate(outcomes):
        if idx in results:
            by_app[outcome.run.app][outcome.run.manager] = results[idx]
    for table in (reporting.fig8_table(by_app), reporting.sla_table(by_app)):
        header, _rule, *lines = table.splitlines()
        managers = header.split()[1:]
        rows = {line.split()[0]: dict(zip(managers, line.split()[1:])) for line in lines}
        for outcome in outcomes:
            if rows.get(outcome.run.app, {}).get(outcome.run.manager, "-") == "-":
                outcome.fail(f"no table cell for {outcome.run.app} / {outcome.run.manager}")


def run_pass(runs: Sequence[SimRun], tracer=None, tables: bool = False) -> PassResult:
    """Run every simulation once; ``tables`` also renders and checks the tables.

    With a ``tracer`` installed, each run gets its own trace id.
    """
    start = perf_counter()
    outcomes: List[RunOutcome] = []
    results: Dict[int, object] = {}
    for idx, run in enumerate(runs):
        if tracer is not None:
            tracer.trace_id = idx
        outcome, result = execute(run)
        outcomes.append(outcome)
        if result is not None and tables:
            results[idx] = result
    if tables:
        _check_tables(outcomes, results)
    return PassResult(outcomes, perf_counter() - start)


def compare_digests(reference: PassResult, other: PassResult) -> None:
    """Fail every run of ``other`` whose digests differ from ``reference``."""
    for ref, out in zip(reference.outcomes, other.outcomes):
        if ref.failure is None and out.failure is None and (
            ref.record_digest != out.record_digest
            or ref.telemetry_digest != out.telemetry_digest
        ):
            out.fail("record or telemetry digest differs between passes")
