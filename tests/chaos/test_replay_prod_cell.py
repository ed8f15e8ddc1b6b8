"""Chaos coverage for the newly replay-eligible production configs.

Eligibility relaxation (sharded/batched memory stores may freeze and
replay) must not leak into the chaos matrix: every faulted cell takes
the full-fidelity path regardless of store shape, the pinned 144-cell
grid is untouched, and the fault-free production config passes the
temporal invariants *with the cutover engaged*.  Worker fan-out over
the production cells stays bit-identical to a serial sweep — the same
digest contract the store-backend override tests pin.
"""

from repro.apps.catalog import load_scenario
from repro.chaos.invariants import check_all
from repro.chaos.matrix import ChaosMatrix, MatrixConfig
from repro.chaos.runner import run_matrix
from repro.core.elasticity import DCAManagerConfig, StalenessPolicy
from repro.evalx.experiment import DCA_RATES, ExperimentConfig, build_simulator
from repro.sim.engine import SimulationConfig
from repro.sim.tap import SimTap
from repro.telemetry import MetricsRegistry

MATRIX = ChaosMatrix(MatrixConfig(duration_minutes=20))
_SELECTED = MATRIX.select(25)
#: The production store shape (--shards 4 --batch-size 32), one cell per
#: profiler tier.
PROD_EXACT = next(
    c
    for c in _SELECTED
    if c.num_shards == 4 and c.write_batch_size == 32 and c.profiler_mode == "exact"
)
PROD_TOPK = next(
    c
    for c in _SELECTED
    if c.num_shards == 4 and c.write_batch_size == 32 and c.profiler_mode == "topk"
)


def test_grid_stays_pinned():
    """Relaxed eligibility is a runtime fast path, not a matrix axis."""
    assert MATRIX.total_cells == 144


def _run_cell_exposing_simulator(cell):
    """Exactly ``run_cell``'s wiring, but keeping the simulator around
    so the test can inspect the simulator's replay state."""
    scenario = load_scenario(cell.app)
    config = ExperimentConfig(
        duration_minutes=cell.duration_minutes,
        seed=cell.seed_for(0),
        num_shards=cell.num_shards,
        write_batch_size=cell.write_batch_size,
        profiler_mode=cell.profiler_mode,
    )
    registry = MetricsRegistry()
    tap = SimTap()
    manager_config = None
    rate = DCA_RATES.get(cell.manager)
    if rate is not None:
        manager_config = DCAManagerConfig(
            sampling_rate=rate, staleness=StalenessPolicy()
        )
    simulator = build_simulator(
        scenario,
        cell.manager,
        config,
        registry=registry,
        fault_plan=cell.fault_plan(0),
        path_timeout_minutes=cell.path_timeout_minutes,
        manager_config=manager_config,
        tap=tap,
    )
    simulator.run()
    return simulator, tap


class TestFaultedProductionCellsStayFullFidelity:
    def test_faulted_prod_cells_never_engage_replay(self):
        """Sharded/batched is now replay-eligible — but only fault-free:
        a faulted cell must still run full-fidelity ingestion and pass
        every temporal invariant."""
        for cell in (PROD_EXACT, PROD_TOPK):
            simulator, tap = _run_cell_exposing_simulator(cell)
            assert simulator.ingestor is None, cell.cell_id
            detector = getattr(simulator.manager, "staleness_detector", None)
            fresh_after = (
                detector.policy.fresh_after_intervals if detector is not None else 2
            )
            violations = check_all(tap, fresh_after_intervals=fresh_after)
            assert not violations, (cell.cell_id, violations)


class TestFaultFreeProductionConfigUnderInvariants:
    def test_cutover_run_passes_temporal_invariants(self):
        """The fast path itself under the chaos lens: a fault-free
        sharded/batched run with the cutover engaged must satisfy the
        same invariant set the matrix audits."""
        config = ExperimentConfig(
            duration_minutes=24,
            seed=7,
            sim=SimulationConfig(max_live_traces_per_class=16),
            num_shards=4,
            write_batch_size=32,
        )
        tap = SimTap()
        simulator = build_simulator(
            load_scenario("marketcetera"),
            "DCA-100%",
            config,
            registry=MetricsRegistry(),
            tap=tap,
        )
        simulator.run()
        ingestor = simulator.ingestor
        assert ingestor is not None and ingestor.replaying
        assert not check_all(tap)


class TestWorkerSweepOverProductionCells:
    def test_pool_sweep_matches_serial_digests(self):
        """--workers fan-out over the production cells (both profiler
        tiers, sketch state included) reproduces the serial sweep
        bit-for-bit."""
        cells = [PROD_EXACT, PROD_TOPK]
        pooled = run_matrix(cells, repeats=1, workers=2)
        serial = run_matrix(cells, repeats=1, workers=1)
        for pool_report, serial_report in zip(pooled, serial):
            assert pool_report.cell.cell_id == serial_report.cell.cell_id
            for pool_run, serial_run in zip(pool_report.runs, serial_report.runs):
                assert pool_run.telemetry_digest == serial_run.telemetry_digest
                assert pool_run.violations == serial_run.violations
                assert pool_run.headline == serial_run.headline
