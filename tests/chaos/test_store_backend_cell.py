"""Chaos cells on the log backend: same ids, same digests, same ledgers.

``--store-backend`` is a sweep-level override, not a matrix axis: cell
ids are digest-derived from the grid parameters and must stay stable, so
a log-backend sweep must reproduce the memory sweep bit-for-bit — the
telemetry digest (which covers the dead-letter ledger counters the
chaos invariants audit) is the witness.  The log-backend cell also
leaves a replayable journal behind: reopening it recovers the exact
surviving store state.
"""

import os

from repro.chaos.matrix import ChaosMatrix, MatrixConfig
from repro.chaos.runner import run_cell
from repro.evalx.experiment import _manager_slug
from repro.graphstore.backend import make_backend, shard_backends
from repro.graphstore.sharded import ShardedGraphStore
from repro.graphstore.store import GraphStore

MATRIX = ChaosMatrix(MatrixConfig(duration_minutes=20))
#: A deterministic slice of the selection: one unsharded and one sharded
#: exact-profiler cell.
CELLS = [c for c in MATRIX.select(25) if c.profiler_mode == "exact"]
UNSHARDED_CELL = next(c for c in CELLS if c.num_shards == 1)
SHARDED_CELL = next(c for c in CELLS if c.num_shards > 1)


def test_log_backend_cell_matches_memory_digest(tmp_path):
    for cell in (UNSHARDED_CELL, SHARDED_CELL):
        memory = run_cell(cell, repeat=0)
        logged = run_cell(
            cell, repeat=0, store_backend="log", store_dir=str(tmp_path)
        )
        assert logged.telemetry_digest == memory.telemetry_digest, cell.cell_id
        assert logged.violations == memory.violations
        assert logged.headline == memory.headline
        assert os.path.isdir(
            tmp_path / f"{cell.cell_id}-r0" / _manager_slug(cell.manager)
        )


def test_log_backend_cell_journal_reopens_after_the_run(tmp_path):
    cell = UNSHARDED_CELL
    run_cell(cell, repeat=1, store_backend="log", store_dir=str(tmp_path))
    directory = str(
        tmp_path / f"{cell.cell_id}-r1" / _manager_slug(cell.manager)
    )
    if cell.num_shards > 1:
        store = ShardedGraphStore(
            num_shards=cell.num_shards,
            backends=shard_backends(
                "log", cell.num_shards, directory, create=False
            ),
        )
    else:
        store = GraphStore(backend=make_backend("log", directory, create=False))
    replayed = store.recover()
    assert replayed > 0
    store.close()
