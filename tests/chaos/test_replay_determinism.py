"""The chaos replay contract: 25 seeded cells reproduce bit-identically.

``repro chaos --replay <cell-id>`` must regenerate a failing run's full
telemetry snapshot digest, violations, and event stream from the cell id
alone — in a fresh process, and under sketch profiler modes.  The
25-cell subset below is the matrix's own deterministic selection, so it
provably spans both profiler modes and every store configuration.

Also covered: replay bundles (write/load round-trip plus the hardened
loader's failure cases) and the parallel runner's serial equivalence.
"""

import json

import pytest

from repro.chaos.matrix import STORE_CONFIGS, ChaosMatrix, MatrixConfig
from repro.chaos.runner import (
    CellRunResult,
    load_replay_bundle,
    replay_cell,
    run_cell,
    run_matrix,
    write_replay_bundle,
)
from repro.chaos.invariants import Violation
from repro.errors import EvaluationError, ParityArtifactError

#: Short-duration matrix so 25 cells x 2 runs stay tier-1 friendly.
MATRIX = ChaosMatrix(MatrixConfig(duration_minutes=20))
CELLS = MATRIX.select(25)


def test_subset_spans_the_interesting_axes():
    """The 25-seed property sweep must include topk and sharded/batched cells."""
    assert len(CELLS) == 25
    assert {c.profiler_mode for c in CELLS} == {"exact", "topk"}
    assert {(c.num_shards, c.write_batch_size) for c in CELLS} == set(STORE_CONFIGS)
    assert len({c.seed for c in CELLS}) == 25


class TestReplayBitIdentical:
    @pytest.mark.parametrize(
        "cell", CELLS, ids=[f"{c.cell_id}-{c.profiler_mode}" for c in CELLS]
    )
    def test_replay_reproduces_the_run(self, cell):
        original = run_cell(cell)
        # replay_cell itself raises EvaluationError on digest mismatch.
        replayed = replay_cell(
            MATRIX, cell.cell_id, expected_digest=original.telemetry_digest
        )
        assert replayed.telemetry_digest == original.telemetry_digest
        assert replayed.violations == original.violations
        assert replayed.event_counts == original.event_counts
        assert replayed.headline == original.headline
        assert replayed.seed == original.seed

    def test_repeat_replays_with_its_own_seed(self):
        cell = CELLS[0]
        first = run_cell(cell, repeat=1)
        again = replay_cell(
            MATRIX, cell.cell_id, repeat=1, expected_digest=first.telemetry_digest
        )
        assert again.telemetry_digest == first.telemetry_digest
        assert again.seed == cell.seed_for(1)
        # Different repeats are genuinely different runs.
        assert run_cell(cell, repeat=0).telemetry_digest != first.telemetry_digest

    def test_digest_mismatch_fails_loudly(self):
        with pytest.raises(EvaluationError, match="not replaying"):
            replay_cell(MATRIX, CELLS[0].cell_id, expected_digest="0" * 64)


class TestRunMatrix:
    def test_parallel_equals_serial(self):
        cells = MATRIX.select(4)
        serial = run_matrix(cells, repeats=2, workers=1)
        parallel = run_matrix(cells, repeats=2, workers=2)
        assert len(serial) == len(parallel) == 4
        for s_report, p_report in zip(serial, parallel):
            assert s_report.cell == p_report.cell
            for s_run, p_run in zip(s_report.runs, p_report.runs):
                assert s_run.telemetry_digest == p_run.telemetry_digest
                assert s_run.violations == p_run.violations
                assert s_run.event_counts == p_run.event_counts

    def test_score_covers_all_runs(self):
        reports = run_matrix(MATRIX.select(2), repeats=2, workers=1)
        for report in reports:
            assert report.score.runs == 2
            if report.passed:
                assert report.score.raw_rate == 1.0

    def test_bad_repeats_rejected(self):
        with pytest.raises(EvaluationError):
            run_matrix(MATRIX.select(1), repeats=0)

    def test_failing_runs_write_bundles(self, tmp_path, monkeypatch):
        from repro.chaos import runner as runner_mod

        cell = MATRIX.cell_at(0)

        def fake_run_cell(cell_arg, repeat=0, store_backend="memory", store_dir=None):
            return CellRunResult(
                cell_id=cell_arg.cell_id,
                repeat=repeat,
                seed=cell_arg.seed_for(repeat),
                violations=[Violation("no-resurrection", 5.0, "synthetic")],
                telemetry_digest="f" * 64,
                event_counts={"path_abandoned": 1},
                headline={},
            )

        monkeypatch.setattr(runner_mod, "run_cell", fake_run_cell)
        reports = run_matrix(
            [cell], repeats=2, workers=1, bundle_dir=str(tmp_path)
        )
        assert not reports[0].passed
        bundles = sorted(p.name for p in tmp_path.glob("chaos-*.json"))
        assert bundles == [
            f"chaos-{cell.cell_id}-r0.json",
            f"chaos-{cell.cell_id}-r1.json",
        ]


class TestReplayBundles:
    def _result(self, cell):
        return CellRunResult(
            cell_id=cell.cell_id,
            repeat=0,
            seed=cell.seed,
            violations=[Violation("replica-accounting", 3.0, "count moved")],
            telemetry_digest="a" * 64,
            event_counts={"replica_observed": 7},
            headline={"tracker.dead_letters": 2.0},
        )

    def test_roundtrip(self, tmp_path):
        cell = MATRIX.cell_at(140)
        path = write_replay_bundle(str(tmp_path), cell, self._result(cell))
        data = load_replay_bundle(path)
        assert data["cell_id"] == cell.cell_id
        assert data["telemetry_digest"] == "a" * 64
        assert data["violations"][0]["invariant"] == "replica-accounting"
        # The embedded cell dict regenerates the exact cell.
        from repro.chaos.matrix import ChaosCell

        assert ChaosCell.from_dict(data["cell"]) == cell

    def test_missing_bundle_rejected(self, tmp_path):
        with pytest.raises(ParityArtifactError, match="not found"):
            load_replay_bundle(str(tmp_path / "nope.json"))

    def test_empty_bundle_rejected(self, tmp_path):
        path = tmp_path / "chaos-empty.json"
        path.write_text("   \n")
        with pytest.raises(ParityArtifactError, match="empty"):
            load_replay_bundle(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "chaos-trunc.json"
        path.write_text('{"cell": {"grid_index": 3')
        with pytest.raises(ParityArtifactError, match="not valid JSON"):
            load_replay_bundle(str(path))

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "chaos-list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParityArtifactError, match="JSON object"):
            load_replay_bundle(str(path))

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "chaos-partial.json"
        path.write_text(json.dumps({"cell_id": "000-abc", "repeat": 0}))
        with pytest.raises(ParityArtifactError, match="missing required keys"):
            load_replay_bundle(str(path))
