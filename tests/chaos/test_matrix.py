"""Grid enumeration, cell identity, and subset selection.

The chaos matrix's whole value is determinism: the same grid index must
always decode to the same cell, the same cell must always mint the same
id, and the same ``--cells`` limit must always select the same —
axis-diverse — subset.  These tests pin all three, plus the digest gate
that keeps ``--replay`` honest across matrix-definition drift.
"""

import pytest

from repro.chaos.matrix import (
    CRASH_SCHEDULES,
    FAULT_PROFILES,
    FAULT_WINDOWS,
    PROFILER_MODES,
    STORE_CONFIGS,
    ChaosCell,
    ChaosMatrix,
    MatrixConfig,
)
from repro.errors import EvaluationError


class TestGridEnumeration:
    def test_total_is_axis_product(self):
        matrix = ChaosMatrix()
        expected = (
            len(FAULT_PROFILES)
            * len(FAULT_WINDOWS)
            * len(CRASH_SCHEDULES)
            * len(STORE_CONFIGS)
            * len(PROFILER_MODES)
        )
        assert matrix.total_cells == expected == 144

    def test_decode_roundtrip_is_bijective(self):
        """Every grid index decodes to a distinct axis combination."""
        matrix = ChaosMatrix()
        seen = set()
        for index in range(matrix.total_cells):
            cell = matrix.cell_at(index)
            assert cell.grid_index == index
            combo = (
                cell.fault_profile,
                cell.start_minute,
                cell.end_minute,
                cell.crash_schedule,
                cell.num_shards,
                cell.write_batch_size,
                cell.profiler_mode,
            )
            assert combo not in seen
            seen.add(combo)
        assert len(seen) == matrix.total_cells

    def test_innermost_axis_is_profiler_mode(self):
        matrix = ChaosMatrix()
        assert matrix.cell_at(0).profiler_mode == PROFILER_MODES[0]
        assert matrix.cell_at(1).profiler_mode == PROFILER_MODES[1]
        assert matrix.cell_at(0).fault_profile == matrix.cell_at(1).fault_profile

    def test_out_of_range_index_rejected(self):
        matrix = ChaosMatrix()
        with pytest.raises(EvaluationError):
            matrix.cell_at(-1)
        with pytest.raises(EvaluationError):
            matrix.cell_at(matrix.total_cells)


class TestCellIdentity:
    def test_seed_derivation_is_stable(self):
        cell = ChaosMatrix().cell_at(140)
        assert cell.seed == cell.seed
        assert cell.seed_for(0) == cell.seed
        assert cell.seed_for(1) != cell.seed_for(0)
        # Distinct cells never share a seed within a sweep's repeats.
        other = ChaosMatrix().cell_at(141)
        assert other.seed != cell.seed

    def test_cell_id_is_deterministic_and_param_sensitive(self):
        a = ChaosMatrix().cell_at(7)
        b = ChaosMatrix().cell_at(7)
        assert a.cell_id == b.cell_id
        # A different run-level parameter mints a different digest.
        c = ChaosMatrix(MatrixConfig(base_seed=99)).cell_at(7)
        assert c.cell_id != a.cell_id
        assert c.cell_id.split("-")[0] == a.cell_id.split("-")[0]

    def test_from_dict_roundtrip(self):
        cell = ChaosMatrix().cell_at(42)
        again = ChaosCell.from_dict(cell.canonical())
        assert again == cell
        assert again.cell_id == cell.cell_id

    def test_from_dict_missing_key_rejected(self):
        data = ChaosMatrix().cell_at(0).canonical()
        del data["profiler_mode"]
        with pytest.raises(EvaluationError):
            ChaosCell.from_dict(data)

    def test_fault_plan_reflects_cell(self):
        matrix = ChaosMatrix()
        for index in range(matrix.total_cells):
            cell = matrix.cell_at(index)
            plan = cell.fault_plan()
            assert plan.seed == cell.seed
            assert plan.start_minute == cell.start_minute
            assert plan.end_minute == cell.end_minute
            if cell.crash_schedule == "none":
                assert plan.node_crashes == ()
            else:
                assert plan.node_crashes
            # Repeats reseed the plan but keep its shape.
            again = cell.fault_plan(repeat=3)
            assert again.seed == cell.seed_for(3) != plan.seed
            assert again.start_minute == plan.start_minute


class TestSelect:
    def test_full_grid_when_unlimited(self):
        matrix = ChaosMatrix()
        assert len(matrix.select()) == matrix.total_cells
        assert len(matrix.select(10_000)) == matrix.total_cells

    def test_limit_yields_distinct_cells(self):
        matrix = ChaosMatrix()
        for limit in (1, 2, 7, 12, 64, 143):
            cells = matrix.select(limit)
            assert len(cells) == limit
            assert len({c.grid_index for c in cells}) == limit

    def test_small_subset_covers_every_axis(self):
        """The stride must not exhaust the outermost axis first."""
        cells = ChaosMatrix().select(12)
        assert {c.profiler_mode for c in cells} == set(PROFILER_MODES)
        assert {c.crash_schedule for c in cells} == set(CRASH_SCHEDULES)
        assert {(c.num_shards, c.write_batch_size) for c in cells} == set(
            STORE_CONFIGS
        )
        assert {(c.start_minute, c.end_minute) for c in cells} == set(FAULT_WINDOWS)
        assert len({c.fault_profile for c in cells}) >= 4

    def test_selection_is_deterministic(self):
        a = [c.grid_index for c in ChaosMatrix().select(20)]
        b = [c.grid_index for c in ChaosMatrix().select(20)]
        assert a == b

    def test_bad_limit_rejected(self):
        with pytest.raises(EvaluationError):
            ChaosMatrix().select(0)


class TestCellById:
    def test_roundtrip(self):
        matrix = ChaosMatrix()
        cell = matrix.cell_at(122)
        assert matrix.cell_by_id(cell.cell_id) == cell

    def test_malformed_id_rejected(self):
        matrix = ChaosMatrix()
        for bad in ("nodigest", "xx-abc", "", "12"):
            with pytest.raises(EvaluationError):
                matrix.cell_by_id(bad)

    def test_digest_mismatch_rejected(self):
        matrix = ChaosMatrix()
        index = matrix.cell_at(5).cell_id.split("-")[0]
        with pytest.raises(EvaluationError, match="does not match this matrix"):
            matrix.cell_by_id(f"{index}-deadbeef")

    def test_id_from_other_matrix_config_rejected(self):
        """An id minted under different run parameters must not replay."""
        foreign = ChaosMatrix(MatrixConfig(duration_minutes=10)).cell_at(5)
        with pytest.raises(EvaluationError, match="minted with different"):
            ChaosMatrix().cell_by_id(foreign.cell_id)
