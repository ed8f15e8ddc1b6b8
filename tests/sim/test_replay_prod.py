"""Production-config fast paths, seeded across the board.

Two fast paths ship together and these are their acceptance gates:

* **Converged replay over sharded/batched stores** — 25 seeds of the
  fault-free DCA scenario at ``--shards 4 --batch-size 32`` must each
  engage the cutover *and* stay bit-identical to live ingestion (the
  :func:`~repro.sim.parity.run_replay_parity` report is the oracle).
* **Merged per-worker sketches** — ``--workers 4 --profiler-mode
  topk`` must run without any exact-mode fallback, and the merged
  top-k counts must sit within
  :data:`~repro.profiling.sketches.HOT_PATH_PROBABILITY_EPSILON` of
  the per-run reference sketches.

``max_live_traces_per_class=16`` compresses the warmup (16 executions
per tick per class) so the 48-identical-execution streak lands within a
24-minute run; the eligibility and soundness story is identical to the
default configuration.
"""

import pytest

from repro.apps.catalog import load_scenario
from repro.evalx.experiment import ExperimentConfig, MergedProfile, run_all_managers
from repro.profiling.sketches import HOT_PATH_PROBABILITY_EPSILON
from repro.sim.parity import run_replay_parity
from repro.telemetry import MetricsRegistry

SEEDS = range(25)


def _assert_ok(report):
    assert report.ok, "\n".join(
        [report.summary()]
        + report.record_diffs
        + report.snapshot_diffs
        + report.state_diffs
    )


class TestShardedBatchedReplayBitIdentity:
    """The tentpole gate: replay over production store configs."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cutover_engages_and_matches_tick_oracle(self, seed):
        report = run_replay_parity(
            "marketcetera",
            "DCA-100%",
            duration_minutes=24,
            seed=seed,
            num_shards=4,
            write_batch_size=32,
            max_live_traces_per_class=16,
        )
        _assert_ok(report)
        assert report.replay_engaged, "cutover must engage on the fast-path config"
        assert report.replayed_executions > 0

    def test_batched_unsharded_also_engages(self):
        report = run_replay_parity(
            "marketcetera",
            "DCA-100%",
            duration_minutes=24,
            seed=7,
            num_shards=1,
            write_batch_size=32,
            max_live_traces_per_class=16,
        )
        _assert_ok(report)
        assert report.replay_engaged

    def test_sharded_unbatched_also_engages(self):
        report = run_replay_parity(
            "marketcetera",
            "DCA-100%",
            duration_minutes=24,
            seed=7,
            num_shards=4,
            write_batch_size=1,
            max_live_traces_per_class=16,
        )
        _assert_ok(report)
        assert report.replay_engaged


def _topk_sweep(workers):
    managers = ("DCA-100%", "DCA-20%", "DCA-10%", "DCA-5%")
    profile = MergedProfile()
    config = ExperimentConfig(
        duration_minutes=40,
        seed=7,
        num_shards=4,
        write_batch_size=32,
        profiler_mode="topk",
        profiler_topk=128,
    )
    run_all_managers(
        load_scenario("hedwig"),
        managers=managers,
        config=config,
        workers=workers,
        registry=MetricsRegistry(),
        profile=profile,
    )
    return profile


class TestWorkersTopkMerge:
    """--workers 4 --profiler-mode topk: merged sketches, no fallback."""

    def test_merged_counts_within_epsilon_of_per_run_reference(self):
        profile = _topk_sweep(workers=4)
        assert profile.profiler is not None
        # No exact-mode fallback anywhere: the sweep profiler and every
        # per-manager checkpoint stay in the sketch tier.
        assert profile.profiler.mode == "topk"
        assert len(profile.by_manager) == 4
        assert all(p.mode == "topk" for p in profile.by_manager.values())

        now = max(p.last_record_minutes for p in profile.by_manager.values())
        merged = profile.profiler.counts(now)
        reference = {}
        for run_profiler in profile.by_manager.values():
            for path_id, count in run_profiler.counts(now).items():
                reference[path_id] = reference.get(path_id, 0) + count
        total = max(1, sum(reference.values()))
        assert merged, "merged profile saw no paths"
        for path_id, ref_count in reference.items():
            p_merged = merged.get(path_id, 0) / total
            p_ref = ref_count / total
            assert abs(p_merged - p_ref) <= HOT_PATH_PROBABILITY_EPSILON, path_id

    def test_pool_merge_matches_serial_merge(self):
        """Worker fan-out must not change the merged profile at all."""
        pooled = _topk_sweep(workers=4)
        serial = _topk_sweep(workers=1)
        now = max(p.last_record_minutes for p in pooled.by_manager.values())
        assert pooled.profiler.counts(now) == serial.profiler.counts(now)
        assert pooled.profiler.sample_total_between(
            0.0, now
        ) == serial.profiler.sample_total_between(0.0, now)
