"""Tests of the end-to-end benchmark itself.

Run from the repository root with ``python -m pytest e2ebench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench import fidelity, run, workloads  # noqa: E402
from e2ebench.ledger import LAYERS, Tracer  # noqa: E402
from e2ebench.workloads import (  # noqa: E402
    WORKLOADS,
    SimRun,
    compare_digests,
    fig8_runs,
    plan,
    run_pass,
)
from repro.evalx import experiment, reporting  # noqa: E402

TINY_MINUTES = 4


@pytest.fixture(autouse=True)
def tiny_runs(monkeypatch):
    """Every workload's runs shortened to a few simulated minutes."""
    monkeypatch.setattr(workloads, "MINUTES", dict.fromkeys(WORKLOADS, TINY_MINUTES))


def _main(capsys, *argv):
    assert run.main(["--seconds", "0", *argv]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric_with_unit(capsys, workload, trace):
    text, result = _main(capsys, "--workload", workload, "--trace", trace)
    expected = dict(run.PER_LAYER if trace == "1" else run.END_TO_END)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    fig8_pass = 0 if workload == "paper-table" else len(fig8_runs(7))
    assert result["attempted"] == len(plan(workload, 7)) * (1 + int(trace)) + fig8_pass
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(
            line.split()[:1] == [name] and line.split()[2] == unit for line in text
        ), name


def test_fig8_metrics_come_from_the_paper_table_cells_on_every_workload(capsys):
    gaps = {}
    for workload in WORKLOADS:
        text, result = _main(capsys, "--workload", workload, "--seed", "11")
        gaps[workload] = result["metrics"]["fig8_agility_gap"]["value"]
    reference = run.fidelity_metrics(run_pass(fig8_runs(11)))["fig8_agility_gap"][0]
    assert gaps == dict.fromkeys(WORKLOADS, reference)


def test_failing_run_is_counted_in_error_rate(capsys, monkeypatch):
    def with_bad_run(workload, seed):
        return plan(workload, seed) + [SimRun("hedwig", "NoSuchManager", TINY_MINUTES, seed)]

    monkeypatch.setattr(run, "plan", with_bad_run)
    text, result = _main(capsys, "--workload", "paper-table")
    attempted = len(plan("paper-table", 7)) + 1
    assert result["attempted"] == attempted
    assert result["failed"] == 1
    assert result["correct"] is False
    error_line = next(line for line in text if line.split()[0] == "error_rate")
    assert float(error_line.split()[1]) == pytest.approx(1 / attempted, abs=1e-6)


def test_wrong_interval_count_fails_the_run(monkeypatch):
    real_run = experiment.ClusterSimulator.run

    def short_run(self):
        result = real_run(self)
        result.records.pop()
        return result

    monkeypatch.setattr(experiment.ClusterSimulator, "run", short_run)
    result = run_pass([SimRun("hedwig", "CloudWatch", TINY_MINUTES, 7)])
    assert result.failed == 1
    assert "interval records" in result.outcomes[0].failure


def test_table_check_fails_runs_missing_from_the_table(monkeypatch):
    def blank_table(results_by_app):
        return reporting.format_table(
            ["Application", "CloudWatch"], [[app, "-"] for app in sorted(results_by_app)]
        )

    runs = [SimRun("hedwig", "CloudWatch", TINY_MINUTES, 7)]
    assert run_pass(runs, tables=True).failed == 0
    monkeypatch.setattr(reporting, "sla_table", blank_table)
    result = run_pass(runs, tables=True)
    assert result.failed == 1
    assert "no table cell" in result.outcomes[0].failure


PAPER_ORDER = ["DCA-10%", "DCA-5%", "DCA-20%", "ElasticRMI", "DCA-100%", "HTrace+CW", "CloudWatch"]


def _cells(order, app="marketcetera"):
    return {(app, manager): float(rank) for rank, manager in enumerate(order)}


def test_rank_inversions_on_hand_built_orderings():
    assert fidelity.rank_inversions(_cells(PAPER_ORDER)) == 0
    swapped = PAPER_ORDER[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert fidelity.rank_inversions(_cells(swapped)) == 1
    assert fidelity.rank_inversions(_cells(PAPER_ORDER[::-1])) == 21
    both = {**_cells(PAPER_ORDER[::-1]), **_cells(swapped, app="hedwig")}
    assert fidelity.rank_inversions(both) == 22
    tie = {("hedwig", "DCA-10%"): 1.0, ("hedwig", "DCA-5%"): 1.0}
    assert fidelity.rank_inversions(tie) == 0
    # Apps and managers without a paper value are ignored.
    assert fidelity.rank_inversions({("zookeeper", "DCA-10%"): 9.0, **tie}) == 0


def test_agility_gap_of_the_experiments_table():
    measured = {
        "marketcetera": [20.68, 8.30, 17.52, 15.98, 6.64, 6.43, 7.11],
        "hedwig": [11.92, 7.16, 10.23, 7.90, 4.02, 4.00, 4.54],
    }
    cells = {
        (app, manager): value
        for app, values in measured.items()
        for manager, value in zip(experiment.MANAGER_NAMES, values)
    }
    assert fidelity.agility_gap(cells) == pytest.approx(34.78 / 14)
    assert fidelity.rank_inversions(cells) == 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("b.inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("a.outer", outer_body)
    outer()
    totals = tracer.layer_totals()
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert totals["b"]["calls"] == 2
    assert totals["b"]["self_s"] == pytest.approx(durations[1] + durations[2])
    assert totals["a"]["self_s"] == pytest.approx(durations[0] - durations[1] - durations[2])
    assert tracer.root_seconds() == pytest.approx(durations[0])
    assert tracer.count_within("b.inner", "a.outer") == 2


def test_ledger_sums_to_traced_wall_and_wrappers_only_observe():
    runs = plan("fault-sweep", 7)[:20] + plan("paper-table", 7)
    untraced = run_pass(runs, tables=False)
    originals = (experiment.build_simulator, experiment.ClusterSimulator.run_interval)
    tracer = Tracer()
    with tracer.installed():
        assert experiment.build_simulator is not originals[0]
        traced = run_pass(runs, tracer=tracer)
    assert (experiment.build_simulator, experiment.ClusterSimulator.run_interval) == originals

    compare_digests(untraced, traced)
    assert traced.failed == 0 and untraced.failed == 0
    assert len({o.run.seed for o in traced.outcomes}) > 1
    assert set(tracer.trace) == set(range(len(runs)))

    metrics = run.ledger_metrics(traced, tracer, untraced.wall_s, untraced)
    self_times = [value for name, (value, _) in metrics.items() if name.endswith("self_s")]
    assert len(self_times) == len(LAYERS)
    assert min(self_times) >= -1e-9
    assert metrics["untraced_s"][0] >= 0
    assert sum(self_times) + metrics["untraced_s"][0] == pytest.approx(traced.wall_s, abs=1e-9)
    assert metrics["runtime.calls"][0] > 0 and metrics["faults.calls"][0] > 0

