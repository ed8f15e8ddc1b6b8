"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload paper-table [--seed 7] [--seconds 60] [--trace 0]

``--trace 0`` repeats untraced passes of the workload for at most
``--seconds`` (at least one pass) and reports the end-to-end metrics as medians
over the passes.  ``--trace 1`` alternates an untraced and a traced pass
and reports the per-layer ledger of the median traced pass; the spans go
to ``.bench_out/``.  Either way every metric is printed by name with its
unit, and the last line is one JSON object with ``correct``,
``attempted``, ``failed`` (simulation runs) and ``metrics``.

The Fig. 8 metrics always come from the 14 paper-table runs that have a
paper value, at ``--seed``: on paper-table from its first pass, on any
other workload from one extra pass over those runs, counted in the
budget but in no timing metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench import fidelity  # noqa: E402
from e2ebench.ledger import Tracer  # noqa: E402
from e2ebench.workloads import (  # noqa: E402
    SPEC,
    WORKLOADS,
    PassResult,
    compare_digests,
    fig8_runs,
    plan,
    run_pass,
)

#: (name, unit) of each metric, in BENCHMARK.json order.  Only untraced
#: passes feed the end-to-end metrics; the traced pass feeds the per-layer ones.
END_TO_END: List[Tuple[str, str]] = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER: List[Tuple[str, str]] = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

#: Fault-injection counters whose sum is ``faults.injected``.
FAULT_COUNTERS = (
    "faults.messages_dropped",
    "faults.messages_duplicated",
    "faults.messages_delayed",
    "faults.edges_lost",
    "faults.store_write_failures",
    "faults.profiler_flush_lost",
    "faults.node_crashes",
)

#: Modules a ``repro`` command imports before it can set up a run.
IMPORTED = (
    "repro.apps.catalog",
    "repro.evalx.experiment",
    "repro.evalx.reporting",
    "repro.chaos.runner",
    "repro.faults.scenarios",
)
IMPORT_SAMPLES = 3

#: A metric value and, for a ratio, the ``(numerator, denominator)`` base.
Metric = Tuple[float, Optional[Tuple[float, float]]]


def measure_import(samples: int = IMPORT_SAMPLES) -> float:
    """Median seconds to import ``repro`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        + "".join(f"import {name}; " for name in IMPORTED)
        + "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _ratio(num: float, den: float) -> Metric:
    return (num / den if den else 0.0), (num, den)


def _sum(result: PassResult, key: str, dca_only: bool = False) -> float:
    return sum(
        o.counters.get(key, 0.0)
        for o in result.outcomes
        if o.failure is None and (o.run.is_dca or not dca_only)
    )


def fig8_cells(result: PassResult) -> Dict[Tuple[str, str], float]:
    """Mean agility per ``(app, manager)`` over the pass's successful runs."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for o in result.outcomes:
        if o.failure is None:
            values.setdefault((o.run.app, o.run.manager), []).append(o.agility)
    return {cell: statistics.fmean(v) for cell, v in values.items()}


def fidelity_metrics(result: PassResult) -> Dict[str, Metric]:
    """The Fig. 8 gap and rank inversions of a pass over the paper-table cells."""
    cells = fidelity.paper_cells(fig8_cells(result))
    if not cells:  # every Fig. 8 run failed; the failures are reported
        return {"fig8_agility_gap": (0.0, None), "fig8_rank_inversions": (0.0, None)}
    return {
        "fig8_agility_gap": (fidelity.agility_gap(cells), None),
        "fig8_rank_inversions": (float(fidelity.rank_inversions(cells)), None),
    }


def _sim_rate(result: PassResult, dca: bool) -> float:
    runs = [o for o in result.outcomes if o.failure is None and o.run.is_dca == dca]
    seconds = sum(o.run_s for o in runs)
    return sum(o.run.minutes for o in runs) / seconds if seconds else 0.0


def end_to_end_metrics(
    passes: Sequence[PassResult], import_s: float, fig8: PassResult
) -> Dict[str, Metric]:
    """The end-to-end metrics over untraced passes (medians over passes).

    ``fig8`` is the pass whose paper-table cells give ``fig8_agility_gap``.
    """
    first = passes[0]
    dca_sla = [o.sla_pct for o in first.outcomes if o.failure is None and o.run.is_dca]
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), None),
        "setup_s": (
            import_s + statistics.median(sum(o.setup_s for o in p.outcomes) for p in passes),
            None,
        ),
        "dca_sim_min_per_s": (statistics.median(_sim_rate(p, True) for p in passes), None),
        "baseline_sim_min_per_s": (
            statistics.median(_sim_rate(p, False) for p in passes),
            None,
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, None),
        "dca_sla_pct": (statistics.fmean(dca_sla) if dca_sla else 0.0, None),
        "fig8_agility_gap": fidelity_metrics(fig8)["fig8_agility_gap"],
    }


def _late_over_early(tracer: Tracer) -> float:
    """Median over runs of mean ``decide`` time, last quarter vs first."""
    by_trace: Dict[int, List[float]] = {}
    for trace, start, end in tracer.spans_named("manager.decide"):
        by_trace.setdefault(trace, []).append(end - start)
    ratios = []
    for durations in by_trace.values():
        quarter = len(durations) // 4
        if quarter:
            early = statistics.fmean(durations[:quarter])
            late = statistics.fmean(durations[-quarter:])
            ratios.append(late / early)
    return statistics.median(ratios) if ratios else 0.0


def ledger_metrics(
    traced: PassResult, tracer: Tracer, untraced_wall: float, fig8: PassResult
) -> Dict[str, Metric]:
    """The per-layer ledger of one traced pass.

    ``fig8`` is the pass whose paper-table cells give ``fig8_rank_inversions``.
    """
    layer = tracer.layer_totals()

    def c(key: str, dca_only: bool = False) -> float:
        return _sum(traced, key, dca_only)

    live = float(tracer.count_within("runtime.execute_request", "engine.run_interval"))
    sampled = c("sim.sampled_requests", dca_only=True)
    completed, abandoned = c("tracker.paths_completed"), c("tracker.paths_abandoned")
    messages = c("tracker.messages_observed")
    replayed = c("replay.replayed_executions")
    metrics: Dict[str, Metric] = {
        "runtime.live_ratio": _ratio(live, sampled),
        "lang.us_per_msg": _ratio(layer["lang"]["self_s"] * 1e6, layer["lang"]["calls"]),
        "tracker.messages": (messages, None),
        "tracker.completion_ratio": _ratio(completed, completed + abandoned),
        "tracker.retry_ratio": _ratio(c("tracker.store_write_retries"), messages),
        "tracker.dead_letters": (c("tracker.dead_letters"), None),
        "graphstore.nodes_added": (c("graphstore.nodes_added"), None),
        "graphstore.edges_added": (c("graphstore.edges_added"), None),
        "profiling.write_self_s": (layer["profiling_write"]["self_s"], None),
        "profiling.read_self_s": (layer["profiling_read"]["self_s"], None),
        "profiling.recordings": (c("profiler.recordings"), None),
        "profiling.unmatched_ratio": _ratio(
            c("profiler.unmatched_observations"), c("profiler.recordings")
        ),
        "manager.late_over_early": (_late_over_early(tracer), None),
        "sampling.sampled_ratio": _ratio(sampled, c("sim.external_requests", dca_only=True)),
        "replay.replayed_ratio": _ratio(replayed, replayed + c("replay.live_executions")),
        "faults.injected": (sum(c(key) for key in FAULT_COUNTERS), None),
        "untraced_s": (traced.wall_s - tracer.root_seconds(), None),
        "trace_overhead_s": (traced.wall_s - untraced_wall, None),
    }
    for name, _unit in PER_LAYER:
        prefix, _, field = name.partition(".")
        if name not in metrics and field in ("calls", "self_s"):
            metrics[name] = (float(layer[prefix][field]), None)
    metrics["fig8_rank_inversions"] = fidelity_metrics(fig8)["fig8_rank_inversions"]
    return metrics


def _print(name: str, unit: str, metric: Metric) -> None:
    value, base = metric
    suffix = f"  ({base[0]:g} / {base[1]:g})" if base is not None else ""
    print(f"  {name:<28} {value:>16.6f} {unit}{suffix}")


def _run_passes(runs, workload: str, seed: int, seconds: float, trace: bool):
    """Passes for at most ``seconds`` (at least one untraced pass).

    A pass (or, traced, an untraced + traced pair) starts only if one
    more of average length still fits in the budget.  Traced passes come
    with their tracer and the wall time of the untraced pass before them.

    Also returns the pass that gives the Fig. 8 metrics: the first pass on
    paper-table, else a pass over the paper-table runs that have a paper
    value, made first and counted in the budget.
    """
    tables = workload == "paper-table"
    untraced: List[PassResult] = []
    traced: List[Tuple[PassResult, Tracer, float]] = []
    start = perf_counter()
    fig8 = None if tables else run_pass(fig8_runs(seed))
    first = perf_counter()
    while True:
        untraced.append(run_pass(runs, tables=tables))
        compare_digests(untraced[0], untraced[-1])
        if trace:
            tracer = Tracer()
            with tracer.installed():
                result = run_pass(runs, tracer=tracer, tables=tables)
            compare_digests(untraced[0], result)
            traced.append((result, tracer, untraced[-1].wall_s))
        now = perf_counter()
        if now - start + (now - first) / len(untraced) > seconds:
            return untraced, traced, fig8 if fig8 is not None else untraced[0]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = plan(args.workload, args.seed)
    import_s = 0.0 if args.trace else measure_import()
    untraced, traced, fig8 = _run_passes(
        runs, args.workload, args.seed, args.seconds, bool(args.trace)
    )
    every_pass = untraced + [result for result, _, _ in traced]
    if fig8 is not untraced[0]:
        every_pass.append(fig8)
    attempted = sum(len(p.outcomes) for p in every_pass)
    failed = sum(p.failed for p in every_pass)

    print(f"workload {args.workload}  seed {args.seed}  runs {len(runs)}  "
          f"passes {len(untraced)} untraced + {len(traced)} traced")
    for p in every_pass:
        for o in p.outcomes:
            if o.failure is not None:
                print(f"  FAILED {o.run}: {o.failure}")
    _print("error_rate", "fraction", _ratio(failed, attempted))
    if not args.trace:
        inversions = fidelity_metrics(fig8)["fig8_rank_inversions"]
        _print("fig8_rank_inversions", "count", inversions)

    if args.trace:
        result, tracer, untraced_wall = sorted(traced, key=lambda t: t[0].wall_s)[
            (len(traced) - 1) // 2
        ]
        metrics = ledger_metrics(result, tracer, untraced_wall, fig8)
        spec = PER_LAYER
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    else:
        metrics = end_to_end_metrics(untraced, import_s, fig8)
        spec = END_TO_END
    for name, unit in spec:
        _print(name, unit, metrics[name])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
