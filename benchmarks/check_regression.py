#!/usr/bin/env python
"""Benchmark regression gate: fail CI when throughput drops too far.

Runs the core microbenchmarks (``bench_micro_core.py``,
``bench_ablation_graphstore.py`` and ``bench_micro_tracker.py``, the
end-to-end tracker throughput suite) under pytest-benchmark, writes the
``BENCH_ci.json`` artifact (each result carries a telemetry snapshot in
``extra_info``), and compares per-benchmark mean times against the
committed ``benchmarks/baseline.json``.  A benchmark whose throughput
(1/mean) falls more than ``--threshold`` (default 25%) below baseline
fails the gate.

Because CI runners and the machine that produced the baseline differ in
raw speed, the gate first measures a fixed pure-Python spin workload on
the current machine and scales the baseline by the ratio to the
baseline machine's measurement (clamped, so calibration can shrink but
never erase a real regression).

Usage::

    python benchmarks/check_regression.py --run            # CI entry point
    python benchmarks/check_regression.py --results BENCH_ci.json
    python benchmarks/check_regression.py --run --update-baseline
    python benchmarks/check_regression.py --results BENCH_ci.json \
        --synthetic-slowdown 0.5                           # gate self-test

Exit status: 0 when every benchmark passes, 1 on regression or missing
benchmarks, 2 on usage/runtime errors.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"
RESULTS_PATH = REPO_ROOT / "BENCH_ci.json"
#: Sidecar caching the machine-speed calibration so a CI job (which may
#: invoke the gate several times) only pays the spin workload once.
CALIBRATION_CACHE_PATH = Path(__file__).resolve().parent / ".calibration_cache.json"
#: Cached calibrations older than this are re-measured: machine speed is
#: stable within one CI job, not across days of local development.
CALIBRATION_CACHE_TTL_SECONDS = 6 * 3600.0

#: Benchmark modules (or single pytest node ids) the gate runs — kept
#: short: the CI job must finish in minutes, not re-run the 450-minute
#: figure suites.  The fault-matrix entry is a node id on purpose: its
#: module also hosts the multi-seed Fig. 8 sweep, which is far too slow
#: for the gate.
BENCH_FILES = (
    "benchmarks/bench_micro_core.py",
    "benchmarks/bench_ablation_graphstore.py",
    "benchmarks/bench_micro_tracker.py",
    "benchmarks/bench_shard_pipeline.py",
    "benchmarks/bench_robustness_seeds.py::test_bench_fault_matrix_graceful_degradation",
    "benchmarks/bench_profiler_sketch.py",
    "benchmarks/bench_store_backend.py",
    "benchmarks/bench_replay_prod.py",
)

#: Calibration can scale the allowance by at most this factor either
#: way; beyond that the machines are too different to compare and the
#: clamp keeps a real regression from hiding behind "slow runner".
CALIBRATION_CLAMP = 4.0

BASELINE_SCHEMA = 1


def calibrate(loops: int = 2_000_000, repeats: int = 3) -> float:
    """Seconds for a fixed pure-Python spin workload (best of ``repeats``)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc += i & 7
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best


def cached_calibration(
    cache_path: Path = CALIBRATION_CACHE_PATH,
    ttl_seconds: float = CALIBRATION_CACHE_TTL_SECONDS,
) -> float:
    """Machine calibration, measured at most once per ``ttl_seconds``.

    Returns the cached measurement when the sidecar is present, well
    formed and fresh; otherwise measures via :func:`calibrate` and
    rewrites the sidecar.  A corrupt or unwritable sidecar silently
    degrades to measuring every time — the gate must never fail because
    of its own cache.
    """
    try:
        with open(cache_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        seconds = float(payload["calibration_seconds"])
        measured_at = float(payload["measured_at"])
        if seconds > 0 and 0 <= time.time() - measured_at <= ttl_seconds:
            return seconds
    except (OSError, KeyError, TypeError, ValueError):
        pass
    seconds = calibrate()
    try:
        with open(cache_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"calibration_seconds": seconds, "measured_at": time.time()},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
    except OSError:
        pass
    return seconds


def run_benchmarks(results_path: Path) -> None:
    """Execute the gate's benchmark files, writing pytest-benchmark JSON."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *BENCH_FILES,
        "--benchmark-only",
        f"--benchmark-json={results_path}",
        "-q",
        "-p",
        "no:cacheprovider",
    ]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark run failed with exit code {proc.returncode}")


def load_means(results_path: Path) -> Dict[str, float]:
    """``fullname -> mean seconds`` from a pytest-benchmark JSON file.

    Raises :class:`RuntimeError` with an actionable message (no
    traceback reaches the CI log) when the file is missing, is not
    valid JSON, or contains no benchmark entries — the three ways an
    interrupted or misconfigured ``--run`` typically manifests.
    """
    if not results_path.exists():
        raise RuntimeError(
            f"benchmark results file not found: {results_path} "
            "(run the gate with --run, or point --results at an existing "
            "pytest-benchmark JSON file)"
        )
    try:
        with open(results_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise RuntimeError(
            f"benchmark results file {results_path} is not valid JSON ({exc}); "
            "the benchmark run was probably interrupted — re-run with --run"
        ) from exc
    means: Dict[str, float] = {}
    for bench in payload.get("benchmarks", []):
        means[bench["fullname"]] = float(bench["stats"]["mean"])
    if not means:
        raise RuntimeError(
            f"no benchmark results found in {results_path}; the file exists "
            "but holds an empty 'benchmarks' list — check the pytest "
            "--benchmark-only selection"
        )
    return means


def write_baseline(
    means: Dict[str, float], calibration_seconds: float, path: Path = BASELINE_PATH
) -> None:
    payload = {
        "schema": BASELINE_SCHEMA,
        "calibration_seconds": calibration_seconds,
        "benchmarks": {name: means[name] for name in sorted(means)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} ({len(means)} benchmarks)")


def check(
    baseline: Dict[str, object],
    means: Dict[str, float],
    threshold: float,
    calibration_factor: float,
) -> List[str]:
    """Return failure messages (empty when the gate passes)."""
    failures: List[str] = []
    base_means: Dict[str, float] = baseline["benchmarks"]  # type: ignore[assignment]
    print(
        f"{'benchmark':<70} {'base ms':>10} {'now ms':>10} {'ratio':>7}  verdict"
    )
    for name in sorted(base_means):
        base = float(base_means[name]) * calibration_factor
        current = means.get(name)
        short = name.split("::")[-1]
        if current is None:
            failures.append(f"missing benchmark: {name}")
            print(f"{short:<70} {1000 * base:>10.4f} {'—':>10} {'—':>7}  MISSING")
            continue
        # Throughput is 1/mean: a drop of more than `threshold` means
        # current_mean > base_mean / (1 - threshold).
        allowed = base / (1.0 - threshold)
        ratio = current / base if base > 0 else float("inf")
        verdict = "ok" if current <= allowed else "REGRESSION"
        print(
            f"{short:<70} {1000 * base:>10.4f} {1000 * current:>10.4f} {ratio:>7.2f}  {verdict}"
        )
        if current > allowed:
            failures.append(
                f"{name}: mean {current * 1e3:.4f} ms vs calibrated baseline "
                f"{base * 1e3:.4f} ms (throughput drop "
                f"{100 * (1 - base / current):.1f}% > {100 * threshold:.0f}%)"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--run", action="store_true", help="run the benchmarks before checking"
    )
    parser.add_argument(
        "--results", type=Path, default=RESULTS_PATH,
        help="pytest-benchmark JSON to check (written by --run)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=BASELINE_PATH, help="committed baseline file"
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="maximum tolerated fractional throughput drop (default 0.25)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current results instead of gating",
    )
    parser.add_argument(
        "--synthetic-slowdown", type=float, default=0.0, metavar="FRACTION",
        help="pretend throughput dropped by FRACTION (gate self-test)",
    )
    parser.add_argument(
        "--no-calibration", "--no-calibrate", action="store_true",
        dest="no_calibration",
        help="compare raw times without machine-speed calibration "
        "(skips the spin workload entirely)",
    )
    parser.add_argument(
        "--calibration-cache", type=Path, default=CALIBRATION_CACHE_PATH,
        help="sidecar caching the machine calibration across gate "
        "invocations within one CI job",
    )
    args = parser.parse_args(argv)

    if not 0.0 < args.threshold < 1.0:
        print(f"error: threshold must be in (0, 1), got {args.threshold}", file=sys.stderr)
        return 2
    if not 0.0 <= args.synthetic_slowdown < 1.0:
        print("error: synthetic slowdown must be in [0, 1)", file=sys.stderr)
        return 2

    try:
        if args.run:
            run_benchmarks(args.results)
        means = load_means(args.results)
    except (OSError, RuntimeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        # The committed baseline anchors every future comparison, so it
        # always gets a fresh measurement (and refreshes the cache).
        calibration_now = calibrate()
        try:
            with open(args.calibration_cache, "w", encoding="utf-8") as fh:
                json.dump(
                    {"calibration_seconds": calibration_now, "measured_at": time.time()},
                    fh, indent=2, sort_keys=True,
                )
                fh.write("\n")
        except OSError:
            pass
        write_baseline(means, calibration_now, args.baseline)
        return 0

    try:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read baseline: {exc}", file=sys.stderr)
        return 2
    if baseline.get("schema") != BASELINE_SCHEMA:
        print(f"error: unsupported baseline schema {baseline.get('schema')}", file=sys.stderr)
        return 2

    factor = 1.0
    if args.no_calibration:
        print("calibration: disabled (--no-calibration), factor 1.000")
    else:
        calibration_now = cached_calibration(args.calibration_cache)
        base_cal = float(baseline.get("calibration_seconds", 0.0))
        if base_cal > 0:
            factor = calibration_now / base_cal
            factor = max(1.0 / CALIBRATION_CLAMP, min(CALIBRATION_CLAMP, factor))
        print(
            f"calibration: baseline {base_cal:.4f}s, "
            f"here {calibration_now:.4f}s, factor {factor:.3f}"
        )

    if args.synthetic_slowdown > 0:
        scale = 1.0 / (1.0 - args.synthetic_slowdown)
        means = {name: mean * scale for name, mean in means.items()}
        print(
            f"synthetic slowdown: scaling every mean by {scale:.2f}x "
            f"({100 * args.synthetic_slowdown:.0f}% throughput drop)"
        )

    failures = check(baseline, means, args.threshold, factor)
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: all {len(baseline['benchmarks'])} benchmarks within "
          f"{100 * args.threshold:.0f}% of baseline throughput")
    return 0


if __name__ == "__main__":
    sys.exit(main())
