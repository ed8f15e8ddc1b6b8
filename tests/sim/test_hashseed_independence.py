"""Interval records must not depend on the interpreter's string-hash seed.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so any float
sum taken over a ``set`` of component or class names can change in its
last bit from one process to the next.  Each subprocess below runs a
30-minute DCA-10% simulation of every evaluation app and prints a sha256
over the exact ``repr`` of its ``IntervalRecord`` stream; two different
hash seeds must print the same digests.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import hashlib

from repro.apps.catalog import load_scenario
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.telemetry import MetricsRegistry

for app in ("marketcetera", "hedwig", "zookeeper"):
    simulator = build_simulator(
        load_scenario(app), "DCA-10%",
        ExperimentConfig(duration_minutes=30, seed=7),
        registry=MetricsRegistry(),
    )
    records = simulator.run().records
    print(app, hashlib.sha256(repr(records).encode("utf-8")).hexdigest())
"""


def _digests(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return done.stdout


def test_records_identical_across_hash_seeds():
    first = _digests("1")
    assert len(first.splitlines()) == 3
    assert _digests("2") == first
