"""End-to-end benchmark of the reproduction: workloads, fidelity checks and
a traced per-layer ledger.  Run it with ``python3 e2ebench/run.py``; see
``e2ebench/README.md``."""
