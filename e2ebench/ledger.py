"""Span tracer for the per-layer ledger.

The tracer wraps the layers' public functions at run time, from outside
``src/``: each wrapped call records one span (name, start, end, parent,
trace id) into flat in-memory arrays.  Nothing is written until the
benchmark asks for it at the end.  A layer's self time is the summed
duration of its spans minus the time covered by their child spans, so
the self times of all layers partition the time spent inside spans.

Module-level functions are rebound wherever a loaded ``repro`` (or
benchmark) module holds a reference to them, because most callers import
them by name; methods are replaced on the class that defines them.
Everything is restored when the tracing context exits.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

#: (span name, "module:Qualified.name") for every wrapped public call.
#: The span name is ``<layer>.<call>``; the layer is the text before the
#: first dot.  ``profiling_write``/``profiling_read`` split the profiler
#: into its write and read sides.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("setup.load_scenario", "repro.apps.catalog:load_scenario"),
    ("setup.build_simulator", "repro.evalx.experiment:build_simulator"),
    ("dca.analyze_application", "repro.core.dca:analyze_application"),
    ("dca.enumerate_causal_paths", "repro.core.paths:enumerate_causal_paths"),
    ("engine.run_interval", "repro.sim.engine:ClusterSimulator.run_interval"),
    ("runtime.execute_request", "repro.sim.runtime:ApplicationRuntime.execute_request"),
    ("lang.handle", "repro.lang.interpreter:Interpreter.handle"),
    ("tracker.observe_all", "repro.core.causal_graph:DirectCausalityTracker.observe_all"),
    ("tracker.advance_to", "repro.core.causal_graph:DirectCausalityTracker.advance_to"),
    ("tracker.flush", "repro.core.causal_graph:DirectCausalityTracker.flush"),
    ("graphstore.add_message", "repro.graphstore.store:GraphStore.add_message"),
    ("graphstore.add_messages", "repro.graphstore.store:GraphStore.add_messages"),
    ("graphstore.add_edge", "repro.graphstore.store:GraphStore.add_edge"),
    ("graphstore.flush_journal", "repro.graphstore.store:GraphStore.flush_journal"),
    ("graphstore.evict_graph", "repro.graphstore.store:GraphStore.evict_graph"),
    ("graphstore.abandon_root", "repro.graphstore.store:GraphStore.abandon_root"),
    ("graphstore.repair_dangling_edges", "repro.graphstore.store:GraphStore.repair_dangling_edges"),
    ("graphstore.get_node", "repro.graphstore.store:GraphStore.get_node"),
    ("graphstore.contains", "repro.graphstore.store:GraphStore.contains"),
    ("graphstore.require_node", "repro.graphstore.store:GraphStore.require_node"),
    ("graphstore.successors", "repro.graphstore.store:GraphStore.successors"),
    ("graphstore.predecessors", "repro.graphstore.store:GraphStore.predecessors"),
    ("graphstore.root_of", "repro.graphstore.store:GraphStore.root_of"),
    ("graphstore.completed_signature", "repro.graphstore.store:GraphStore.completed_signature"),
    ("graphstore.graph_members", "repro.graphstore.store:GraphStore.graph_members"),
    ("profiling_write.record", "repro.profiling.profiler:CausalPathProfiler.record"),
    ("profiling_read.counts", "repro.profiling.profiler:CausalPathProfiler.counts"),
    ("profiling_read.counts_between", "repro.profiling.profiler:CausalPathProfiler.counts_between"),
    (
        "profiling_read.sample_total_between",
        "repro.profiling.profiler:CausalPathProfiler.sample_total_between",
    ),
    (
        "profiling_read.component_weight_estimates",
        "repro.profiling.profiler:CausalPathProfiler.component_weight_estimates",
    ),
    ("profiling_read.snapshot", "repro.profiling.profiler:CausalPathProfiler.snapshot"),
    ("manager.decide", "repro.core.elasticity:DCAElasticityManager.decide"),
    ("regression.observe", "repro.core.regression:LinearCapacityModel.observe"),
    ("regression.predict", "repro.core.regression:LinearCapacityModel.predict"),
    ("autoscale.decide", "repro.autoscale.cloudwatch:CloudWatchManager.decide"),
    ("autoscale.decide", "repro.autoscale.elasticrmi:ElasticRMIManager.decide"),
    ("autoscale.decide", "repro.autoscale.htrace_cw:HTraceCloudWatchManager.decide"),
    ("htrace.observe_interval", "repro.tracing.htrace:HTraceCollector.observe_interval"),
    ("queueing.serve_interval", "repro.sim.queueing:serve_interval"),
    ("cluster.advance", "repro.sim.cluster:Cluster.advance"),
    ("cluster.apply_targets", "repro.sim.cluster:Cluster.apply_targets"),
    ("cluster.fail_component", "repro.sim.cluster:Cluster.fail_component"),
    ("workloads.arrivals", "repro.workloads.generator:WorkloadGenerator.arrivals"),
    ("sampling.sample_count", "repro.core.sampling:RequestSampler.sample_count"),
    ("replay.ingest", "repro.sim.events:ReplayIngestor.ingest"),
    ("faults.should_drop_message", "repro.faults.injector:FaultInjector.should_drop_message"),
    (
        "faults.should_duplicate_message",
        "repro.faults.injector:FaultInjector.should_duplicate_message",
    ),
    ("faults.should_lose_edges", "repro.faults.injector:FaultInjector.should_lose_edges"),
    (
        "faults.should_fail_store_write",
        "repro.faults.injector:FaultInjector.should_fail_store_write",
    ),
    (
        "faults.should_lose_profiler_flush",
        "repro.faults.injector:FaultInjector.should_lose_profiler_flush",
    ),
    ("chaos.check_all", "repro.chaos.invariants:check_all"),
)

#: Every layer the ledger reports, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(name.split(".")[0] for name, _ in TARGETS))

#: Modules whose globals may hold a by-name reference to a wrapped function.
_REBIND_PREFIXES = ("repro", "e2ebench")


class Tracer:
    """Collects spans in flat arrays; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        #: Trace id stamped on new spans; the benchmark sets one per
        #: simulation run.
        self.trace_id = 0

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span named ``name`` per call."""
        name_id = self._intern(name)
        stack = self._stack
        ids, parents, traces = self.name_id, self.parent, self.trace
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            traces.append(self.trace_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every call in :data:`TARGETS` for the duration of the ``with`` block."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for name, spec in TARGETS:
                module_name, _, qualname = spec.partition(":")
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                if isinstance(owner, type):
                    if attr not in vars(owner):
                        raise AttributeError(f"{spec} is not defined on its class")
                    original = vars(owner)[attr]
                    setattr(owner, attr, self.wrap(name, original))
                    undo.append((owner, attr, original))
                else:
                    original = getattr(owner, attr)
                    wrapped = self.wrap(name, original)
                    for module in list(sys.modules.values()):
                        if not getattr(module, "__name__", "").startswith(_REBIND_PREFIXES):
                            continue
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapped)
                                undo.append((module, key, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> array:
        """Exclusive seconds per span: duration minus child durations."""
        start, end, parent = self.start, self.end, self.parent
        own = array("d", (e - s for s, e in zip(start, end)))
        for idx, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[idx] - start[idx]
        return own

    def root_seconds(self) -> float:
        """Seconds covered by root spans (the time spent inside any layer)."""
        return sum(
            e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0
        )

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer (span-name prefix): ``calls`` and exclusive ``self_s``."""
        totals = {
            name.split(".", 1)[0]: {"calls": 0, "self_s": 0.0} for name in self.names
        }
        own = self.self_times()
        for idx, name_id in enumerate(self.name_id):
            entry = totals[self.names[name_id].split(".", 1)[0]]
            entry["calls"] += 1
            entry["self_s"] += own[idx]
        return totals

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        name_id = self._name_ids.get(name)
        ancestor_id = self._name_ids.get(ancestor)
        inside = bytearray(len(self))
        count = 0
        for idx, (nid, p) in enumerate(zip(self.name_id, self.parent)):
            if p >= 0 and (inside[p] or self.name_id[p] == ancestor_id):
                inside[idx] = 1
                count += nid == name_id
        return count

    def spans_named(self, name: str) -> Iterator[Tuple[int, float, float]]:
        """``(trace, start, end)`` of every span called ``name``."""
        name_id = self._name_ids.get(name)
        for idx, nid in enumerate(self.name_id):
            if nid == name_id:
                yield self.trace[idx], self.start[idx], self.end[idx]

    def write(self, path: str) -> None:
        """Write all spans as gzip'd JSON lines (one span per line)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for idx in range(len(self)):
                out.write(
                    json.dumps(
                        {
                            "id": idx,
                            "trace": self.trace[idx],
                            "parent": self.parent[idx],
                            "name": self.names[self.name_id[idx]],
                            "start": self.start[idx],
                            "end": self.end[idx],
                        },
                        separators=(",", ":"),
                    )
                )
                out.write("\n")
