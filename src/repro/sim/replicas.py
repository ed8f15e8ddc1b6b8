"""Replica-level message routing within a component.

The paper's components are "distributed over multiple physical
hosts/virtual machines/containers" (Section II-A), and its Section II-A
motivation is precisely that workload spikes land on *specific
portions/nodes of each component* — e.g. the shards of the query-index
holding a hot search term.  This module adds that replica dimension to
the message-level runtime: each component runs ``n`` replicas with
independent state, and messages are routed either round-robin or by
hashing a payload field (partitioned/sharded components).

The mesoscale simulator keeps modelling replica groups by capacity; this
runtime exists to *observe* replica-level phenomena — hot-shard
concentration, per-replica provenance isolation — at message resolution.

Replica state (round-robin cursors, per-replica interpreter state, uid
factories) is shared by every request class executing through the
runtime.  Converged-replay ingestion
(:mod:`repro.sim.events`) relies on this: because one class's execution
advances state that other classes observe, replay must cut over
*atomically for all classes at once* — per-class cutover would perturb
the still-live classes and break parity with live ingestion.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.core.dca import DCAResult
from repro.core.instrument import InstrumentedComponent, OverheadModel
from repro.errors import SimulationError
from repro.lang.interpreter import Interpreter, ReplicaState
from repro.lang.ir import CLIENT, EXTERNAL, Application
from repro.lang.message import Message, UidFactory
from repro.workloads.generator import RequestClass


@dataclass(frozen=True)
class ReplicaSpec:
    """How one component is replicated and routed.

    ``count`` replicas; ``routing_field`` names the payload field whose
    value selects the replica (hash partitioning, e.g. a key or shard
    id); ``None`` means round-robin (stateless load balancing).
    """

    count: int = 1
    routing_field: Optional[str] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SimulationError(f"replica count must be >= 1, got {self.count}")


@dataclass
class ReplicatedTrace:
    """Per-replica observation of one request execution."""

    request_class: str
    replica_messages: Dict[str, List[int]]
    responses: int

    def component_total(self, component: str) -> int:
        return sum(self.replica_messages.get(component, ()))

    def hottest_replica_share(self, component: str) -> float:
        """Fraction of the component's messages on its busiest replica."""
        counts = self.replica_messages.get(component)
        if not counts or sum(counts) == 0:
            return 0.0
        return max(counts) / sum(counts)


class ReplicatedApplicationRuntime:
    """Message-level runtime with per-component replica groups.

    Each replica has its own :class:`ReplicaState` (values + provenance),
    so state written on one replica is invisible on its siblings — the
    source of the hot-shard effects Section II-A describes.
    """

    def __init__(
        self,
        app: Application,
        replicas: Mapping[str, ReplicaSpec],
        dca_result: Optional[DCAResult] = None,
        overhead_model: Optional[OverheadModel] = None,
        sampling_rate: float = 1.0,
        max_messages_per_request: int = 100_000,
    ) -> None:
        self.app = app
        self.specs: Dict[str, ReplicaSpec] = {
            name: replicas.get(name, ReplicaSpec()) for name in app.components
        }
        unknown = set(replicas) - set(app.components)
        if unknown:
            raise SimulationError(f"replica specs for unknown components: {sorted(unknown)}")
        self.max_messages_per_request = int(max_messages_per_request)
        self._external_uids = UidFactory("client.external", 0)
        self._rr_cursor: Dict[str, int] = {name: 0 for name in app.components}
        self._states: Dict[str, List[ReplicaState]] = {}
        self._uid_factories: Dict[str, List[UidFactory]] = {}
        self._handlers: Dict[str, object] = {}
        self._instrumented = dca_result is not None
        for idx, (name, component) in enumerate(sorted(app.components.items()), start=1):
            spec = self.specs[name]
            self._states[name] = [
                ReplicaState.from_component(component) for _ in range(spec.count)
            ]
            self._uid_factories[name] = [
                UidFactory(f"10.{idx}.0.{replica + 1}", replica + 1)
                for replica in range(spec.count)
            ]
            if dca_result is not None:
                analysis = dca_result.per_component.get(name)
                if analysis is None:
                    raise SimulationError(f"DCA result missing component {name!r}")
                self._handlers[name] = InstrumentedComponent(
                    component,
                    analysis,
                    app.library,
                    overhead_model=overhead_model,
                    sampling_rate=sampling_rate,
                )
            else:
                self._handlers[name] = Interpreter(component, app.library)

    # -- routing ------------------------------------------------------------------

    def route(self, component: str, message: Message) -> int:
        """Pick the replica index for ``message`` at ``component``."""
        spec = self.specs[component]
        if spec.count == 1:
            return 0
        if spec.routing_field is not None:
            value = message.fields.get(spec.routing_field)
            if value is None:
                raise SimulationError(
                    f"message {message.msg_type!r} to {component!r} lacks routing "
                    f"field {spec.routing_field!r}"
                )
            return zlib.crc32(str(value).encode("utf-8")) % spec.count
        cursor = self._rr_cursor[component]
        self._rr_cursor[component] = (cursor + 1) % spec.count
        return cursor

    # -- execution -----------------------------------------------------------------

    def execute_request(self, request: RequestClass, sampled: bool = True) -> ReplicatedTrace:
        """Run one request, recording per-replica message counts."""
        entry = self.app.entry_points.get(request.request_type)
        if entry is None:
            raise SimulationError(
                f"request class {request.name!r} uses unknown entry type {request.request_type!r}"
            )
        root = Message(
            uid=self._external_uids.next_uid(),
            msg_type=request.request_type,
            src=EXTERNAL,
            dest=entry,
            fields=dict(request.fields),
            sampled=sampled,
        )
        counts: Dict[str, List[int]] = {
            name: [0] * self.specs[name].count for name in self.app.components
        }
        responses = 0
        handled = 0
        queue: deque = deque([root])
        while queue:
            handled += 1
            if handled > self.max_messages_per_request:
                raise SimulationError(
                    f"request {request.name!r} exceeded {self.max_messages_per_request} messages"
                )
            message = queue.popleft()
            if message.dest == CLIENT:
                responses += 1
                continue
            component = message.dest
            replica = self.route(component, message)
            counts[component][replica] += 1
            state = self._states[component][replica]
            uid_factory = self._uid_factories[component][replica]
            handler = self._handlers[component]
            if self._instrumented:
                outcome = handler.handle(state, message, uid_factory).outcome  # type: ignore[union-attr]
            else:
                outcome = handler.handle(state, message, uid_factory)  # type: ignore[union-attr]
            queue.extend(outcome.emitted)
        return ReplicatedTrace(
            request_class=request.name,
            replica_messages=counts,
            responses=responses,
        )

    def replica_state(self, component: str, replica: int) -> ReplicaState:
        """Direct access to one replica's state (for tests/inspection)."""
        try:
            return self._states[component][replica]
        except (KeyError, IndexError):
            raise SimulationError(f"unknown replica {component!r}[{replica}]") from None
