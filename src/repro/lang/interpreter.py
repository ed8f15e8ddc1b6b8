"""Handler interpreter with dynamic provenance (taint) tracking.

This is the runtime half of DCA.  The static half
(:mod:`repro.core.dca`) computes, per component, the set ``V_tr`` of state
variables whose provenance must be tracked; the interpreter executes
handler bodies and maintains, for each tracked variable, the set of
message uids that contributed (by data *or dynamic control* flow) to its
current value — the hash-table scheme of Xin & Zhang's online dynamic
control-dependence algorithm that the paper builds on (Section IV-A).

Execution modes:

* **plain** (``tracked_vars=None`` and ``track_all=False``): no provenance
  work at all; emitted messages carry empty cause sets.  Used by the
  baseline managers and for requests the sampler did not select.
* **instrumented** (``tracked_vars`` = the component's ``V_tr``): taint is
  propagated through locals during the invocation, but only writes to
  variables in ``V_tr`` are persisted to the provenance table, and only
  those persisted operations count toward instrumentation cost — this is
  the paper's key overhead reduction over whole-program dynamic slicing.
* **full** (``track_all=True``): every state variable is persisted; used
  to model naive whole-program tracking in ablations.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import InterpreterError
from repro.lang.ir import (
    Assign,
    BinOp,
    Call,
    Component,
    Const,
    Expr,
    Field,
    Handler,
    If,
    LibraryRegistry,
    Send,
    Skip,
    Stmt,
    UnaryOp,
    Var,
    While,
)
from repro.lang.message import Message, MessageUid, UidFactory

Taint = FrozenSet[MessageUid]
EMPTY_TAINT: Taint = frozenset()
_UID_KEY = attrgetter("key")


def _cap_taint(taint: Taint, limit: int) -> Taint:
    """Bound a provenance set to its ``limit`` most recent uids.

    Accumulator variables (counters, running exposure) are causally
    influenced by *every* past message; an unbounded provenance set would
    grow for the lifetime of the replica.  Production tracing systems
    bound span/provenance fan-in the same way; recency is approximated by
    the total order on uids (per-process sequence numbers).
    """
    if len(taint) <= limit:
        return taint
    # nlargest avoids sorting the whole (potentially large) set just to
    # keep its tail; keying on the stored tuple skips the Python-level
    # rich comparisons (uids in a set are distinct, so no ties).
    return frozenset(heapq.nlargest(limit, taint, key=_UID_KEY))


class ReplicaState:
    """Mutable per-replica component state plus its provenance table.

    ``provenance`` maps state-variable name → uids of messages that
    contributed to the variable's current value.  Only variables the
    interpreter persists (``V_tr`` under DCA instrumentation) appear here.

    One instance exists per simulated replica and both tables are read on
    every variable access, hence ``__slots__``.
    """

    __slots__ = ("values", "provenance")

    def __init__(
        self,
        values: Dict[str, object],
        provenance: Optional[Dict[str, Taint]] = None,
    ) -> None:
        self.values = values
        self.provenance: Dict[str, Taint] = {} if provenance is None else provenance

    @classmethod
    def from_component(cls, component: Component) -> "ReplicaState":
        return cls(values=dict(component.state))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReplicaState):
            return NotImplemented
        return self.values == other.values and self.provenance == other.provenance

    def __repr__(self) -> str:
        return f"ReplicaState(values={self.values!r}, provenance={self.provenance!r})"


class HandlerOutcome:
    """Result of executing one handler invocation.

    Attributes
    ----------
    emitted:
        Messages produced by ``send`` statements, in program order, with
        ``cause_uids`` filled in when provenance was tracked.
    tracked_writes:
        Number of provenance-table store operations performed (the
        paper's per-write hash-table instrumentation cost).
    total_writes:
        Number of variable writes executed (tracked or not).
    getinfo_ops:
        Number of ``getInfo`` calls (one per emitted message when
        provenance is on).
    statements_executed:
        Dynamic statement count (basis for the uninstrumented CPU cost).
    """

    __slots__ = ("emitted", "tracked_writes", "total_writes", "getinfo_ops", "statements_executed")

    def __init__(
        self,
        emitted: List[Message],
        tracked_writes: int = 0,
        total_writes: int = 0,
        getinfo_ops: int = 0,
        statements_executed: int = 0,
    ) -> None:
        self.emitted = emitted
        self.tracked_writes = tracked_writes
        self.total_writes = total_writes
        self.getinfo_ops = getinfo_ops
        self.statements_executed = statements_executed

    @property
    def instrumentation_ops(self) -> int:
        """Total instrumentation operations (store + getInfo)."""
        return self.tracked_writes + self.getinfo_ops

    def __repr__(self) -> str:
        return (
            f"HandlerOutcome(emitted={self.emitted!r}, tracked_writes={self.tracked_writes!r}, "
            f"total_writes={self.total_writes!r}, getinfo_ops={self.getinfo_ops!r}, "
            f"statements_executed={self.statements_executed!r})"
        )


class Interpreter:
    """Executes the handlers of one component, optionally instrumented.

    Parameters
    ----------
    component:
        The component whose handlers are executed.
    library:
        Registered library functions callable from expressions.
    tracked_vars:
        ``V_tr`` from DCA — the only state variables whose provenance is
        persisted across invocations.  ``None`` disables provenance.
    track_all:
        Persist provenance for *every* state variable (whole-program
        dynamic tracking; ablation baseline).
    max_loop_iterations:
        Safety bound on ``While`` loops.
    """

    def __init__(
        self,
        component: Component,
        library: LibraryRegistry,
        tracked_vars: Optional[Set[str]] = None,
        track_all: bool = False,
        max_loop_iterations: int = 10_000,
        max_provenance: int = 32,
    ) -> None:
        self.component = component
        self.library = library
        self.track_all = bool(track_all)
        self.tracked_vars: Set[str] = set(component.state_vars()) if track_all else set(tracked_vars or ())
        self.max_loop_iterations = int(max_loop_iterations)
        self.max_provenance = int(max_provenance)
        self._provenance_enabled = track_all or tracked_vars is not None

    # -- public API ----------------------------------------------------------

    def handle(
        self,
        state: ReplicaState,
        message: Message,
        uid_factory: UidFactory,
    ) -> HandlerOutcome:
        """Execute the handler for ``message`` against ``state``.

        Emitted messages carry fresh uids from ``uid_factory``.  When
        provenance is enabled and the message is sampled, each emitted
        message's ``cause_uids`` is the dynamic data/control-flow closure
        of incoming-message influences (getInfo in the paper's Fig. 4).
        """
        handler = self.component.handler_for(message.msg_type)
        track = self._provenance_enabled and message.sampled
        ctx = _InvocationContext(
            interpreter=self,
            state=state,
            message=message,
            handler=handler,
            uid_factory=uid_factory,
            provenance_on=track,
        )
        ctx.run_block(handler.body)
        return HandlerOutcome(
            emitted=ctx.emitted,
            tracked_writes=ctx.tracked_writes,
            total_writes=ctx.total_writes,
            getinfo_ops=ctx.getinfo_ops,
            statements_executed=ctx.statements_executed,
        )


class _InvocationContext:
    """One handler invocation: locals, control-taint stack, emission buffer."""

    __slots__ = (
        "interp",
        "state",
        "message",
        "handler",
        "uid_factory",
        "provenance_on",
        "locals",
        "local_taint",
        "state_taint_overlay",
        "control_stack",
        "emitted",
        "tracked_writes",
        "total_writes",
        "getinfo_ops",
        "statements_executed",
        "message_taint",
    )

    def __init__(
        self,
        interpreter: Interpreter,
        state: ReplicaState,
        message: Message,
        handler: Handler,
        uid_factory: UidFactory,
        provenance_on: bool,
    ) -> None:
        self.interp = interpreter
        self.state = state
        self.message = message
        self.handler = handler
        self.uid_factory = uid_factory
        self.provenance_on = provenance_on
        self.locals: Dict[str, object] = {}
        self.local_taint: Dict[str, Taint] = {}
        # Invocation-local overlay of state-variable taints: data flowing
        # through a state variable *within* one handler invocation is
        # ordinary local dataflow and is always tracked, whether or not
        # the variable is in V_tr (persistence across invocations is what
        # V_tr gates).
        self.state_taint_overlay: Dict[str, Taint] = {}
        self.control_stack: List[Taint] = []
        self.emitted: List[Message] = []
        self.tracked_writes = 0
        self.total_writes = 0
        self.getinfo_ops = 0
        self.statements_executed = 0
        # Reading a field of the incoming message taints with its uid.
        self.message_taint: Taint = frozenset({message.uid}) if provenance_on else EMPTY_TAINT

    # -- execution -----------------------------------------------------------

    def run_block(self, block: Sequence[Stmt]) -> None:
        for stmt in block:
            self.run_stmt(stmt)

    def run_stmt(self, stmt: Stmt) -> None:
        self.statements_executed += 1
        if isinstance(stmt, Assign):
            self._run_assign(stmt)
        elif isinstance(stmt, If):
            self._run_if(stmt)
        elif isinstance(stmt, While):
            self._run_while(stmt)
        elif isinstance(stmt, Send):
            self._run_send(stmt)
        elif isinstance(stmt, Skip):
            pass
        else:
            raise InterpreterError(f"unknown statement type {type(stmt).__name__}")

    def _control_taint(self) -> Taint:
        stack = self.control_stack
        if not stack:
            return EMPTY_TAINT
        if len(stack) == 1:
            return stack[0]
        out: Set[MessageUid] = set()
        for t in stack:
            out |= t
        return frozenset(out)

    def _run_assign(self, stmt: Assign) -> None:
        value, taint = self.eval_expr(stmt.expr)
        if self.provenance_on:
            control = self._control_taint()
            if control:
                taint = taint | control
        else:
            taint = EMPTY_TAINT
        self.total_writes += 1
        target = stmt.target
        if target in self.state.values:
            self.state.values[target] = value
            if self.provenance_on:
                self.state_taint_overlay[target] = taint
                if self.interp.track_all or target in self.interp.tracked_vars:
                    # Persist provenance: the paper's hash-table store of
                    # the messages that resulted in a write to the variable.
                    self.state.provenance[target] = _cap_taint(taint, self.interp.max_provenance)
                    self.tracked_writes += 1
        else:
            self.locals[target] = value
            if self.provenance_on:
                self.local_taint[target] = taint

    def _run_if(self, stmt: If) -> None:
        cond, taint = self.eval_expr(stmt.cond)
        self.control_stack.append(taint if self.provenance_on else EMPTY_TAINT)
        try:
            if cond:
                self.run_block(stmt.then_body)
            else:
                self.run_block(stmt.else_body)
        finally:
            self.control_stack.pop()

    def _run_while(self, stmt: While) -> None:
        iterations = 0
        while True:
            cond, taint = self.eval_expr(stmt.cond)
            if not cond:
                break
            iterations += 1
            if iterations > self.interp.max_loop_iterations:
                raise InterpreterError(
                    f"{self.interp.component.name}.{self.handler.msg_type}: loop exceeded "
                    f"{self.interp.max_loop_iterations} iterations"
                )
            self.control_stack.append(taint if self.provenance_on else EMPTY_TAINT)
            try:
                self.run_block(stmt.body)
            finally:
                self.control_stack.pop()

    def _run_send(self, stmt: Send) -> None:
        values: Dict[str, object] = {}
        taints: Set[MessageUid] = set()
        for name, expr in stmt.fields.items():
            value, taint = self.eval_expr(expr)
            values[name] = value
            taints |= taint
        causes: Taint = EMPTY_TAINT
        if self.provenance_on:
            # getInfo: the messages that directly caused this emission are
            # the data influences on the payload plus the dynamic control
            # influences on reaching this send, plus the triggering message.
            control = self._control_taint()
            if control:
                taints |= control
            taints |= self.message_taint
            causes = _cap_taint(frozenset(taints), self.interp.max_provenance)
            self.getinfo_ops += 1
        self.emitted.append(
            Message(
                uid=self.uid_factory.next_uid(),
                msg_type=stmt.msg_type,
                src=self.interp.component.name,
                dest=stmt.dest,
                fields=values,
                cause_uids=causes,
                root_uid=self.message.root_uid or self.message.uid,
                sampled=self.message.sampled,
            )
        )

    # -- expression evaluation -------------------------------------------------

    def eval_expr(self, expr: Expr) -> Tuple[object, Taint]:
        if isinstance(expr, Const):
            return expr.value, EMPTY_TAINT
        if isinstance(expr, Var):
            return self._eval_var(expr)
        if isinstance(expr, Field):
            return self._eval_field(expr)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr)
        if isinstance(expr, UnaryOp):
            value, taint = self.eval_expr(expr.operand)
            if expr.op == "-":
                return -_as_number(value, expr), taint
            return (not value), taint
        if isinstance(expr, Call):
            return self._eval_call(expr)
        raise InterpreterError(f"unknown expression type {type(expr).__name__}")

    def _eval_var(self, expr: Var) -> Tuple[object, Taint]:
        name = expr.name
        if name in self.locals:
            return self.locals[name], self.local_taint.get(name, EMPTY_TAINT)
        if name in self.state.values:
            if not self.provenance_on:
                return self.state.values[name], EMPTY_TAINT
            taint = self.state_taint_overlay.get(name)
            if taint is None:
                taint = self.state.provenance.get(name, EMPTY_TAINT)
            return self.state.values[name], taint
        raise InterpreterError(
            f"{self.interp.component.name}.{self.handler.msg_type}: read of undefined variable {name!r}"
        )

    def _eval_field(self, expr: Field) -> Tuple[object, Taint]:
        if expr.param != self.handler.param:
            raise InterpreterError(
                f"{self.interp.component.name}.{self.handler.msg_type}: unknown message parameter {expr.param!r}"
            )
        try:
            value = self.message.fields[expr.name]
        except KeyError:
            raise InterpreterError(
                f"{self.interp.component.name}.{self.handler.msg_type}: message "
                f"{self.message.msg_type!r} has no field {expr.name!r}"
            ) from None
        return value, self.message_taint

    def _eval_binop(self, expr: BinOp) -> Tuple[object, Taint]:
        lval, ltaint = self.eval_expr(expr.left)
        op = expr.op
        # Short-circuit logic keeps taint precise for the evaluated side.
        if op == "and":
            if not lval:
                return False, ltaint
            rval, rtaint = self.eval_expr(expr.right)
            return bool(rval), ltaint | rtaint
        if op == "or":
            if lval:
                return True, ltaint
            rval, rtaint = self.eval_expr(expr.right)
            return bool(rval), ltaint | rtaint
        rval, rtaint = self.eval_expr(expr.right)
        taint = ltaint | rtaint
        return _apply_binop(op, lval, rval, expr), taint

    def _eval_call(self, expr: Call) -> Tuple[object, Taint]:
        fn = self.interp.library.lookup(expr.func)
        args: List[object] = []
        taint: Set[MessageUid] = set()
        for arg in expr.args:
            value, t = self.eval_expr(arg)
            args.append(value)
            taint |= t
        try:
            result = fn(*args)
        except Exception as exc:  # library function misuse is a program error
            raise InterpreterError(f"library call {expr.func}({args!r}) failed: {exc}") from exc
        return result, frozenset(taint)


def _as_number(value: object, expr: Expr) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return value
    raise InterpreterError(f"expected a number in {expr!r}, got {value!r}")


def _apply_binop(op: str, lval: object, rval: object, expr: BinOp) -> object:
    if op == "+":
        if isinstance(lval, str) or isinstance(rval, str):
            return f"{lval}{rval}"
        return _as_number(lval, expr) + _as_number(rval, expr)
    if op == "-":
        return _as_number(lval, expr) - _as_number(rval, expr)
    if op == "*":
        return _as_number(lval, expr) * _as_number(rval, expr)
    if op == "/":
        denom = _as_number(rval, expr)
        if denom == 0:
            raise InterpreterError(f"division by zero in {expr!r}")
        return _as_number(lval, expr) / denom
    if op == "//":
        denom = _as_number(rval, expr)
        if denom == 0:
            raise InterpreterError(f"division by zero in {expr!r}")
        return _as_number(lval, expr) // denom
    if op == "%":
        denom = _as_number(rval, expr)
        if denom == 0:
            raise InterpreterError(f"modulo by zero in {expr!r}")
        return _as_number(lval, expr) % denom
    if op == ">":
        return lval > rval  # type: ignore[operator]
    if op == ">=":
        return lval >= rval  # type: ignore[operator]
    if op == "<":
        return lval < rval  # type: ignore[operator]
    if op == "<=":
        return lval <= rval  # type: ignore[operator]
    if op == "==":
        return lval == rval
    if op == "!=":
        return lval != rval
    if op == "min":
        return min(lval, rval)  # type: ignore[type-var]
    if op == "max":
        return max(lval, rval)  # type: ignore[type-var]
    raise InterpreterError(f"unknown binary operator {op!r}")
