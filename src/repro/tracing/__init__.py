"""Temporal ("happens-before") causality substrate for the baselines."""

from repro.tracing.clocks import LamportClock, VectorClock, VectorTimestamp
from repro.tracing.htrace import HTraceCollector
from repro.tracing.spans import Span, SpanId, TemporalSpanTracer

__all__ = [
    "HTraceCollector",
    "LamportClock",
    "Span",
    "SpanId",
    "TemporalSpanTracer",
    "VectorClock",
    "VectorTimestamp",
]
