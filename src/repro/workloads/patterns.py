"""Workload patterns (Figure 7 of the paper).

"Evaluating elasticity is seldom about 'normal' workload patterns, but
rather about 'irregular' workload patterns."  Figure 7 shows, over a
450-minute run: a cyclic portion with "regular" variations (continuous
and step-wise), a gradual non-cyclic step-wise increase, an abrupt
step-wise decrease, a continuous increase, and a rapid continuous
decrease.  Patterns are normalised to [0, 1]; per-application magnitudes
(the figure's points A and B) are applied by :class:`ScaledPattern`
("the values of points A and B … are different for the four systems
depending on the benchmark").

All patterns are pure functions of time — determinism is load-bearing
for reproducible experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import WorkloadError

#: Total duration of the paper's experimental run, in minutes.
RUN_MINUTES = 450.0

PatternFn = Callable[[float], float]


def _clamp01(x: float) -> float:
    return max(0.0, min(1.0, x))


def cyclic_pattern(t_minutes: float, period: float = 50.0, base: float = 0.45, amplitude: float = 0.35) -> float:
    """Continuous cyclic variation: a sine around ``base``."""
    if period <= 0:
        raise WorkloadError(f"period must be positive, got {period}")
    return _clamp01(base + amplitude * math.sin(2.0 * math.pi * t_minutes / period))


def stepwise_cyclic_pattern(
    t_minutes: float,
    period: float = 50.0,
    base: float = 0.45,
    amplitude: float = 0.35,
    step_minutes: float = 10.0,
) -> float:
    """Cyclic variation quantised into plateaus of ``step_minutes``."""
    if step_minutes <= 0:
        raise WorkloadError(f"step_minutes must be positive, got {step_minutes}")
    quantised_t = math.floor(t_minutes / step_minutes) * step_minutes
    return cyclic_pattern(quantised_t, period=period, base=base, amplitude=amplitude)


def abrupt_pattern(t_minutes: float) -> float:
    """The abrupt portion shapes, compressed into one 0–250 minute curve.

    0–80: gradual step-wise increase; 80–100: abrupt step-wise decrease;
    100–170: continuous increase; 170–200: rapid continuous decrease;
    200–250: low plateau.
    """
    t = t_minutes
    if t < 0:
        raise WorkloadError(f"time must be >= 0, got {t}")
    if t < 80:
        step = math.floor(t / 16)  # five steps up
        return _clamp01(0.25 + 0.13 * step)
    if t < 100:
        return 0.9 if t < 90 else 0.45
    if t < 170:
        return _clamp01(0.3 + 0.65 * (t - 100) / 70.0)
    if t < 200:
        return _clamp01(0.95 - 0.70 * (t - 170) / 30.0)
    return 0.25


def paper_pattern(t_minutes: float) -> float:
    """The full Figure 7 workload over 450 minutes.

    Piecewise: continuous cyclic (0–100), step-wise cyclic (100–180),
    step-wise non-cyclic increase (180–240), abrupt step-wise decrease
    (240–270), continuous increase (270–330), high plateau (330–360),
    rapid continuous decrease (360–390), mild cyclic tail (390–450).
    """
    t = t_minutes
    if t < 0:
        raise WorkloadError(f"time must be >= 0, got {t}")
    if t < 100:
        return cyclic_pattern(t)
    if t < 180:
        return stepwise_cyclic_pattern(t - 100, base=0.45, amplitude=0.30)
    if t < 240:
        step = math.floor((t - 180) / 12)  # five steps up
        return _clamp01(0.35 + 0.12 * step)
    if t < 270:
        return 0.55 if t < 255 else 0.30
    if t < 330:
        return _clamp01(0.30 + 0.65 * (t - 270) / 60.0)
    if t < 360:
        return 0.95
    if t < 390:
        return _clamp01(0.95 - 0.72 * (t - 360) / 30.0)
    return _clamp01(0.30 + 0.10 * math.sin(2.0 * math.pi * (t - 390) / 40.0))


@dataclass(frozen=True)
class ScaledPattern:
    """A normalised pattern scaled into [low, high] requests/min.

    ``low`` and ``high`` correspond to points A and B in Figure 7.
    """

    pattern: PatternFn
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise WorkloadError(f"invalid magnitude range [{self.low}, {self.high}]")

    def rate(self, t_minutes: float) -> float:
        """External request arrivals per minute at time ``t_minutes``."""
        return self.low + (self.high - self.low) * _clamp01(self.pattern(t_minutes))


@dataclass(frozen=True)
class MixPhase:
    """One phase of the request-class mix: active from ``start_minute`` on."""

    start_minute: float
    weights: Mapping[str, float]


class StepMixSchedule:
    """Request-class mix over time: stepped or continuously drifting.

    Workload spikes "are seldom uniformly distributed over all search
    terms" (Section II-A): hot causal paths shift over time, which is
    what makes uniform scaling wasteful and proportional scaling
    valuable.  With ``interpolate=True`` (the default for the evaluation
    scenarios) the mix drifts *linearly* between phase anchors — real
    workload mixes move continuously, and continuous drift is what makes
    a stale causal-path profile pay a price every minute rather than
    only at a few step edges.
    """

    def __init__(self, phases: Sequence[MixPhase], interpolate: bool = True) -> None:
        if not phases:
            raise WorkloadError("StepMixSchedule requires at least one phase")
        ordered = sorted(phases, key=lambda p: p.start_minute)
        if ordered[0].start_minute > 0:
            raise WorkloadError("first mix phase must start at minute 0")
        for phase in ordered:
            total = sum(phase.weights.values())
            if total <= 0:
                raise WorkloadError(f"mix phase at {phase.start_minute} has non-positive total weight")
            if any(w < 0 for w in phase.weights.values()):
                raise WorkloadError(f"mix phase at {phase.start_minute} has negative weights")
        self._phases: List[MixPhase] = list(ordered)
        self.interpolate = bool(interpolate)

    def _normalised(self, phase: MixPhase) -> Dict[str, float]:
        total = sum(phase.weights.values())
        return {name: w / total for name, w in phase.weights.items()}

    def mix(self, t_minutes: float) -> Dict[str, float]:
        """Normalised class weights at time ``t_minutes``."""
        prev = self._phases[0]
        nxt: Optional[MixPhase] = None
        for phase in self._phases:
            if phase.start_minute <= t_minutes:
                prev = phase
            else:
                nxt = phase
                break
        prev_mix = self._normalised(prev)
        if not self.interpolate or nxt is None:
            return prev_mix
        span = nxt.start_minute - prev.start_minute
        if span <= 0:
            return prev_mix
        frac = (t_minutes - prev.start_minute) / span
        next_mix = self._normalised(nxt)
        # Ordered union: the normalising sum below must not follow the
        # interpreter's string-hash seed.
        names = dict.fromkeys([*prev_mix, *next_mix])
        blended = {
            name: (1 - frac) * prev_mix.get(name, 0.0) + frac * next_mix.get(name, 0.0)
            for name in names
        }
        total = sum(blended.values())
        return {name: w / total for name, w in blended.items()}

    def class_names(self) -> List[str]:
        names: set = set()
        for phase in self._phases:
            names |= set(phase.weights)
        return sorted(names)


def uniform_mix(class_names: Sequence[str]) -> StepMixSchedule:
    """A schedule giving every class equal weight for the whole run."""
    if not class_names:
        raise WorkloadError("uniform_mix requires at least one class name")
    return StepMixSchedule([MixPhase(0.0, {name: 1.0 for name in class_names})])


def zipf_weights(class_names: Sequence[str], exponent: float = 1.1) -> Dict[str, float]:
    """Zipf-distributed class weights: the i-th class gets ``1/i^s``.

    Section II-A's observation that spikes "are seldom uniformly
    distributed over all search terms" in distribution form: a few hot
    classes carry most of the traffic, with a long tail.  Classes are
    weighted in the given order (first = hottest), normalised to sum 1.
    """
    if not class_names:
        raise WorkloadError("zipf_weights requires at least one class name")
    if exponent <= 0:
        raise WorkloadError(f"zipf exponent must be positive, got {exponent}")
    raw = {name: 1.0 / (rank ** exponent) for rank, name in enumerate(class_names, start=1)}
    total = sum(raw.values())
    return {name: w / total for name, w in raw.items()}


def zipf_mix(class_names: Sequence[str], exponent: float = 1.1) -> StepMixSchedule:
    """A schedule holding a Zipf-distributed mix for the whole run."""
    return StepMixSchedule([MixPhase(0.0, zipf_weights(class_names, exponent))])


def flash_crowd_pattern(
    t_minutes: float,
    base: float = 0.30,
    peak: float = 1.0,
    start_minute: float = 180.0,
    ramp_minutes: float = 5.0,
    hold_minutes: float = 30.0,
    decay_minutes: float = 20.0,
) -> float:
    """A flash crowd: steady base load, a steep ramp to ``peak``, a hold,
    then an exponential-ish linear decay back to base."""
    t = t_minutes
    if t < 0:
        raise WorkloadError(f"time must be >= 0, got {t}")
    if ramp_minutes <= 0 or hold_minutes < 0 or decay_minutes <= 0:
        raise WorkloadError("flash crowd ramp/hold/decay minutes must be positive")
    if t < start_minute:
        return _clamp01(base)
    if t < start_minute + ramp_minutes:
        return _clamp01(base + (peak - base) * (t - start_minute) / ramp_minutes)
    if t < start_minute + ramp_minutes + hold_minutes:
        return _clamp01(peak)
    decay_start = start_minute + ramp_minutes + hold_minutes
    if t < decay_start + decay_minutes:
        return _clamp01(peak - (peak - base) * (t - decay_start) / decay_minutes)
    return _clamp01(base)


def flash_crowd_mix(
    class_names: Sequence[str],
    hot_class: str,
    start_minute: float = 180.0,
    ramp_minutes: float = 5.0,
    hold_minutes: float = 30.0,
    background_exponent: float = 1.1,
    hot_share: float = 0.75,
) -> StepMixSchedule:
    """A mix schedule where ``hot_class`` abruptly dominates mid-run.

    Before the crowd arrives the mix is Zipf over ``class_names``;
    during it ``hot_class`` takes ``hot_share`` of all traffic (the
    remainder stays Zipf-proportional); afterwards the mix returns to
    the background distribution.  This is the hot-path *shift* case the
    profiler's sketch tiers must track: a previously cold path becomes
    the hottest in the window within ``ramp_minutes``.
    """
    if hot_class not in class_names:
        raise WorkloadError(f"hot_class {hot_class!r} not in class_names")
    if not 0.0 < hot_share < 1.0:
        raise WorkloadError(f"hot_share must be in (0, 1), got {hot_share}")
    background = zipf_weights(class_names, background_exponent)
    cold_total = sum(w for name, w in background.items() if name != hot_class)
    if cold_total <= 0:  # hot_class is the only class
        crowd = dict(background)
    else:
        crowd = {
            name: (
                hot_share
                if name == hot_class
                else (1.0 - hot_share) * background[name] / cold_total
            )
            for name in class_names
        }
    end_minute = start_minute + ramp_minutes + hold_minutes
    return StepMixSchedule(
        [
            MixPhase(0.0, dict(background)),
            MixPhase(start_minute, dict(background)),
            MixPhase(start_minute + ramp_minutes, crowd),
            MixPhase(end_minute, crowd),
            MixPhase(end_minute + ramp_minutes, dict(background)),
        ]
    )
