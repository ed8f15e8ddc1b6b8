"""The DCA elasticity manager (Section IV-C of the paper).

Decision procedure, per monitoring interval:

1. Read recent causal-path counts from the profiler and normalise them
   into causal probabilities; derive per-component causal weights ``w_c``
   (the probability that an external request touches the component).
   When the recent horizon holds too few sampled paths to be trusted, the
   manager falls back to the full 60-minute window — the mechanism behind
   RQ4's sampling sweet spot.
2. Size each component directly from its causally predicted message
   frequency: ``target_c = w_c · λ_forecast · κ_c / (capacity · ρ_target)``,
   where ``κ_c`` (CPU-ms per weighted request) is learned *slowly* from
   observable utilisation, so it cannot chase profile noise and mask the
   profile-quality effects the paper measures.  Instrumentation overhead
   enters naturally: the instrumented app is slower, κ absorbs it, and the
   manager provisions for it (RQ3).
3. Apply slow utilisation-band corrections (the S1/S4 monitoring
   feedback): saturation triggers an immediate jump, sustained
   under-utilisation a proportional release.
4. Enforce the paper's linear-regression capacity model as an
   overall-requirement floor; any deficit is apportioned by causal
   probability ("we use causal probability for proportional allocation of
   resources").
5. Charge the tracking infrastructure (graph-store + profiler hosts,
   which scale with the sampled message volume) as provisioned capacity.

Components flagged as *serialisation suspects* by the structural rule of
Section II-C (many causal paths in, few out to other components) are
never scaled beyond their configured ceiling: "elastic scaling of said
component can be prevented because it is unlikely to change application
performance".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Set

from repro.autoscale.manager import (
    ClusterObservation,
    ElasticityManager,
    ScalingDecision,
    clamp_targets,
)
from repro.core.probability import causal_probabilities, component_weights
from repro.core.regression import LinearCapacityModel, MachineSpec
from repro.errors import ElasticityError
from repro.lang.ir import CLIENT, Application
from repro.profiling.profiler import CausalPathProfiler
from repro.telemetry import MetricsRegistry


def detect_serialization_suspects(app: Application, in_out_ratio: float = 3.0) -> Set[str]:
    """Structural rule of Section II-C: components with many architectural
    in-edges but few out-edges to *other components* are likely serialised
    (lock-contended), and scaling them out is unlikely to help.
    """
    in_degree: Dict[str, int] = {name: 0 for name in app.components}
    out_degree: Dict[str, int] = {name: 0 for name in app.components}
    for src, _, dest in app.architectural_edges():
        if dest != CLIENT and dest in in_degree:
            in_degree[dest] += 1
        if dest != CLIENT and src in out_degree:
            out_degree[src] += 1
    suspects: Set[str] = set()
    for name in app.components:
        if in_degree[name] >= max(2.0, in_out_ratio * max(1, out_degree[name])) and out_degree[name] == 0:
            suspects.add(name)
    return suspects


@dataclass(frozen=True)
class StalenessPolicy:
    """When to distrust the causal profile and fall back to reactive sizing.

    The causal profile degrades silently: dropped messages, dead-lettered
    store writes, or lost profiler flushes simply make the recent window
    *sparse*, and the weights computed from it swing wildly.  The policy
    defines "too sparse / too old" and adds hysteresis (engage after
    ``stale_after_intervals`` bad intervals, re-engage the causal model
    only after ``fresh_after_intervals`` good ones) so the manager does
    not flap between models at the edge of an outage.
    """

    min_recent_samples: int = 40
    recent_horizon_minutes: float = 5.0
    max_record_age_minutes: Optional[float] = None
    stale_after_intervals: int = 2
    fresh_after_intervals: int = 2
    #: When set (``"topk"`` or ``"component"``), the detector also drops
    #: the profiler to that precision tier while the fallback is engaged
    #: and restores ``exact`` tracking on release — shedding profiler
    #: cost exactly when the profile is distrusted anyway.  ``None``
    #: keeps the profiler's mode untouched.
    downshift_mode: Optional[str] = None

    def __post_init__(self) -> None:
        if self.min_recent_samples < 1:
            raise ElasticityError(
                f"min_recent_samples must be >= 1, got {self.min_recent_samples}"
            )
        if self.recent_horizon_minutes <= 0:
            raise ElasticityError("recent_horizon_minutes must be positive")
        if self.max_record_age_minutes is not None and self.max_record_age_minutes <= 0:
            raise ElasticityError("max_record_age_minutes must be positive")
        if self.stale_after_intervals < 1 or self.fresh_after_intervals < 1:
            raise ElasticityError("hysteresis interval counts must be >= 1")
        if self.downshift_mode is not None and self.downshift_mode not in ("topk", "component"):
            raise ElasticityError(
                f"downshift_mode must be 'topk' or 'component', got {self.downshift_mode!r}"
            )


class ProfileStalenessDetector:
    """Hysteretic health check over the profiler's recent sample flow.

    :meth:`update` is called once per monitoring interval and returns
    whether the regression/utilisation fallback is currently engaged.
    State transitions and per-interval health are all counted, so a
    fault scenario can assert the fallback engaged within a bounded
    number of intervals of the outage and released after recovery.
    """

    def __init__(
        self,
        profiler: CausalPathProfiler,
        policy: StalenessPolicy,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.profiler = profiler
        self.policy = policy
        self.telemetry = registry if registry is not None else profiler.telemetry
        self.engaged = False
        #: Precision tier the profiler is dropped to while engaged
        #: (``None`` = never touch the profiler's mode).  Replay
        #: eligibility checks it.
        self.downshift_mode = policy.downshift_mode
        self._downshifted = False
        self._stale_streak = 0
        self._fresh_streak = 0
        self._m_stale = self.telemetry.counter("elasticity.stale_intervals")
        self._m_engagements = self.telemetry.counter("elasticity.fallback_engagements")
        self._m_recoveries = self.telemetry.counter("elasticity.fallback_recoveries")
        self._m_active = self.telemetry.gauge("elasticity.fallback_active")
        self._m_downshifts = self.telemetry.counter("elasticity.precision_downshifts")
        self._m_restores = self.telemetry.counter("elasticity.precision_restores")
        self._m_active.set(0.0)
        #: Optional :class:`~repro.sim.tap.SimTap`; when set, every
        #: :meth:`update` emits one ``staleness`` event so the chaos
        #: invariant checker can bound the re-engagement lag.  Emit-only.
        self.tap = None

    def update(self, now_minutes: float) -> bool:
        policy = self.policy
        # The exact scalar sample flow — maintained in every profiler
        # precision mode, so downshifting never blinds the detector.
        recent_total = self.profiler.sample_total_between(
            now_minutes - policy.recent_horizon_minutes, now_minutes
        )
        sparse = recent_total < policy.min_recent_samples
        too_old = False
        if policy.max_record_age_minutes is not None:
            last = self.profiler.last_record_minutes
            too_old = last is None or now_minutes - last > policy.max_record_age_minutes
        if sparse or too_old:
            self._m_stale.inc()
            self._stale_streak += 1
            self._fresh_streak = 0
            if not self.engaged and self._stale_streak >= policy.stale_after_intervals:
                self.engaged = True
                self._m_engagements.inc()
                self._maybe_downshift()
        else:
            self._fresh_streak += 1
            self._stale_streak = 0
            if self.engaged and self._fresh_streak >= policy.fresh_after_intervals:
                self.engaged = False
                self._m_recoveries.inc()
                self._maybe_restore()
        self._m_active.set(1.0 if self.engaged else 0.0)
        if self.tap is not None:
            self.tap.emit(
                "staleness", healthy=not (sparse or too_old), engaged=self.engaged
            )
        return self.engaged

    def _maybe_downshift(self) -> None:
        if self.downshift_mode is None or self._downshifted:
            return
        if self.profiler.mode == "exact":
            self.profiler.set_mode(self.downshift_mode)
            self._downshifted = True
            self._m_downshifts.inc()

    def _maybe_restore(self) -> None:
        if self._downshifted:
            self.profiler.set_mode("exact")
            self._downshifted = False
            self._m_restores.inc()


@dataclass
class DCAManagerConfig:
    """Tunables of the DCA elasticity manager."""

    sampling_rate: float = 0.10
    mix_horizon_minutes: float = 2.0
    target_utilization: float = 0.73
    forecast_gain: float = 1.5
    kappa_alpha: float = 0.04
    max_forecast_ratio: float = 1.6
    band_high: float = 0.84
    band_low: float = 0.72
    emergency_utilization: float = 0.95
    below_band_patience: int = 2
    infra_msgs_per_node_per_min: float = 2_500.0
    serial_node_cap: int = 5
    min_mix_samples: int = 70
    #: When set, the manager runs a :class:`ProfileStalenessDetector` and
    #: ignores causal weights (pure regression/utilisation sizing) while
    #: the fallback is engaged.  ``None`` (the default) preserves the
    #: paper's baseline behaviour: the causal model is always trusted.
    staleness: Optional[StalenessPolicy] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.sampling_rate <= 1.0:
            raise ElasticityError(f"sampling_rate must be in [0, 1], got {self.sampling_rate}")
        if not 0.0 < self.target_utilization < 1.0:
            raise ElasticityError(
                f"target_utilization must be in (0, 1), got {self.target_utilization}"
            )
        if self.mix_horizon_minutes <= 0:
            raise ElasticityError("mix_horizon_minutes must be positive")


class DCAElasticityManager(ElasticityManager):
    """Causal-probability-driven proportional autoscaler."""

    visibility = "paths"

    def __init__(
        self,
        profiler: CausalPathProfiler,
        machine: MachineSpec,
        config: Optional[DCAManagerConfig] = None,
        capacity_model: Optional[LinearCapacityModel] = None,
        serialization_suspects: Optional[Set[str]] = None,
        avg_messages_per_request: float = 8.0,
    ) -> None:
        self.profiler = profiler
        self.machine = machine
        self.config = config or DCAManagerConfig()
        self.capacity_model = capacity_model or LinearCapacityModel()
        self.serialization_suspects = set(serialization_suspects or ())
        self.avg_messages_per_request = float(avg_messages_per_request)
        self.name = f"DCA-{int(round(self.config.sampling_rate * 100))}%"
        self._below_count: Dict[str, int] = {}
        self._kappa: Dict[str, float] = {}
        self._prev_arrivals: Optional[float] = None
        self.staleness_detector = (
            ProfileStalenessDetector(profiler, self.config.staleness)
            if self.config.staleness is not None
            else None
        )

    # -- decision ---------------------------------------------------------------

    def decide(self, observation: ClusterObservation) -> ScalingDecision:
        """The paper's Section IV-C procedure, per interval.

        Causal probability predicts each component's message frequency as
        ``w_c · λ`` (the probability an external request touches the
        component, times the external rate).  A slowly learned
        nodes-per-weighted-request factor ``κ_c`` converts that frequency
        into machines, so the allocation is driven by the *causal
        profile*: a fresh profile tracks hot-path shifts immediately,
        while a stale one (low sampling, RQ4) mis-sizes every component
        until the band corrections — the slow S1/S4 monitoring feedback —
        catch up.  The linear-regression model supplies an
        overall-requirement floor whose deficit is apportioned by causal
        probability.
        """
        cfg = self.config
        now = observation.time_minutes
        if self.staleness_detector is not None and self.staleness_detector.update(now):
            # Profile too sparse/old to trust (e.g. a monitoring outage):
            # run pure regression/utilisation sizing.  Empty weights send
            # every component down the hold-current-allocation branch, let
            # the utilisation bands steer, and make the LR capacity floor
            # apportion its deficit uniformly; κ learning freezes so the
            # causal model resumes from its pre-outage calibration once
            # the detector releases.
            weights: Dict[str, float] = {}
        else:
            weights = self._current_weights(now, observation)
        arrivals = observation.external_arrivals_per_min
        forecast = self._forecast_arrivals(arrivals)
        self._learn_kappa(observation, weights)

        targets: Dict[str, int] = {}
        for comp, cobs in observation.components.items():
            alloc = max(1, cobs.nodes + cobs.pending_nodes)
            w = weights.get(comp, 0.0)
            kappa = self._kappa.get(comp)
            if kappa is None or w <= 0:
                target = float(alloc)
            else:
                demand_ms = w * forecast * kappa
                target = demand_ms / (
                    observation.machine.capacity_ms_per_minute * cfg.target_utilization
                )
            util = cobs.utilization
            if util > cfg.emergency_utilization:
                # Saturated: jump straight to the utilisation-implied size.
                target = max(target, alloc * util / cfg.target_utilization)
                self._below_count[comp] = 0
            elif util > cfg.band_high:
                target = max(target, alloc + max(1.0, math.ceil(alloc * 0.10)))
                self._below_count[comp] = 0
            elif util < cfg.band_low:
                # Only release capacity after sustained under-utilisation;
                # a single quiet interval may be noise.  The release is
                # proportional: shrink toward the size that puts
                # utilisation back at the bottom of the band.
                count = self._below_count.get(comp, 0) + 1
                self._below_count[comp] = count
                if count >= cfg.below_band_patience:
                    bound = max(1.0, round(alloc * util / cfg.band_low))
                    target = min(target, bound)
            else:
                self._below_count[comp] = 0
            targets[comp] = max(1, int(round(target)))

        targets = self._apply_capacity_floor(targets, weights, observation, forecast)
        targets = self._apply_serialization_caps(targets, observation)
        targets = clamp_targets(targets)

        infra = self._infrastructure_nodes(forecast)
        return ScalingDecision(targets=targets, infrastructure_nodes=infra)

    def _learn_kappa(self, observation: ClusterObservation, weights: Mapping[str, float]) -> None:
        """Slowly learn κ_c: CPU-ms of component work per weighted request.

        The learning rate is deliberately low — κ is a property of the
        *code* (how much work one request induces at the component), not
        of the workload, so it must not chase profile noise; if it did,
        the κ estimate would silently compensate for a stale or noisy
        causal profile and mask exactly the effect RQ4 measures.
        """
        arrivals = observation.external_arrivals_per_min
        if arrivals <= 0:
            return
        alpha = self.config.kappa_alpha
        for comp, cobs in observation.components.items():
            w = weights.get(comp, 0.0)
            if w <= 1e-6:
                continue
            demand_ms = cobs.utilization * cobs.nodes * observation.machine.capacity_ms_per_minute
            sample = demand_ms / (arrivals * w)
            prev = self._kappa.get(comp)
            self._kappa[comp] = sample if prev is None else (1 - alpha) * prev + alpha * sample

    def on_interval_end(self, observation: ClusterObservation) -> None:
        """Train the capacity model with this interval's observed need."""
        needed = self._reactive_total(observation)
        self.capacity_model.observe(
            machine=observation.machine,
            workload=observation.external_arrivals_per_min,
            throughput=observation.app_throughput_per_min,
            latency_ms=observation.app_latency_ms,
            machines_needed=needed,
        )
        self._prev_arrivals = observation.external_arrivals_per_min

    # -- pieces ------------------------------------------------------------------

    def _current_weights(self, now: float, observation: ClusterObservation) -> Dict[str, float]:
        if getattr(self.profiler, "mode", "exact") == "component":
            # Cheapest precision tier: the profiler already collapsed
            # counts to per-component touch fractions — exactly the w_c
            # this method derives from per-path causal probabilities, at
            # component (not path) resolution.  Estimates carry the same
            # ±ε contract as topk counts (see profiling.sketches).
            weights = self.profiler.component_weight_estimates(now)
            if not weights:
                return {comp: 1.0 for comp in observation.components}
            return weights
        counts = self.profiler.counts_between(now - self.config.mix_horizon_minutes, now)
        if sum(counts.values()) < self.config.min_mix_samples:
            # Too few sampled paths in the recent horizon to estimate the
            # mix with any confidence — fall back to the full
            # causal-probability window.  This is the mechanism behind
            # RQ4's sweet spot: at 5% sampling the recent horizon rarely
            # clears the confidence bar, so the manager works from a
            # stale (up to window-length old) picture of the workload and
            # lags every hot-path shift, while at 10% it usually has
            # enough fresh samples.
            counts = self.profiler.counts(now)
        probs = causal_probabilities(counts)
        weights = component_weights(probs, self.profiler.known_paths())
        if not weights:
            # Cold start: no completed paths yet; treat all components as
            # equally touched so allocation degrades to uniform.
            return {comp: 1.0 for comp in observation.components}
        return weights

    def _forecast_arrivals(self, arrivals: float) -> float:
        cfg = self.config
        if self._prev_arrivals is None:
            return arrivals
        trend = arrivals - self._prev_arrivals
        forecast = arrivals + cfg.forecast_gain * max(0.0, trend)
        return min(forecast, cfg.max_forecast_ratio * max(arrivals, 1e-9))

    def _reactive_total(self, observation: ClusterObservation) -> float:
        total = 0.0
        for obs in observation.components.values():
            demand_ms = obs.utilization * obs.nodes * observation.machine.capacity_ms_per_minute
            total += demand_ms / (
                observation.machine.capacity_ms_per_minute * self.config.target_utilization
            )
        return total

    def _predict_total_nodes(self, observation: ClusterObservation, forecast: float) -> float:
        reactive = self._reactive_total(observation)
        if not self.capacity_model.ready():
            return max(reactive, 1.0)
        predicted = self.capacity_model.predict(
            machine=observation.machine,
            workload=forecast,
            throughput=observation.app_throughput_per_min,
            latency_ms=observation.app_latency_ms,
        )
        # The regression extrapolates to the forecast workload; the reactive
        # estimate is a floor so the model can never starve the app.
        return max(predicted, reactive, 1.0)

    def _apply_capacity_floor(
        self,
        targets: Dict[str, int],
        weights: Mapping[str, float],
        observation: ClusterObservation,
        forecast: float,
    ) -> Dict[str, int]:
        """LR-model overall-requirement floor, apportioned causally.

        "Once a decision is made to increase … the amount of resources
        available to the application, we use causal probability for
        proportional allocation of resources."
        """
        if not self.capacity_model.ready():
            return targets
        total_pred = self._predict_total_nodes(observation, forecast)
        current_total = sum(targets.values())
        if current_total >= 0.85 * total_pred:
            return targets
        deficit = total_pred - current_total
        weight_sum = sum(weights.get(comp, 0.0) for comp in targets)
        out = dict(targets)
        if weight_sum <= 0:
            bump = deficit / max(1, len(targets))
            for comp in out:
                out[comp] += max(0, int(round(bump)))
            return out
        for comp in out:
            share = weights.get(comp, 0.0) / weight_sum
            out[comp] += max(0, int(round(deficit * share)))
        return out

    def _apply_serialization_caps(
        self,
        targets: Dict[str, int],
        observation: ClusterObservation,
    ) -> Dict[str, int]:
        capped = dict(targets)
        for comp in self.serialization_suspects:
            if comp in capped:
                capped[comp] = min(capped[comp], self.config.serial_node_cap)
        return capped

    def _infrastructure_nodes(self, forecast_arrivals: float) -> int:
        """Graph-store + profiler hosts, sized by sampled message volume."""
        rate = self.config.sampling_rate
        if rate <= 0:
            return 0
        sampled_msgs = forecast_arrivals * rate * self.avg_messages_per_request
        return 1 + int(math.ceil(sampled_msgs / self.config.infra_msgs_per_node_per_min))
