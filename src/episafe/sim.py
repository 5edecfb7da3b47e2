"""Fixed-step closed-loop simulation and trajectory auditing.

The loop advances the model with a classical Runge-Kutta step of size dt,
evaluating the feedback law once per step on the state selected by the
scenario's feedback mode: the true current state, a measurement delayed by
tau, or a forecast from it replaying the commands sent since.  Every mode
reads its measurement from one list: lag copies of the prehistory (lag = D
delay steps in the delayed and predictor modes, 0 in instantaneous mode)
followed by each recorded state, so sample k's measurement is entry k.
MeasurementBuffer is a standalone delay buffer that simulate does not use.
An optional bounded input disturbance, sampled per step from the scenario
seed, is added to the applied input.  Everything a safety audit needs is
recorded.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral
from typing import Sequence

import numpy as np

from . import engine
from .contract import MODES, SimulationError
from .models import ModelSpec, ModelState
from .safety import (
    InitialConditionReport,
    SafetyConstraint,
    _clamp01,
    _margins,
    combined_control,
    validate_initial_condition,
)

__all__ = [
    "Scenario",
    "Trajectory",
    "MeasurementBuffer",
    "SimulationError",
    "InitialConditionError",
    "IntegrationError",
    "MODES",
    "grid_steps",
    "simulate",
    "safety_audit",
    "ConstraintAudit",
    "AuditReport",
]

class InitialConditionError(SimulationError):
    """Guaranteed-mode run refused: the starting state does not satisfy the
    controller hypotheses."""

    def __init__(self, report: InitialConditionReport):
        super().__init__(
            "initial condition fails controller hypotheses: "
            + report.describe().replace("\n", "; ")
        )
        self.report = report


class IntegrationError(SimulationError):
    pass


def grid_steps(span: float, dt: float) -> int | None:
    """Number of dt steps in span, or None unless span is finite and
    non-negative, dt finite and positive, and span a whole number of steps
    to a relative tolerance of 1e-9: the one rule that maps times to step
    numbers."""
    if not (0.0 <= span < math.inf and 0.0 < dt < math.inf):
        return None
    k = span / dt
    if k == math.inf:  # the quotient overflowed
        return None
    steps = round(k)
    return steps if abs(k - steps) <= 1e-9 * max(1.0, k) else None


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment, fully specified and validated.

    feedback_mode is one of "instantaneous", "delayed", "predictor"; tau is
    the measurement delay used by the latter two.  disturbance_delta bounds
    the per-step uniform input disturbance (0 disables it; draws use seed,
    a non-negative integer).
    The controller is off (u = 0) before sample control_step.  The horizon,
    tau and control_start - t_start map to the step counts n_steps,
    delay_steps and control_step through grid_steps, and must each be a
    whole number of dt steps to its relative tolerance of 1e-9.
    """

    spec: ModelSpec
    state0: ModelState
    t_start: float
    t_end: float
    dt: float
    constraints: tuple[SafetyConstraint, ...] = ()
    feedback_mode: str = "instantaneous"
    tau: float = 0.0
    disturbance_delta: float = 0.0
    seed: int = 0
    control_start: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.control_start is None:
            object.__setattr__(self, "control_start", self.t_start)
        for name in ("t_start", "t_end", "dt", "tau", "disturbance_delta", "control_start"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if grid_steps(self.t_end - self.t_start, self.dt) is None:
            raise ValueError(
                "horizon t_end - t_start must be a non-negative multiple of dt"
            )
        if self.feedback_mode not in MODES:
            raise ValueError(f"feedback_mode must be one of {MODES}")
        if grid_steps(self.tau, self.dt) is None:
            raise ValueError("tau must be a non-negative multiple of dt")
        if self.disturbance_delta < 0.0:
            raise ValueError("disturbance_delta must be non-negative")
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        if (
            grid_steps(self.control_start - self.t_start, self.dt) is None
            or self.control_start > self.t_end
        ):
            raise ValueError(
                "control_start must fall on the dt grid within [t_start, t_end]"
            )
        if self.state0.labels != self.spec.labels:
            raise ValueError("initial state labels do not match the model")
        for c in self.constraints:
            c.check_against(self.spec)

    @property
    def n_steps(self) -> int:
        return grid_steps(self.t_end - self.t_start, self.dt)

    @property
    def delay_steps(self) -> int:
        return grid_steps(self.tau, self.dt)

    @property
    def control_step(self) -> int:
        return grid_steps(self.control_start - self.t_start, self.dt)

    @property
    def guaranteed(self) -> bool:
        """True when the run claims a safety guarantee: feedback is either
        instantaneous or forecast-compensated, and no disturbance is
        injected."""
        return self.feedback_mode in ("instantaneous", "predictor") and (
            self.disturbance_delta == 0.0
        )

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps + 1)


class MeasurementBuffer:
    """Ring buffer of states, one per time step, serving delayed lookups.

    A standalone helper: simulate reads its delayed measurements from the
    states it records, not from a buffer.  Holds exactly the delay window.
    A time maps to its step number round((t - t_start) / dt); measurements
    are pushed once per step, in order.  Lookups before the recorded
    history return the prehistory state (the initial state unless an
    explicit prehistory was supplied), matching the convention that the
    system sat at its initial state before the run began.
    """

    def __init__(
        self,
        t_start: float,
        dt: float,
        tau: float,
        prehistory: Sequence[float],
    ):
        self._t_start = t_start
        self._dt = dt
        self._entries: deque[tuple[int, list[float]]] = deque(
            maxlen=round(tau / dt) + 1
        )
        self._prehistory = list(prehistory)

    def _step(self, t: float) -> int:
        return round((t - self._t_start) / self._dt)

    def push(self, t: float, x: Sequence[float]) -> None:
        self._entries.append((self._step(t), list(x)))

    def lookup(self, t: float) -> list[float]:
        k = self._step(t)
        if k < 0:
            return list(self._prehistory)
        if self._entries:
            i = k - self._entries[0][0]
            if 0 <= i < len(self._entries) and self._entries[i][0] == k:
                return list(self._entries[i][1])
        raise LookupError(f"no buffered measurement at t={t:g}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded closed-loop run: the unit of audit and output.

    All series share one length, one entry per sample, and are read-only.
    states, one row per sample, is the record; times, barriers and extended
    are computed from it and the scenario on construction: times is
    scenario.times(), barriers and extended the per-constraint margins h
    and h_e at each state (extended is NaN for multiplicative
    constraints).  Replacing the scenario, its constraints for instance,
    recomputes them.  u_raw, u, active and feasible record the control law
    as evaluated on the feedback state: the unclamped output, its clamp to
    [0, 1], the position of the constraint setting it (-1 while the
    controller is off) and whether the QP was feasible.  disturbances holds
    the sampled input offsets.  A trajectory is equal only to itself and
    hashes by identity: its series are arrays, which have no single truth
    value to compare by.
    """

    scenario: Scenario
    states: np.ndarray
    u_raw: np.ndarray
    u: np.ndarray
    active: np.ndarray
    feasible: np.ndarray
    disturbances: np.ndarray
    initial_report: InitialConditionReport | None = None
    times: np.ndarray = field(init=False)
    barriers: np.ndarray = field(init=False)
    extended: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        scenario = self.scenario
        barriers, extended = _margins(scenario.spec, scenario.constraints, self.states)
        object.__setattr__(self, "times", scenario.times())
        object.__setattr__(self, "barriers", barriers)
        object.__setattr__(self, "extended", extended)
        k = self.times.size
        series = (
            self.times, self.states, self.u_raw, self.u, self.active,
            self.feasible, self.barriers, self.extended, self.disturbances,
        )
        if any(arr.shape[0] != k for arr in series):
            raise ValueError("trajectory series lengths differ")
        for arr in series:
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.scenario.spec.labels

    def state_at(self, k: int) -> ModelState:
        return self.scenario.spec.state(self.states[k])

    def peak(self, label: str) -> tuple[float, float]:
        """(max value, time of max) for a compartment, clamped at zero."""
        col = self.labels.index(label)
        series = np.maximum(self.states[:, col], 0.0)
        k = int(np.argmax(series))
        return float(series[k]), float(self.times[k])


def simulate(scenario: Scenario, prehistory: Sequence[float] | None = None) -> Trajectory:
    """Run the closed loop over the scenario horizon.

    The feedback law is evaluated once per sample (including the final one,
    whose decision is recorded but not integrated) and the applied input
    clamp(u + d) is held constant across each step.  The predictor replays
    the commands u sent since its measurement: no law runs inside a
    forecast.  The measurements are one list, hist: lag copies of the
    prehistory, then the state of every sample as it is recorded, with lag
    = D (delay_steps) in the delayed and predictor modes and 0 in
    instantaneous mode.  The law at sample k reads hist[k], the state of
    sample k - lag or the prehistory while k < lag, and the predictor
    starts its forecast there; the recorded states are hist[lag:].  In
    guaranteed mode the run refuses to start if the initial controlled
    state violates the controller hypotheses.  combined_control refuses
    every state the law sees that holds negative populations or a
    non-finite entry, a forecast included (ValueError).

    prehistory optionally overrides the state reported for measurement
    times before t_start (defaults to the initial state).  In the delayed
    and predictor modes, which read it, it must have one finite entry per
    compartment and pass the same population check (ValueError).
    """
    spec = scenario.spec
    cons = scenario.constraints
    n_steps = scenario.n_steps
    delay_steps = scenario.delay_steps
    dt = scenario.dt
    predictor = scenario.feedback_mode == "predictor"

    x = scenario.state0.x.tolist()
    # the law runs on every sample from control_step on
    first = scenario.control_step if cons else n_steps + 1
    dists = np.zeros(n_steps + 1)
    offsets = None  # sampled input disturbances from the first controlled sample
    if scenario.disturbance_delta > 0.0:
        delta = scenario.disturbance_delta
        dists[first:] = np.random.default_rng(scenario.seed).uniform(
            -delta, delta, size=n_steps + 1 - first
        )
        offsets = dists[first:].tolist()
    # (u_raw, u, feasible, active) per sample, at rest while the law is off
    decisions = [(0.0, 0.0, True, -1)] * first

    lag = 0
    if scenario.feedback_mode != "instantaneous":
        lag = delay_steps
        if prehistory is None:
            prehistory = x
        else:
            prehistory = spec.state(prehistory).x.tolist()
            if not all(map(math.isfinite, prehistory)):
                raise ValueError(f"prehistory must be finite, got {prehistory}")
    hist = [prehistory] * lag  # the measurement of sample k is hist[k]

    def sent(j: int, _x: Sequence[float]) -> float:  # the command of sample j
        return decisions[j][1]

    # bound once per run, after any wrapper the caller installed
    rk4, deriv, control = engine.rk4_flat, spec.derivative_t, combined_control
    isfinite = math.isfinite
    report: InitialConditionReport | None = None
    for k in range(n_steps + 1):
        hist.append(x)
        applied = 0.0
        if k >= first:
            if report is None:
                report = validate_initial_condition(spec, cons, spec.state(x))
                if not report.ok and scenario.guaranteed:
                    raise InitialConditionError(report)
            feedback = hist[k]
            if predictor:
                # from the measurement, or from the start of the run
                span = min(k, delay_steps)
                feedback = engine.closed_loop_rollout(
                    spec, feedback, k - span, span, dt, sent
                )
            decision = control(spec, cons, feedback)
            decisions.append(decision)
            applied = decision[1]  # in [0, 1]
            if offsets is not None:
                applied = _clamp01(applied + offsets[k - first])

        if k < n_steps:
            x = rk4(deriv, x, applied, dt)
            # a finite sum has only finite entries
            if not isfinite(sum(x)) and not all(map(isfinite, x)):
                t = scenario.times()[k]
                raise IntegrationError(
                    f"non-finite state after step {k} (t={t:g}): {x}"
                )

    u_raw, u, feasible, active = map(np.array, zip(*decisions))
    width = len(x)
    states = np.fromiter(chain.from_iterable(hist[lag:]), float, (n_steps + 1) * width)
    return Trajectory(
        scenario=scenario,
        states=states.reshape(n_steps + 1, width),
        u_raw=u_raw,
        u=u,
        active=active,
        feasible=feasible,
        disturbances=dists,
        initial_report=report,
    )


@dataclass(frozen=True)
class ConstraintAudit:
    """Safety audit of one constraint along a trajectory."""

    label: str
    min_margin: float
    min_margin_time: float
    violation_count: int
    violation_times: tuple[float, ...]
    decay_check_failures: int
    decay_check_worst: float
    decay_tolerance: float

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


@dataclass(frozen=True)
class AuditReport:
    constraints: tuple[ConstraintAudit, ...]
    infeasible_count: int
    infeasible_times: tuple[float, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.constraints)

    def describe(self) -> str:
        lines = []
        for c in self.constraints:
            lines.append(
                f"{c.label}: min h = {c.min_margin:.6g} at t={c.min_margin_time:.6g}, "
                f"{c.violation_count} violation(s), "
                f"decay check failures {c.decay_check_failures} "
                f"(worst {c.decay_check_worst:.6g}, tol {c.decay_tolerance:.6g})"
            )
        lines.append(f"input clamping events: {self.infeasible_count}")
        return "\n".join(lines)


_MAX_LOGGED_TIMES = 20


def safety_audit(trajectory: Trajectory) -> AuditReport:
    """Audit a trajectory's margins against its scenario's constraints.

    The margins are the trajectory's barriers, computed from its states; to
    audit against another constraint set, replace the trajectory's
    scenario with one holding it (dataclasses.replace), which recomputes
    them.  Reports, per constraint: the worst margin, every sign violation,
    and a discretized margin-decay check (h(t+dt) - h(t))/dt + alpha h(t)
    >= -tol with tol = 1e-6 * alpha * bound, on each step from the
    scenario's control_step on: before it the law is off and nothing is
    guaranteed.  Without such a step the check reports 0 failures and a
    worst value of inf.  The decay check is informational: holding the
    input constant across a step shifts it by O(dt) even for a perfectly
    safe run.
    """
    scenario = trajectory.scenario
    dt = scenario.dt
    start = scenario.control_step
    audits = []
    for c, series in zip(scenario.constraints, trajectory.barriers.T):
        k_min = int(np.argmin(series))
        viol = np.flatnonzero(series < 0.0)
        tol = 1e-6 * c.alpha * c.bound
        controlled = series[start:]
        with np.errstate(all="ignore"):  # alpha * h may overflow to inf
            decay = np.diff(controlled) / dt + c.alpha * controlled[:-1]
        failures = int(np.count_nonzero(decay < -tol))
        worst = float(decay.min()) if decay.size else math.inf
        audits.append(
            ConstraintAudit(
                label=c.label(),
                min_margin=float(series[k_min]),
                min_margin_time=float(trajectory.times[k_min]),
                violation_count=int(viol.size),
                violation_times=tuple(
                    float(trajectory.times[i]) for i in viol[:_MAX_LOGGED_TIMES]
                ),
                decay_check_failures=failures,
                decay_check_worst=worst,
                decay_tolerance=tol,
            )
        )
    infeasible = np.flatnonzero(~trajectory.feasible)
    return AuditReport(
        constraints=tuple(audits),
        infeasible_count=int(infeasible.size),
        infeasible_times=tuple(
            float(trajectory.times[i]) for i in infeasible[:_MAX_LOGGED_TIMES]
        ),
    )
