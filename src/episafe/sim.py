"""Fixed-step closed-loop simulation and trajectory auditing.

The loop advances the model with a classical Runge-Kutta step of size dt,
evaluating the feedback law once per step on the state selected by the
scenario's feedback mode: the true current state, a measurement delayed by
tau, or a forecast from it replaying the commands sent since.  Every mode
reads its measurement from one list: lag copies of the prehistory (lag =
min(D, n_steps + 1) in the delayed and predictor modes, 0 in instantaneous
mode) followed by each recorded state, so sample k's measurement is entry k.
MeasurementBuffer is a standalone delay buffer that simulate does not use.
An optional bounded input disturbance, sampled per step from the scenario
seed, is added to the applied input.  Everything a safety audit needs is
recorded.  The loop works on lists, and the record is kept in a stdlib
array and tuples: the audit and the CSV writer build no numpy array, and
numpy is imported only to read a series as one (see Trajectory) and to
draw a disturbed run's offsets.
"""

from __future__ import annotations

import math
import os
import sys
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from numbers import Integral
from typing import Sequence

from . import engine
from .contract import MODES, SimulationError
from .models import ArrayField, ModelSpec, ModelState
from .safety import (
    InitialConditionReport,
    SafetyConstraint,
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
    numbers.  Scenario and delay.PredictorConfig count their steps with it
    when they are built, and runner.import_trajectory checks each sample
    time of a file with it."""
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
    a non-negative integer), and its draw range 2 * delta must be finite;
    state0 must be finite; no two constraints share a label, which heads
    their CSV column.
    The controller is off (u = 0) before sample control_step.  The horizon,
    tau and control_start - t_start map to the step counts n_steps,
    delay_steps and control_step through grid_steps, and must each be a
    whole number of dt steps to its relative tolerance of 1e-9, and
    n_steps + 1 float64 samples must fit in an address space.  The counts
    are computed once, when the scenario is built.
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
    n_steps: int = field(init=False, repr=False, compare=False)
    delay_steps: int = field(init=False, repr=False, compare=False)
    control_step: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.control_start is None:
            object.__setattr__(self, "control_start", self.t_start)
        for name in ("t_start", "t_end", "dt", "tau", "disturbance_delta", "control_start"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        steps = grid_steps(self.t_end - self.t_start, self.dt)
        if steps is None:
            raise ValueError(
                "horizon t_end - t_start must be a non-negative multiple of dt"
            )
        if (steps + 1) * 8 > sys.maxsize:
            raise ValueError(f"horizon of {steps:g} steps of dt {self.dt:g} is too long to store")
        if self.feedback_mode not in MODES:
            raise ValueError(f"feedback_mode must be one of {MODES}")
        delay_steps = grid_steps(self.tau, self.dt)
        if delay_steps is None:
            raise ValueError("tau must be a non-negative multiple of dt")
        if self.disturbance_delta < 0.0:
            raise ValueError("disturbance_delta must be non-negative")
        if not math.isfinite(2.0 * self.disturbance_delta):  # the width of the draw range
            raise ValueError(f"disturbance_delta must be at most {sys.float_info.max / 2!r}")
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        control_step = grid_steps(self.control_start - self.t_start, self.dt)
        if control_step is None or self.control_start > self.t_end:
            raise ValueError(
                "control_start must fall on the dt grid within [t_start, t_end]"
            )
        if self.state0.labels != self.spec.labels:
            raise ValueError("initial state labels do not match the model")
        x0 = self.spec.flat(self.state0)
        if not all(map(math.isfinite, x0)):
            raise ValueError(f"state0 must be finite, got {x0}")
        labels = [c.label(k) for k, c in enumerate(self.constraints)]
        for k, c in enumerate(self.constraints):
            c.check_against(self.spec)
            if labels[k] in labels[:k]:
                raise ValueError(f"constraint label {labels[k]!r} repeats an earlier one")
        object.__setattr__(self, "n_steps", steps)
        object.__setattr__(self, "delay_steps", delay_steps)
        object.__setattr__(self, "control_step", control_step)

    @property
    def guaranteed(self) -> bool:
        """True when the run claims a safety guarantee: feedback is either
        instantaneous or forecast-compensated, and no disturbance is
        injected."""
        return self.feedback_mode in ("instantaneous", "predictor") and (
            self.disturbance_delta == 0.0
        )

    def time(self, k):
        """The time of sample k, t_start + dt * k; of every sample at once
        when k is a numpy array of step numbers."""
        return self.t_start + self.dt * k

    def times(self):
        """The sample times, a float64 array: sample k is at time(k)."""
        import numpy as np

        return self.time(np.arange(self.n_steps + 1))


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


def _matrix(columns: list[list[float]], k: int):
    """A read-only float64 array of k rows with one column per list."""
    import numpy as np

    matrix = np.array(columns, dtype=float).reshape(len(columns), k).T
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded closed-loop run: the unit of audit and output.

    All series share one length, one entry per sample.  The record is
    copied from the sequences or numpy arrays given: _states holds the
    states row after row in a stdlib float array, and _u_raw, _u, _active,
    _feasible and _disturbances are tuples of Python numbers.  Each series
    reads as a read-only numpy array, built the first time it is read,
    which then holds the series' values once (see ArrayField): states, one
    row per sample, u_raw, u, active, feasible and disturbances.  times,
    barriers and extended are computed from the states and the scenario on
    first read: times is scenario.times(), barriers and extended the
    per-constraint margins h and h_e at each state (extended is NaN for
    multiplicative constraints).  Replacing the scenario, its constraints
    for instance, recomputes them.  u_raw, u, active and feasible record
    the control law as evaluated on the feedback state: the unclamped
    output, its clamp to [0, 1], the position of the constraint setting it
    (-1 while the controller is off) and whether the QP was feasible.
    disturbances holds the sampled input offsets.  The audit reads _h, the
    margins h as one list per constraint, and the CSV writers read rows(),
    the kept series sample by sample: neither builds a numpy array.  A
    trajectory is equal only to itself and hashes by identity: its series
    read as numpy arrays, which have no single truth value to compare by.
    """

    scenario: Scenario
    states: Sequence[Sequence[float]] = ArrayField("float64", rows=True)
    u_raw: Sequence[float] = ArrayField("float64")
    u: Sequence[float] = ArrayField("float64")
    active: Sequence[int] = ArrayField("int64")
    feasible: Sequence[bool] = ArrayField("bool")
    disturbances: Sequence[float] = ArrayField("float64")
    initial_report: InitialConditionReport | None = None

    def __post_init__(self) -> None:
        k = self.scenario.n_steps + 1
        kept = (self._u_raw, self._u, self._active, self._feasible, self._disturbances)
        if len(self._states) != k * len(self.labels) or any(len(s) != k for s in kept):
            raise ValueError("trajectory series lengths differ")

    def __len__(self) -> int:
        return len(self._u_raw)

    @cached_property
    def times(self):
        times = self.scenario.times()
        times.setflags(write=False)
        return times

    @cached_property
    def _h(self) -> list[list[float]]:
        return _margins(self.scenario.spec, self.scenario.constraints, self._states)

    @cached_property
    def barriers(self):
        return _matrix(self._h, len(self))

    @cached_property
    def extended(self):
        sc = self.scenario
        return _matrix(_margins(sc.spec, sc.constraints, self._states, True), len(self))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.scenario.spec.labels

    def state_at(self, k: int) -> ModelState:
        width, k = len(self.labels), range(len(self))[k]  # k < 0 counts from the end
        return self.scenario.spec.state(self._states[k * width : (k + 1) * width])

    def peak(self, label: str) -> tuple[float, float]:
        """(max value, time of max) for a compartment, clamped at zero: the
        first sample of the largest value, or (0.0, t_start) when no value
        is positive.  simulate and import_trajectory keep finite states."""
        column = self._states[self.labels.index(label) :: len(self.labels)]
        top = max(column)
        if not top > 0.0:  # np.maximum(column, 0.0) is 0.0 throughout, -0.0 included
            return 0.0, self.scenario.time(0)
        return top, self.scenario.time(column.index(top))

    def rows(self):
        """An iterator of one tuple per sample: its time, the entries of its
        state, u_raw, u, its margin h for each constraint and its
        disturbance, the order of a trajectory CSV line.  It is one zip over
        the kept series, with each state entry a strided slice of the
        states; a run without constraints has no h to zip."""
        time, states, width = self.scenario.time, self._states, len(self.labels)
        return zip(
            map(time, range(len(self))),
            *(states[j::width] for j in range(width)),
            self._u_raw, self._u, *self._h, self._disturbances,
        )


def simulate(scenario: Scenario, prehistory: Sequence[float] | None = None) -> Trajectory:
    """Run the closed loop over the scenario horizon.

    The feedback law is evaluated once per sample (including the final one,
    whose decision is recorded but not integrated) and the applied input
    clamp(u + d) is held constant across each step.  The predictor replays
    the commands u sent since its measurement: no law runs inside a
    forecast.  The measurements are one list, hist: lag copies of the
    prehistory, then the state of every sample as it is recorded, with lag
    = min(D, n_steps + 1) (D = delay_steps) in the delayed and predictor
    modes and 0 in instantaneous mode: no sample reads further back.  The
    law at sample k reads hist[k], the state of sample k - lag or the
    prehistory while k < lag, and the predictor starts its forecast there;
    the recorded states are hist[lag:].  In guaranteed mode the run refuses
    to start if the initial controlled state violates the controller
    hypotheses.  combined_control refuses every state the law sees that
    holds negative populations or a non-finite entry, a forecast included
    (ValueError).

    prehistory optionally overrides the state reported for measurement
    times before t_start (defaults to the initial state).  In the delayed
    and predictor modes, which read it, it must have one finite entry per
    compartment and pass the same population check (ValueError).

    A run whose states alone, one list of Python floats per sample, would
    not fit in the machine's physical memory is refused before the loop
    starts (SimulationError).
    """
    spec = scenario.spec
    cons = scenario.constraints
    n_steps = scenario.n_steps
    delay_steps = scenario.delay_steps
    dt = scenario.dt
    predictor = scenario.feedback_mode == "predictor"

    x = spec.flat(scenario.state0)
    try:  # the machine's physical memory
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # a system that does not say
        memory = sys.maxsize
    # each sample keeps its state as a list of Python floats: at least 32
    # bytes an entry, for the pointer and the float object
    if (n_steps + 1) * 32 * len(x) > memory:
        raise SimulationError(f"run of {n_steps + 1:g} samples is too long to hold in memory")
    # the law runs on every sample from control_step on
    first = scenario.control_step if cons else n_steps + 1
    dists = [0.0] * (n_steps + 1)
    offsets = None  # sampled input disturbances from the first controlled sample
    if scenario.disturbance_delta > 0.0:
        import numpy as np  # for its generator only: its draws fix every disturbed run's bits

        delta = scenario.disturbance_delta
        offsets = np.random.default_rng(scenario.seed).uniform(
            -delta, delta, size=n_steps + 1 - first
        ).tolist()
        dists[first:] = offsets
    # u_raw, u, feasible, active of each sample, one after another, at rest
    # while the law is off.  Kept as entries, not as each sample's tuple, a
    # step leaves one new container (its state) for the cyclic garbage
    # collector to count and traverse, not two
    decisions = [0.0, 0.0, True, -1] * first
    commands = [0.0] * first  # the u sent at each sample, which the predictor replays

    lag = 0
    if scenario.feedback_mode != "instantaneous":
        lag = min(delay_steps, n_steps + 1)
        if prehistory is None:
            prehistory = x
        else:
            prehistory = spec.flat(spec.state(prehistory))
            if not all(map(math.isfinite, prehistory)):
                raise ValueError(f"prehistory must be finite, got {prehistory}")
    hist = [prehistory] * lag  # the measurement of sample k is hist[k]

    # bound once per run, after any wrapper the caller installed
    rk4, deriv, control = engine.rk4_flat, spec.derivative_t, combined_control
    isfinite = math.isfinite
    report: InitialConditionReport | None = None
    for k in range(n_steps + 1):
        hist.append(x)
        applied = 0.0
        if k >= first:
            if report is None:
                report = validate_initial_condition(spec, cons, x)
                if not report.ok and scenario.guaranteed:
                    raise InitialConditionError(report)
            feedback = hist[k]
            if predictor:
                # from the measurement, or from the start of the run
                span = min(k, delay_steps)
                feedback = engine.closed_loop_rollout(
                    spec, feedback, k - span, span, dt, commands
                )
            decision = control(spec, cons, feedback)
            decisions += decision
            applied = decision[1]  # in [0, 1]
            commands.append(applied)
            if offsets is not None:
                applied += offsets[k - first]
                applied = 0.0 if applied < 0.0 else (1.0 if applied > 1.0 else applied)

        if k < n_steps:
            x = rk4(deriv, x, applied, dt)
            # a finite sum has only finite entries
            if not isfinite(sum(x)) and not all(map(isfinite, x)):
                raise IntegrationError(
                    f"non-finite state after step {k} (t={scenario.time(k):g}): {x}"
                )

    u_raw, u, feasible, active = (decisions[i::4] for i in range(4))
    return Trajectory(
        scenario=scenario,
        states=hist[lag:],
        u_raw=u_raw,
        u=u,
        active=active,
        feasible=feasible,
        disturbances=dists,
        initial_report=report,
    )


@dataclass(frozen=True)
class ConstraintAudit:
    """Safety audit of one constraint along a trajectory.  It counts the
    violations; the trajectory's barriers say at which samples."""

    label: str
    min_margin: float
    min_margin_time: float
    violation_count: int
    decay_check_failures: int
    decay_check_worst: float
    decay_tolerance: float

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


@dataclass(frozen=True)
class AuditReport:
    """Each constraint's audit, in order, and the count of infeasible QPs."""

    constraints: tuple[ConstraintAudit, ...]
    infeasible_count: int

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


def safety_audit(trajectory: Trajectory) -> AuditReport:
    """Audit a trajectory's margins against its scenario's constraints.

    The margins are the trajectory's barriers, read as the lists it
    computes from its states, with no numpy array built; to audit against
    another constraint set, replace the trajectory's scenario with one
    holding it (dataclasses.replace), which recomputes them.  Reports, per
    constraint: the worst margin (at its first sample, as numpy's argmin
    gives), the violation count, and a discretized margin-decay check
    (h(t+dt) - h(t))/dt + alpha h(t) >= -tol with tol = 1e-6 * alpha *
    bound, on each step from the scenario's control_step on: before it the
    law is off and nothing is guaranteed.  Its worst value is NaN when any
    value is, as numpy's min gives.  Without such a step the check reports
    0 failures and a worst value of inf.  The decay check is
    informational: holding the input constant across a step shifts it by
    O(dt) even for a perfectly safe run.
    """
    scenario = trajectory.scenario
    dt = scenario.dt
    start = scenario.control_step
    audits = []
    for k, (c, series) in enumerate(zip(scenario.constraints, trajectory._h)):
        low = min(series)
        alpha, tol = c.alpha, 1e-6 * c.alpha * c.bound
        # one pass for the lowest value, the count below -tol and whether a
        # value is NaN: alpha * h may overflow to inf, and inf - inf is NaN,
        # on Python floats without a warning.  tol is NaN only when
        # 1e-6 * alpha underflows to 0 and the bound is inf: then every
        # margin is inf or -inf and every value NaN
        limit, worst, failures, nan = -tol, math.inf, 0, False
        a = series[start]
        for b in islice(series, start + 1, None):
            d = (b - a) / dt + alpha * a
            a = b
            if d >= limit:
                if d < worst:
                    worst = d
            elif d < limit:
                failures += 1
                if d < worst:
                    worst = d
            else:
                nan = True
        audits.append(
            ConstraintAudit(
                label=c.label(k),
                min_margin=low,
                min_margin_time=scenario.time(series.index(low)),  # its first sample
                violation_count=len([h for h in series if h < 0.0]) if low < 0.0 else 0,
                decay_check_failures=failures,
                decay_check_worst=math.nan if nan else worst,
                decay_tolerance=tol,
            )
        )
    return AuditReport(
        constraints=tuple(audits),
        infeasible_count=len(trajectory) - trajectory._feasible.count(True),
    )
