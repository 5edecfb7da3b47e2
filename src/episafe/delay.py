"""Measurement-delay compensation and robustness margins.

Compartmental data lags behind the true state (incubation plus testing
time).  Feeding the stale measurement straight into the feedback law can
lose the safety guarantee, so this module forecasts the current state by
integrating the delay-free closed loop forward from the last measurement,
and quantifies how forecast errors degrade safety: a bounded input
disturbance of size delta enlarges the guaranteed-invariant region by
(delta / alpha) times the local control authority.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import engine
from .models import ModelSpec, ModelState
from .safety import MULTIPLICATIVE, SafetyConstraint, barrier_value

__all__ = [
    "PredictorConfig",
    "IssfBound",
    "predict_state",
    "prediction_error",
    "input_disturbance",
    "estimate_lipschitz",
    "issf_inflated_barrier",
]

_DIV_TOL = 1e-9


@dataclass(frozen=True)
class PredictorConfig:
    """How to forecast across the measurement delay.

    tau is the delay (days, a multiple of dt_pred); dt_pred the internal
    integration step, normally equal to the simulation step so predictions
    replay the plant exactly.  constraints/control_start describe the same
    feedback law that runs in the loop; control_start None means the
    controller is always on.
    """

    tau: float
    dt_pred: float
    constraints: tuple[SafetyConstraint, ...] = ()
    control_start: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.tau < 0.0:
            raise ValueError("tau must be non-negative")
        if not self.dt_pred > 0.0:
            raise ValueError("dt_pred must be positive")
        if self.tau > 0.0:
            steps = self.tau / self.dt_pred
            if abs(steps - round(steps)) > _DIV_TOL * max(1.0, steps):
                raise ValueError(
                    f"tau={self.tau} is not an integer multiple of dt_pred={self.dt_pred}"
                )

    @property
    def n_steps(self) -> int:
        return int(round(self.tau / self.dt_pred)) if self.tau > 0.0 else 0


@dataclass(frozen=True)
class IssfBound:
    """Disturbance budget for the enlarged-safe-set guarantee.

    delta bounds the input disturbance magnitude.  When derived from a
    forecast-error bound epsilon through a controller Lipschitz estimate c,
    delta = c * epsilon.
    """

    delta: float
    epsilon: float = 0.0
    lipschitz_c: float = 0.0

    def __post_init__(self) -> None:
        if self.delta < 0.0 or self.epsilon < 0.0 or self.lipschitz_c < 0.0:
            raise ValueError("all bound components must be non-negative")
        if self.epsilon > 0.0 and self.lipschitz_c > 0.0:
            derived = self.lipschitz_c * self.epsilon
            if abs(self.delta - derived) > 1e-9 * max(1.0, derived):
                raise ValueError(
                    f"delta={self.delta} inconsistent with "
                    f"lipschitz_c*epsilon={derived}"
                )

    @classmethod
    def from_prediction_error(cls, epsilon: float, lipschitz_c: float) -> "IssfBound":
        return cls(delta=lipschitz_c * epsilon, epsilon=epsilon, lipschitz_c=lipschitz_c)


def predict_state(
    spec: ModelSpec,
    measured: ModelState,
    config: PredictorConfig,
    t_measured: float = 0.0,
) -> ModelState:
    """Forecast the state one delay interval ahead of the measurement.

    Integrates the delay-free closed loop (same integrator, step and
    feedback law as the simulator) forward from the measured state.
    t_measured anchors a control_start gate when the config carries one.
    """
    if measured.n != spec.n or measured.m != spec.m:
        raise ValueError("measured state does not match the model dimensions")
    if config.n_steps == 0:
        return measured
    input_fn = engine.make_input_fn(spec, config.constraints, config.control_start)
    x = engine.closed_loop_rollout(
        spec, measured.x.tolist(), t_measured, config.n_steps, config.dt_pred, input_fn
    )
    return spec.state(x)


def prediction_error(predicted: ModelState, actual: ModelState) -> float:
    """Worst-compartment absolute forecast error (persons)."""
    if predicted.labels != actual.labels:
        raise ValueError("states must share compartment layout")
    return float(np.max(np.abs(predicted.x - actual.x)))


def input_disturbance(
    controller: Callable[[ModelState], float],
    predicted: ModelState,
    actual: ModelState,
) -> float:
    """Signed input error caused by feeding the forecast instead of the
    true state into the feedback law."""
    return float(controller(predicted)) - float(controller(actual))


def estimate_lipschitz(
    spec: ModelSpec,
    controller: Callable[[ModelState], float],
    lower: Sequence[float],
    upper: Sequence[float],
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Sampled lower bound on the feedback law's Lipschitz constant.

    Draws states uniformly from the box [lower, upper] and maximizes
    |A(x1) - A(x2)| / ||x1 - x2||_inf over all pairs.  A sampled maximum can
    only undershoot the true constant, so treat the result as a floor.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (spec.n + spec.m,) or upper.shape != lower.shape:
        raise ValueError("region bounds must match the model dimension")
    if np.any(upper < lower):
        raise ValueError("region is empty")
    rng = np.random.default_rng(seed)
    points = rng.uniform(lower, upper, size=(samples, lower.size))
    values = np.array([controller(spec.state(p)) for p in points])
    best = 0.0
    for i in range(samples - 1):
        gaps = np.max(np.abs(points[i + 1 :] - points[i]), axis=1)
        diffs = np.abs(values[i + 1 :] - values[i])
        mask = gaps > 0.0
        if np.any(mask):
            best = max(best, float(np.max(diffs[mask] / gaps[mask])))
    return best


def issf_inflated_barrier(
    spec: ModelSpec,
    constraint: SafetyConstraint,
    state: ModelState,
    bound: IssfBound,
) -> float:
    """Safety margin enlarged by the disturbance budget.

    h_d = h + (delta / alpha) * |control authority over the compartment|,
    evaluated at the instantaneous state.  The enlarged margin stays
    non-negative under any input disturbance within delta, provided the
    nominal law satisfies its safety condition.  Defined for multiplicative
    constraints only.
    """
    if constraint.kind != MULTIPLICATIVE:
        raise ValueError("inflated margin is defined for multiplicative constraints")
    constraint.check_against(spec)
    h = barrier_value(constraint, state)
    authority = abs(spec.g_t(state.w.tolist())[constraint.index])
    return h + (bound.delta / constraint.alpha) * authority
