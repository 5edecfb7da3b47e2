"""Measurement-delay compensation: forecast the current state.

Compartmental data lags behind the true state (incubation plus testing
time).  Feeding the stale measurement into the feedback law can lose the
safety guarantee, so the current state is forecast from the last
measurement (sim.simulate replays the inputs sent since; predict_state runs
the law at every step of the forecast), and prediction_error measures how
far a forecast lies from the true state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .models import ModelSpec, ModelState, _check_finite
from .safety import SafetyConstraint
from .sim import IntegrationError, grid_steps

__all__ = [
    "PredictorConfig",
    "predict_state",
    "prediction_error",
]


@dataclass(frozen=True)
class PredictorConfig:
    """How to forecast across the measurement delay.

    tau is the delay (days, a multiple of dt_pred by sim.grid_steps); dt_pred
    the internal integration step, normally equal to the simulation step so
    predictions replay the plant exactly.  n_steps, the delay in steps of
    dt_pred, is computed once when the config is built.  constraints set
    the law predict_state runs at every step in place of the inputs sent
    (none: the open loop, u = 0).
    """

    tau: float
    dt_pred: float
    constraints: tuple[SafetyConstraint, ...] = ()
    n_steps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.dt_pred > 0.0:
            raise ValueError("dt_pred must be positive")
        n_steps = grid_steps(self.tau, self.dt_pred)
        if n_steps is None:
            raise ValueError(
                f"tau={self.tau} is not a non-negative multiple of dt_pred={self.dt_pred}"
            )
        object.__setattr__(self, "n_steps", n_steps)


def predict_state(
    spec: ModelSpec,
    measured: ModelState,
    config: PredictorConfig,
    t_measured: float = 0.0,
) -> ModelState:
    """Forecast the state one delay interval ahead of the measurement.

    Integrates the delay-free closed loop from the measured state with the
    simulator's integrator and step, engine.rk4_flat once per step, and
    its law, make_input_fn's u evaluated at the state of every step (the
    simulator replays the commands it sent instead): for a forecast from
    sample k - D of sim.simulate it replays the plant once
    k - D >= control_step.  measured may also be the flat [w; z] list
    (see ModelSpec.flat); the forecast is a ModelState at every delay, and
    at zero delay a ModelState comes back as itself.  t_measured and every
    entry of measured must be finite (ValueError).  A forecast step that
    leaves the finite range raises sim.IntegrationError naming the step, as
    a step of sim.simulate does.  The forecast is computed on Python
    floats, also from a list of numpy scalars, whose overflow would warn.
    It no longer depends on t_measured; ROADMAP item 3c removes it together
    with config.constraints once step 1a lets the benchmark's probe change.
    """
    x = [*map(float, spec.flat(measured))]
    _check_finite(x)
    if not math.isfinite(t_measured):
        raise ValueError(f"t_measured must be finite, got {t_measured!r}")
    if config.n_steps == 0:
        return measured if isinstance(measured, ModelState) else spec.state(x)
    input_fn = engine.make_input_fn(spec, config.constraints)
    deriv, dt = spec.derivative_t, config.dt_pred
    for k in range(config.n_steps):
        x = engine.rk4_flat(deriv, x, input_fn(k, x), dt)
        # a finite sum has only finite entries
        if not math.isfinite(sum(x)) and not all(map(math.isfinite, x)):
            raise IntegrationError(f"non-finite forecast after step {k}: {x}")
    return spec.state(x)


def prediction_error(predicted: ModelState, actual: ModelState) -> float:
    """Worst-compartment absolute forecast error (persons)."""
    if predicted.labels != actual.labels:
        raise ValueError("states must share compartment layout")
    return float(np.max(np.abs(predicted.x - actual.x)))
