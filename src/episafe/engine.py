"""Flat-state integration core shared by the simulator and the predictor.

States travel as plain float lists here: the closed-loop rollouts evaluate
the dynamics and the feedback law up to a million times per run, and numpy
call overhead on length-5 vectors would dominate the cost.  The plant loop
in sim.simulate steps the same lists with rk4_flat and evaluates the same
law through safety.combined_control.  Both reach the solver of a
constraint set through safety._solver's memo, so it is built once however
often either evaluates it; delay.predict_state and sim.rk4_step wrap these
helpers with a ModelState interface.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .models import ModelSpec
from .safety import SafetyConstraint, _clamp01, _solver

__all__ = ["rk4_flat", "make_input_fn", "closed_loop_rollout"]

InputFn = Callable[[float, Sequence[float]], float]


def rk4_flat(
    deriv: Callable[[Sequence[float], float], list[float]],
    x: Sequence[float],
    u: float,
    dt: float,
) -> list[float]:
    """One classical 4th-order Runge-Kutta step with u held constant."""
    half = 0.5 * dt
    k1 = deriv(x, u)
    y = [xi + half * ki for xi, ki in zip(x, k1)]
    k2 = deriv(y, u)
    y = [xi + half * ki for xi, ki in zip(x, k2)]
    k3 = deriv(y, u)
    y = [xi + dt * ki for xi, ki in zip(x, k3)]
    k4 = deriv(y, u)
    s = dt / 6.0
    return [
        xi + s * (a + 2.0 * (b + c) + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]


def make_input_fn(
    spec: ModelSpec,
    constraints: Sequence[SafetyConstraint],
    control_start: float | None = None,
) -> InputFn:
    """Scalar feedback law u(t, x): zero before control_start, afterwards the
    min-norm QP solution clamped to [0, 1].  Mirrors exactly what the
    simulator applies, so predictions replay the plant's behaviour."""
    n = spec.n
    gate = -math.inf if control_start is None else control_start - 1e-12
    constraints = tuple(constraints)
    solve = _solver(spec, constraints) if constraints else None

    def input_fn(t: float, x: Sequence[float]) -> float:
        if t < gate or solve is None:
            return 0.0
        return _clamp01(solve(x[:n], x[n:])[0])

    return input_fn


def closed_loop_rollout(
    spec: ModelSpec,
    x0: Sequence[float],
    t0: float,
    n_steps: int,
    dt: float,
    input_fn: InputFn,
) -> list[float]:
    """Integrate the closed loop for n_steps of size dt; returns the final
    state.  The input is re-evaluated once per step and held constant."""
    x = list(x0)
    deriv = spec.derivative_t
    for k in range(n_steps):
        x = rk4_flat(deriv, x, input_fn(t0 + k * dt, x), dt)
    return x
