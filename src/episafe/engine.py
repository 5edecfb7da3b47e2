"""Flat-state integration core shared by the simulator and the predictor.

States travel as plain float lists here: the rollouts evaluate the
dynamics up to a million times per run, and numpy call overhead on
length-5 vectors would dominate the cost.  ModelSpec.flat turns a
ModelState into the flat list.  make_input_fn returns the u of the law
that safety compiles for a constraint set, solve(x), as u(k, x):
delay.predict_state steps rk4_flat with it, evaluated at every step.
closed_loop_rollout replays a list of commands, one per step: sim.simulate
forecasts across the delay with the commands it sent, so its forecasts run
no law and call nothing per step but rk4_flat.

rk4_flat takes one call per state-step.  A derivative compiled from a
formula table carries a fused step, derivative_t.rk4, which writes the
table's rows at each RK4 stage in place of four derivative calls and the
lists they build and unpack; rk4_flat returns it.  Any other callable, such
as a test's hand-written derivative or a wrapper that counts calls, runs
_rk4_kernel's straight-line step for the state length, memoized like the
other generated code, which calls it exactly four times: the elementwise
loops cost several times the model derivative on vectors this short.  Both
are formatted from models.rk4_lines, so they give the same bits.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

from .models import ModelSpec, rk4_lines
from .safety import SafetyConstraint, _solver

__all__ = ["rk4_flat", "make_input_fn", "closed_loop_rollout"]

InputFn = Callable[[int, Sequence[float]], float]


@lru_cache(maxsize=16)
def _rk4_kernel(n: int) -> Callable:
    def slopes(stage: list[str] | None, k: list[str], _flipped: frozenset[int]) -> list[str]:
        y = "x" if stage is None else f"[{', '.join(stage)}]"
        return [f"[{', '.join(k)}] = deriv({y}, u)"]

    body = "".join(f"    {line}\n" for line in rk4_lines(n, slopes, frozenset()))
    source = "def rk4(deriv, x, u, dt):\n" + body
    namespace: dict = {}
    exec(compile(source, f"<rk4 kernel, {n} states>", "exec"), namespace)
    return namespace["rk4"]


def rk4_flat(
    deriv: Callable[[Sequence[float], float], list[float]],
    x: Sequence[float],
    u: float,
    dt: float,
) -> list[float]:
    """One classical 4th-order Runge-Kutta step with u held constant.

    A derivative compiled from a formula table carries its fused step as
    deriv.rk4, which gives the same bits without calling deriv; any other
    callable is called exactly four times, through the kernel for len(x)."""
    fused = getattr(deriv, "rk4", None)
    if fused is not None:
        return fused(x, u, dt)
    return _rk4_kernel(len(x))(deriv, x, u, dt)


def make_input_fn(
    spec: ModelSpec,
    constraints: Sequence[SafetyConstraint],
) -> InputFn:
    """Scalar feedback law u(k, x), the same at every step number k: the
    min-norm QP solution clamped to [0, 1], the u of the solve generated for
    the constraint set (zero without constraints).  It gives the bits of the
    u the simulator commands at the same state, so delay.predict_state,
    which evaluates it at every step of its forecast, forecasts as if those
    commands had been sent."""
    solve = _solver(spec, tuple(constraints))

    def input_fn(k: int, x: Sequence[float]) -> float:
        return solve(x)[1]

    return input_fn


def closed_loop_rollout(
    spec: ModelSpec,
    x0: Sequence[float],
    k0: int,
    n_steps: int,
    dt: float,
    commands: Sequence[float],
) -> list[float]:
    """Integrate the plant for n_steps of size dt from step number k0,
    replaying the commands sent: step j holds commands[k0 + j] constant.
    Returns the final state, a new list even when n_steps is 0.  commands
    must hold an entry for each of the steps (IndexError)."""
    replayed = commands[k0 : k0 + n_steps]
    if len(replayed) != n_steps:
        raise IndexError(f"no command for step {k0 + len(replayed)}")
    x = list(x0)
    rk4, deriv = rk4_flat, spec.derivative_t
    for u in replayed:
        x = rk4(deriv, x, u, dt)
    return x
