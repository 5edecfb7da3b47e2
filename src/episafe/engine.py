"""Flat-state integration core shared by the simulator and the predictor.

States travel as plain float lists here: the rollouts evaluate the
dynamics up to a million times per run, and numpy call overhead on
length-5 vectors would dominate the cost.  The plant loop in sim.simulate
steps the same lists with rk4_flat and evaluates the feedback law through
safety.combined_control, on the flat feedback list itself: no ModelState
is built per sample.  ModelSpec.flat checks the list's length and
population floor, combined_control that every entry is finite, and solve
reads the list uncopied.  The model derivative and the law are both
compiled from the model's formula table (models.FormulaTable): the
derivative once per table, the law once per table and shape of constraint
set, with the table's formulas written into the law's own code, so a law
evaluation calls no model evaluator.  The law has one entry point,
solve(x) -> ControlDecision on the flat state, memoized by safety._solver:
combined_control returns its decision as is (answering the plant loop's
repeat request from a last-used slot), and make_input_fn returns its u at
every step.  A rollout takes its input per step from an input_fn:
sim.simulate's replays the commands it sent, so its forecasts run no law;
delay.predict_state passes make_input_fn's law, and wraps the rollout with
a ModelState interface.
ModelSpec.flat turns a ModelState into the flat list, and is the one check
that a state, in either form, fits the model.

rk4_flat runs a straight-line kernel generated from one source template
the first time a state length is seen and kept for that length: the
elementwise loops cost several times the model derivative on vectors this
short.  It still makes one call per step and four calls of the derivative,
because the benchmark in bench/ counts rollout steps and derivative
evaluations at those calls; a batched predictor that advances every
in-flight rollout at once waits on a change to those counts.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .models import ModelSpec
from .safety import SafetyConstraint, _solver

__all__ = ["rk4_flat", "make_input_fn", "closed_loop_rollout"]

InputFn = Callable[[int, Sequence[float]], float]


# One straight-line RK4 kernel per state length, generated on first use.
# Each element is computed with the operations, and in the order, of the
# elementwise formulas
#   y = x + half*k1, x + half*k2, x + dt*k3;  x + s*(k1 + 2*(k2 + k3) + k4)
# so a kernel's results are bit-identical to a loop over the elements.
_RK4_TEMPLATE = """\
def rk4(deriv, x, u, dt):
    half = 0.5 * dt
    [{x}] = x
    [{a}] = deriv(x, u)
    [{b}] = deriv([{xa}], u)
    [{c}] = deriv([{xb}], u)
    [{d}] = deriv([{xc}], u)
    s = dt / 6.0
    return [{out}]
"""
_RK4_KERNELS: dict[int, Callable] = {}


def _rk4_kernel(n: int) -> Callable:
    def each(expr: str) -> str:
        return ", ".join(expr.format(i=i) for i in range(n))

    source = _RK4_TEMPLATE.format(
        x=each("x{i}"), a=each("a{i}"), b=each("b{i}"), c=each("c{i}"), d=each("d{i}"),
        xa=each("x{i} + half * a{i}"),
        xb=each("x{i} + half * b{i}"),
        xc=each("x{i} + dt * c{i}"),
        out=each("x{i} + s * (a{i} + 2.0 * (b{i} + c{i}) + d{i})"),
    )
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

    Calls deriv exactly four times, through the kernel for len(x)."""
    n = len(x)
    kernel = _RK4_KERNELS.get(n)
    if kernel is None:
        # Concurrent first calls may build it twice; both copies are equal.
        kernel = _RK4_KERNELS[n] = _rk4_kernel(n)
    return kernel(deriv, x, u, dt)


def make_input_fn(
    spec: ModelSpec,
    constraints: Sequence[SafetyConstraint],
) -> InputFn:
    """Scalar feedback law u(k, x), the same at every step number k: the
    min-norm QP solution clamped to [0, 1], the u of the solve generated for
    the constraint set (zero without constraints).  It gives the bits of the
    u the simulator commands at the same state, so delay.predict_state
    forecasts as if those commands had been sent."""
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
    input_fn: InputFn,
) -> list[float]:
    """Integrate the closed loop for n_steps of size dt from step number k0;
    returns the final state.  The input is re-evaluated once per step, as
    input_fn(k0 + j, x) on step j, and held constant across it."""
    x = list(x0)
    deriv = spec.derivative_t
    for k in range(k0, k0 + n_steps):
        x = rk4_flat(deriv, x, input_fn(k, x), dt)
    return x
