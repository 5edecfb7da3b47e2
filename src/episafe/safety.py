"""Min-norm safety-critical intervention controllers.

Each controller renders a population bound forward invariant by enforcing a
minimum decay condition on the safety margin h: along solutions, dh/dt must
stay above -alpha*h.  For a scalar input that condition reads
-drift - authority*u >= 0, a half-line in u: a negative authority bounds u
from below, a positive one from above, and a vanishing one (|authority| <
g_tol) either holds for every u (drift <= 0) or for none.

Multiplicative compartments (the input appears directly in their dynamics)
use the margin h itself.  Outlet compartments see the input only through
the inflow from the multiplicative block, so their controller works on the
once-differentiated margin h_e = dh/dt + alpha*h, with its own decay gain
alpha_e.

The intervention is the exact solution of the pointwise QP "smallest u**2
on [0, 1] subject to every constraint's condition": the largest of 0 and
the lower bounds.  It is feasible when that value is at most 1 and at most
every upper bound, and no zero-authority condition fails.  With one
constraint, or with every authority negative (the paper's case), this is
the rectified-linear law, and several bounds combine by the pointwise
maximum of the individual laws.  When the QP is infeasible the applied
input is clamp(u_raw, 0, 1): every lower bound up to 1 is honoured and the
upper bounds give way; the decision is flagged infeasible.

All controllers are pure functions of (model, constraint, state) and are
safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul
from typing import Sequence

import numpy as np

from .models import ModelSpec, ModelState, SihrdParams, SirParams

__all__ = [
    "MULTIPLICATIVE",
    "OUTLET",
    "SafetyConstraint",
    "ControlDecision",
    "ConstraintCheck",
    "InitialConditionReport",
    "barrier_value",
    "extended_barrier_value",
    "multiplicative_control",
    "outlet_control",
    "combined_control",
    "validate_initial_condition",
    "qp_oracle",
    "closed_form_infection_control",
    "closed_form_hospitalization_control",
    "closed_form_death_control",
]

MULTIPLICATIVE = "multiplicative"
OUTLET = "outlet"


@dataclass(frozen=True)
class SafetyConstraint:
    """One population bound to enforce.

    kind selects the controller family ("multiplicative" or "outlet");
    index addresses the compartment inside its block (0-based).  direction
    "upper" keeps the compartment below bound (margin h = bound - value),
    "lower" keeps it above (h = value - bound).  alpha is the margin decay
    gain; alpha_e is the extra gain for the differentiated margin and is
    required for outlet constraints.
    """

    kind: str
    index: int
    bound: float
    alpha: float
    alpha_e: float | None = None
    direction: str = "upper"
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (MULTIPLICATIVE, OUTLET):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.direction not in ("upper", "lower"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.index < 0:
            raise ValueError("compartment index must be non-negative")
        if not self.bound > 0.0:
            raise ValueError("bound must be strictly positive")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be strictly positive")
        if self.kind == OUTLET:
            if self.alpha_e is None or not self.alpha_e > 0.0:
                raise ValueError("outlet constraints need alpha_e > 0")

    @property
    def sign(self) -> float:
        return 1.0 if self.direction == "upper" else -1.0

    def check_against(self, spec: ModelSpec) -> None:
        size = spec.n if self.kind == MULTIPLICATIVE else spec.m
        if self.index >= size:
            raise ValueError(
                f"{self.kind} index {self.index} out of range for model "
                f"{spec.kind!r} ({size} compartments)"
            )

    def label(self, k: int | None = None) -> str:
        if self.name:
            return self.name
        prefix = "w" if self.kind == MULTIPLICATIVE else "z"
        return f"{prefix}{self.index}" if k is None else f"c{k}_{prefix}{self.index}"


@dataclass(frozen=True)
class ControlDecision:
    """Result of one evaluation of a public control function.

    u_raw is the unclamped law output (the largest of 0 and the lower
    bounds on u), u its clamp to the admissible interval [0, 1].  feasible
    is False exactly when no u in [0, 1] meets every safety condition:
    u_raw exceeds 1 or an upper bound, or a condition the input has no
    authority over fails.  u is then still clamp(u_raw, 0, 1), and a run
    containing such a step exits with code 4.  For a combined evaluation,
    active_constraint is the position of the constraint setting u_raw
    (ties, and u_raw = 0, to the lowest index).  simulate records the same
    four values per step as arrays (see Trajectory); the margins at a
    state come from barrier_value and extended_barrier_value.
    """

    u_raw: float
    u: float
    feasible: bool
    active_constraint: int | None

    @classmethod
    def rest(cls) -> "ControlDecision":
        """No-intervention decision (controller off or no constraints)."""
        return cls(0.0, 0.0, True, None)


def _clamp01(v: float) -> float:
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


# -- scalar core -------------------------------------------------------------
#
# Everything below works on plain float lists so the same code path serves
# both the public API and the inner loop of the fixed-step simulator and
# predictor, where call rates reach ~1e6 evaluations per run.  The margins
# also accept numpy columns, one entry per sample, and then return arrays.


def _margin_t(c: SafetyConstraint, w: Sequence, z: Sequence) -> float:
    value = w[c.index] if c.kind == MULTIPLICATIVE else z[c.index]
    return c.sign * (c.bound - value)


def _extended_margin_t(spec: ModelSpec, c: SafetyConstraint, w: Sequence, z: Sequence) -> float:
    q = spec.q_t(w)
    r = spec.r_t(z)
    j = c.index
    return c.sign * (-(q[j] + r[j]) + c.alpha * (c.bound - z[j]))


def _terms_fn(spec: ModelSpec, constraints: Sequence[SafetyConstraint]):
    """Return terms(w, z): the (drift, authority) of each constraint's safety
    condition at the state, in constraint order.

    The condition on the input reads  -drift - authority * u >= 0.  For a
    lower bound both pieces flip sign together with the margin.  The model
    is evaluated once per state and shared by every constraint; the
    constants are folded once here, in the same grouping as the formulas,
    so the results do not depend on how the constraints are batched.
    """
    plan = tuple(
        (
            c.kind == OUTLET,
            c.index,
            c.sign,
            c.alpha,
            c.bound,
            c.alpha + c.alpha_e if c.kind == OUTLET else 0.0,
            c.alpha_e * c.alpha if c.kind == OUTLET else 0.0,
        )
        for c in constraints
    )
    outlets = any(p[0] for p in plan)
    f_t, g_t, q_t, r_t = spec.f_t, spec.g_t, spec.q_t, spec.r_t
    dq_dw_t, dr_dz_t = spec.dq_dw_t, spec.dr_dz_t

    def terms(w: Sequence[float], z: Sequence[float]) -> list[tuple[float, float]]:
        f = f_t(w)
        g = g_t(w)
        if outlets:
            outflow = tuple(map(add, q_t(w), r_t(z)))
            jq = dq_dw_t(w)
            jr = dr_dz_t(z)
        out = []
        for outlet, j, s, alpha, bound, alpha_sum, alpha_prod in plan:
            if outlet:
                row = jq[j]
                drift = (
                    sum(map(mul, row, f))
                    + sum(map(mul, jr[j], outflow))
                    + alpha_sum * outflow[j]
                    - alpha_prod * (bound - z[j])
                )
                out.append((s * drift, s * sum(map(mul, row, g))))
            else:
                out.append((s * f[j] - alpha * (s * (bound - w[j])), s * g[j]))
        return out

    return terms


# Solvers built lately, keyed by (id(spec), constraints); each entry also
# holds its spec, so the id cannot be reused while the entry lives.  The
# memo is emptied when it reaches _SOLVERS_KEPT entries.  Concurrent callers
# may build the same solver twice; either copy gives the same results.
_SOLVERS: dict = {}
_SOLVERS_KEPT = 16


def _solver(spec: ModelSpec, constraints: tuple[SafetyConstraint, ...]):
    """Return solve(w, z) for the constraint set, building it (and checking
    the constraints against the model) only on the first request.

    Every caller of the law shares the memo, so a run builds its solver once
    however many times it evaluates the law.
    """
    key = (id(spec), constraints)
    entry = _SOLVERS.get(key)
    if entry is None:
        for c in constraints:
            c.check_against(spec)
        if len(_SOLVERS) >= _SOLVERS_KEPT:
            _SOLVERS.clear()
        entry = _SOLVERS[key] = (spec, _build_solver(spec, constraints))
    return entry[1]


def _build_solver(spec: ModelSpec, constraints: Sequence[SafetyConstraint]):
    """Return solve(w, z), the exact min-norm solution of the scalar-input
    QP at one state.

    Each condition -drift - a*u >= 0 bounds u from below by drift / -a when
    a <= -g_tol, from above by -drift / a when a >= g_tol, and otherwise
    holds for every u iff drift <= 0.  solve returns (u_raw, active,
    feasible): u_raw is the largest of 0 and the lower bounds, active the
    position of the constraint setting it (ties, and u_raw = 0, to the
    lowest index), and feasible whether u_raw is at most 1 and every upper
    bound and no zero-authority condition fails.
    """
    terms = _terms_fn(spec, constraints)
    g_tol = spec.g_tol

    def solve(w: Sequence[float], z: Sequence[float]) -> tuple[float, int, bool]:
        u_raw, active, ceiling, holds = 0.0, 0, 1.0, True
        for k, (drift, authority) in enumerate(terms(w, z)):
            if authority <= -g_tol:
                lower = drift / -authority
                if lower > u_raw:
                    u_raw, active = lower, k
            elif authority >= g_tol:
                upper = -drift / authority
                if upper < ceiling:
                    ceiling = upper
            elif drift > 0.0:
                holds = False
        return u_raw, active, holds and u_raw <= ceiling

    return solve


def _state_lists(spec: ModelSpec, state: ModelState) -> tuple[list, list]:
    if state.n != spec.n or state.m != spec.m:
        raise ValueError(
            f"state dimensions ({state.n}, {state.m}) do not match model "
            f"({spec.n}, {spec.m})"
        )
    return state.w.tolist(), state.z.tolist()


def _decide(
    spec: ModelSpec,
    constraints: tuple[SafetyConstraint, ...],
    state: ModelState,
    combined: bool,
) -> ControlDecision:
    w, z = _state_lists(spec, state)
    u_raw, active, feasible = _solver(spec, constraints)(w, z)
    return ControlDecision(
        u_raw=u_raw,
        u=_clamp01(u_raw),
        feasible=feasible,
        active_constraint=active if combined else None,
    )


# -- public operations -------------------------------------------------------


def barrier_value(constraint: SafetyConstraint, state: ModelState) -> float:
    """Safety margin h at the state; non-negative means inside the safe set."""
    block = state.w if constraint.kind == MULTIPLICATIVE else state.z
    if constraint.index >= block.size:
        raise ValueError(
            f"{constraint.kind} index {constraint.index} out of range "
            f"for state with ({state.n}, {state.m}) compartments"
        )
    return _margin_t(constraint, state.w.tolist(), state.z.tolist())


def extended_barrier_value(
    spec: ModelSpec, constraint: SafetyConstraint, state: ModelState
) -> float:
    """Differentiated margin h_e = dh/dt + alpha*h for an outlet constraint."""
    if constraint.kind != OUTLET:
        raise ValueError("extended margin is defined for outlet constraints only")
    constraint.check_against(spec)
    w, z = _state_lists(spec, state)
    return _extended_margin_t(spec, constraint, w, z)


def multiplicative_control(
    spec: ModelSpec, constraint: SafetyConstraint, state: ModelState
) -> ControlDecision:
    """Min-norm intervention keeping a multiplicative compartment inside its
    bound.  Where the input has no authority over the compartment the
    decision rests at 0, feasible iff the open loop already meets the
    condition."""
    if constraint.kind != MULTIPLICATIVE:
        raise ValueError("constraint is not multiplicative")
    return _decide(spec, (constraint,), state, combined=False)


def outlet_control(
    spec: ModelSpec, constraint: SafetyConstraint, state: ModelState
) -> ControlDecision:
    """Min-norm intervention keeping an outlet compartment inside its bound,
    acting through the differentiated margin.  The caller is responsible for
    checking the starting condition (see validate_initial_condition)."""
    if constraint.kind != OUTLET:
        raise ValueError("constraint is not an outlet constraint")
    return _decide(spec, (constraint,), state, combined=False)


def combined_control(
    spec: ModelSpec,
    constraints: Sequence[SafetyConstraint],
    state: ModelState,
) -> ControlDecision:
    """Enforce several bounds at once: the exact min-norm solution of the
    jointly constrained scalar-input QP (see the module docstring).

    Constraints of either sign and states without control authority are
    all handled; an infeasible QP is reported through feasible = False.
    When every control coefficient is negative this is the pointwise
    maximum of the individual laws.  Ties resolve to the lowest constraint
    index for reproducible audits.
    """
    constraints = tuple(constraints)
    if not constraints:
        return ControlDecision.rest()
    return _decide(spec, constraints, state, combined=True)


@dataclass(frozen=True)
class ConstraintCheck:
    """Starting-condition status for one constraint."""

    index: int
    label: str
    margin: float
    extended_margin: float | None
    ok: bool


@dataclass(frozen=True)
class InitialConditionReport:
    checks: tuple[ConstraintCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[ConstraintCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def describe(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            extra = "" if c.extended_margin is None else f", h_e={c.extended_margin:.6g}"
            lines.append(f"{c.label}: h={c.margin:.6g}{extra} [{status}]")
        return "\n".join(lines)


def validate_initial_condition(
    spec: ModelSpec,
    constraints: Sequence[SafetyConstraint],
    state0: ModelState,
) -> InitialConditionReport:
    """Check the hypotheses under which the controllers guarantee safety.

    Multiplicative constraints need the starting state inside the safe set
    (h >= 0).  Outlet constraints additionally need the differentiated
    margin non-negative at the start (h_e >= 0), since only its 0-superlevel
    set is rendered invariant.
    """
    checks = []
    for k, c in enumerate(constraints):
        c.check_against(spec)
        h = barrier_value(c, state0)
        if c.kind == OUTLET:
            he = extended_barrier_value(spec, c, state0)
            ok = h >= 0.0 and he >= 0.0
        else:
            he = None
            ok = h >= 0.0
        checks.append(ConstraintCheck(k, c.label(k), h, he, ok))
    return InitialConditionReport(tuple(checks))


def qp_oracle(
    spec: ModelSpec,
    constraints: Sequence[SafetyConstraint],
    state: ModelState,
    grid_resolution: float = 1e-4,
) -> float | None:
    """Brute-force reference solver for the min-norm problem.

    Minimizes u**2 over a uniform grid on [0, 1] subject to the exact
    safety conditions of every constraint; returns the smallest feasible
    grid value, or None when no grid point is feasible.  Independent of the
    closed forms: used to cross-check them.
    """
    if not grid_resolution > 0.0:
        raise ValueError("grid_resolution must be positive")
    w, z = _state_lists(spec, state)
    steps = int(round(1.0 / grid_resolution))
    grid = np.linspace(0.0, 1.0, steps + 1)
    feasible = np.ones_like(grid, dtype=bool)
    for c in constraints:
        c.check_against(spec)
    for drift, authority in _terms_fn(spec, constraints)(w, z):
        feasible &= (-drift - authority * grid) >= 0.0
    idx = int(np.argmax(feasible))
    if not feasible[idx]:
        return None
    return float(grid[idx])


# -- closed-form specializations ---------------------------------------------
#
# Direct transcriptions of the per-model laws, written out in their own
# algebraic grouping.  They deliberately do not reuse the generic machinery
# above: the test suite holds both paths against each other.


def closed_form_infection_control(
    params: SirParams | SihrdParams,
    S: float,
    I: float,
    i_max: float,
    alpha: float,
) -> float:
    """Infection cap for SIR-type dynamics: ReLU(1 - (a*(Imax-I) + out*I) / T)
    with T the transmission flow and out the total outflow rate of I."""
    if isinstance(params, SihrdParams):
        out = params.gamma + params.lam + params.mu
    else:
        out = params.gamma
    transmission = params.beta0 * S * I / params.N
    val = 1.0 - (alpha * (i_max - I) + out * I) / transmission
    return val if val > 0.0 else 0.0


def closed_form_hospitalization_control(
    params: SihrdParams,
    S: float,
    I: float,
    H: float,
    h_max: float,
    alpha: float,
    alpha_e: float,
) -> float:
    """Hospitalization cap for SIHRD dynamics."""
    lam, nu = params.lam, params.nu
    out = params.gamma + params.lam + params.mu
    denom = lam * params.beta0 * S * I / params.N
    val = (
        1.0
        - alpha_e * alpha * (h_max - H) / denom
        - ((nu - alpha - alpha_e) * (lam * I - nu * H) + out * lam * I) / denom
    )
    return val if val > 0.0 else 0.0


def closed_form_death_control(
    params: SihrdParams,
    S: float,
    I: float,
    D: float,
    d_max: float,
    alpha: float,
    alpha_e: float,
) -> float:
    """Death-toll cap for SIHRD dynamics."""
    mu = params.mu
    out = params.gamma + params.lam + params.mu
    denom = mu * params.beta0 * S * I / params.N
    val = (
        1.0
        - alpha_e * alpha * (d_max - D) / denom
        - (out - alpha - alpha_e) * mu * I / denom
    )
    return val if val > 0.0 else 0.0
