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
from functools import lru_cache
from math import isfinite, nan
from numbers import Integral
from typing import Callable, NamedTuple, Sequence

from .models import FormulaTable, ModelSpec, ModelState, _check_finite, _check_floor

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
]

MULTIPLICATIVE = "multiplicative"
OUTLET = "outlet"


@dataclass(frozen=True)
class SafetyConstraint:
    """One population bound to enforce.

    kind selects the controller family ("multiplicative" or "outlet"); index
    addresses the compartment inside its block (0-based), and position(spec)
    its entry in a model's flat state.  direction "upper" keeps the
    compartment below bound (margin h = bound - value), "lower" keeps it
    above (h = value - bound).  alpha is the margin decay gain; alpha_e is
    the extra gain for the differentiated margin and is required for outlet
    constraints.  name, when given, labels the constraint in reports and
    heads its CSV column, and scenario files hold it verbatim: it may not
    contain a comma, '#' or a line break, nor start or end with whitespace.
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
        if not (isinstance(self.index, Integral) and self.index >= 0):
            raise ValueError("compartment index must be a non-negative integer")
        if not self.bound > 0.0:
            raise ValueError("bound must be strictly positive")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be strictly positive")
        if self.kind == OUTLET:
            if self.alpha_e is None or not self.alpha_e > 0.0:
                raise ValueError("outlet constraints need alpha_e > 0")
        name = self.name
        if name != name.strip() or len(name.splitlines()) > 1 or any(c in name for c in ",#"):
            raise ValueError(f"name {name!r} must not contain a comma, '#' or a line break,"
                             " nor start or end with whitespace")

    @property
    def sign(self) -> float:
        return 1.0 if self.direction == "upper" else -1.0

    def position(self, spec: ModelSpec) -> int:
        """The compartment's entry in spec's flat state [w; z]: index, or
        spec.n + index for an outlet.  ValueError when it is out of range."""
        size = spec.n if self.kind == MULTIPLICATIVE else spec.m
        if self.index >= size:
            raise ValueError(
                f"{self.kind} index {self.index} out of range for model "
                f"{spec.kind!r} ({size} compartments)"
            )
        return self.index if self.kind == MULTIPLICATIVE else spec.n + self.index

    def label(self, k: int) -> str:
        """The name, or c<k>_w<index> (z for an outlet), k its position in its set."""
        if self.name:
            return self.name
        prefix = "w" if self.kind == MULTIPLICATIVE else "z"
        return f"c{k}_{prefix}{self.index}"


class ControlDecision(NamedTuple):
    """Result of one evaluation of a public control function.

    u_raw is the unclamped law output (the largest of 0 and the lower
    bounds on u), u its clamp to the admissible interval [0, 1].  feasible
    is False exactly when no u in [0, 1] meets every safety condition:
    u_raw exceeds 1 or an upper bound, or a condition the input has no
    authority over fails.  u is then still clamp(u_raw, 0, 1), and a run
    containing such a step exits with code 4.  For a combined evaluation,
    active_constraint is the position of the constraint setting u_raw
    (ties, and u_raw = 0, to the lowest index).  simulate records the same
    four values per step as series (see Trajectory); the margins at a
    state come from barrier_value and extended_barrier_value.  A named
    tuple: immutable and compared by value; _replace makes a changed copy.
    """

    u_raw: float
    u: float
    feasible: bool
    active_constraint: int | None


# -- scalar core -------------------------------------------------------------
#
# The law works on plain float lists: the fixed-step simulator and the
# predictor evaluate it up to ~1e6 times per run.  It runs as straight-line
# code generated from one source template per model formula table and
# shape of constraint set (each constraint's kind and index), compiled the
# first time the pair is seen.  The table's lines for f, g and the outflow
# are written into the code itself (the evaluate block below), so an
# evaluation calls no model evaluator, slices no state and builds no
# Jacobian tuple.  Each compiled template is a factory: called with a spec
# and constraints, it binds the spec's parameter values, its Jacobian
# entries (read off the outflow rows, see ModelSpec) and every constraint
# constant, and returns the law's one entry point, solve(x) ->
# ControlDecision on the flat state [w; z] that ModelSpec.flat returns,
# with active the constraint's position.  Every public control function
# returns its decision (multiplicative_control and outlet_control with
# active None); engine.make_input_fn reads u from it.
# _solver memoizes solve; combined_control checks every state through one
# check generated for the state's length (_check, below), bound to solve
# and kept in its last-used slot, which answers a plant loop's repeat
# request by identity: a controlled sample costs solve and one
# straight-line check of the list's length, floor and finiteness.
# _margins, below, is the one evaluator of the margins: of a trajectory's
# states, and of the single state the public functions take.  h_e
# reads dz/dt from the outlet rows of the model derivative at u = 0: they
# are the table's outflow rows, q + r, which the input does not enter.


def _margins(
    spec: ModelSpec,
    constraints: Sequence[SafetyConstraint],
    states: Sequence[float],
    extended: bool = False,
) -> list[list[float]]:
    """The margin of each constraint at every sample of states, the flat
    states [w; z] of the samples one after another, as one list per
    constraint: h, or with extended h_e, which is NaN for a multiplicative
    constraint.  Each constraint's position checks it against the model
    before its margins.  h reads every (n + m)-th entry; h_e runs the
    derivative once per sample, and only when an outlet constraint needs
    it.  On Python floats an inf or NaN gives its IEEE value, with no warning."""
    width = spec.n + spec.m
    margins, xdots = [], None
    for c in constraints:
        s, bound, j = c.sign, c.bound, c.position(spec)
        if not extended:
            margins.append([s * (bound - v) for v in states[j::width]])
        elif c.kind == OUTLET:
            if xdots is None:
                deriv = spec.derivative_t
                xdots = [deriv(states[i : i + width], 0.0) for i in range(0, len(states), width)]
            alpha = c.alpha
            margins.append(
                [s * (-xdot[j] + alpha * (bound - v)) for v, xdot in zip(states[j::width], xdots)]
            )
        else:
            margins.append([nan] * (len(states) // width))
    return margins


# Constraint k's condition on the input reads -d{k} - a{k} * u >= 0, with
# drift d{k} and authority a{k} in the grouping of the formulas
#   multiplicative j:  d = s*f_j - alpha*(s*(bound - w_j)),  a = s*g_j
#   outlet j:          d = s*(dq_j.f + dr_j.o + (alpha + alpha_e)*o_j
#                             - alpha_e*alpha*(bound - z_j)),  a = s*(dq_j.g)
# where o = q + r is the outflow, dq_j and dr_j are row j of the spec's
# dq_dw and dr_dz, and each dot product is summed left to right from 0.0.
# Every product of a dot product is kept, one with a 0.0 Jacobian entry too:
# 0.0 * inf is NaN.  For a lower bound (s = -1) both pieces flip sign with
# the margin.  A condition bounds u from below by d / -a when a <= -g_tol,
# from above by -d / a when a >= g_tol, and otherwise holds for every u iff
# d <= 0.  u_raw is the largest of 0 and the lower bounds, active the
# position of the constraint setting it (ties, and u_raw = 0, to the
# lowest index), and feasible whether u_raw is at most 1 and every upper
# bound and no zero-authority condition fails.  The parameter values,
# the spec's Jacobian entries and the constraint constants are bound as
# values when the factory is called, never in the source: a bound may be inf.
_LAW_TEMPLATE = """\
def factory(spec, constraints):
    [{params}] = spec.values
{model_constants}
    g_tol = spec.g_tol
    [{names}] = constraints
{constants}
    new, decision = tuple.__new__, ControlDecision

    def solve(x):
        [{x}] = x
{evaluate}
        u_raw, active, ceiling, holds = 0.0, 0, 1.0, True
{solve_steps}
        # u_raw starts at 0.0 and only rises, so only the cap at 1 can bind
        u = 1.0 if u_raw > 1.0 else u_raw
        return new(decision, (u_raw, u, holds and u_raw <= ceiling, active))

    return solve
"""
_SOLVE_STEP = """\
        d{k} = {drift}
        a{k} = {authority}
        if a{k} <= -g_tol:
            lower = d{k} / -a{k}
            if lower > u_raw:
                u_raw = lower
                active = {k}
        elif a{k} >= g_tol:
            upper = -d{k} / a{k}
            if upper < ceiling:
                ceiling = upper
        elif d{k} > 0.0:
            holds = False"""


@lru_cache(maxsize=64)
def _law_factory(table: FormulaTable, shape: tuple[tuple[str, int], ...]):
    """Compile the law template for one formula table and shape: the
    (kind, index) of each constraint, in order."""
    local = table.local
    n, m = len(table.w), len(table.z)

    def each(names: Sequence[str]) -> str:
        return ", ".join(map(local, names))

    def dot(row: str, vec: str, size: int) -> str:
        return "(0.0" + "".join(f" + {row}{i} * {vec}{i}" for i in range(size)) + ")"

    # the outlet dot products take every entry of f, g and o; a
    # multiplicative condition only its own entries of f and g
    outlets = any(kind == OUTLET for kind, _ in shape)
    used = range(n) if outlets else sorted({j for _, j in shape})
    evaluate = [local(line) for line in table.terms]
    evaluate += [f"f{i} = {local(table.f[i])}" for i in used]
    evaluate += [f"g{i} = {local(table.g[i])}" for i in used]
    if outlets:
        evaluate += [f"o{i} = {local(e)}" for i, e in enumerate(table.outflow)]
    constants, solve_steps = [], []
    for k, (kind, j) in enumerate(shape):
        if kind == OUTLET:
            constants.append(
                f"s{k}, bound{k}, sum{k}, prod{k} = c{k}.sign, c{k}.bound, "
                f"c{k}.alpha + c{k}.alpha_e, c{k}.alpha_e * c{k}.alpha"
            )
            constants.append(f"[{', '.join(f'p{k}_{i}' for i in range(n))}] = spec.dq_dw[{j}]")
            constants.append(f"[{', '.join(f'e{k}_{i}' for i in range(m))}] = spec.dr_dz[{j}]")
            drift = (
                f"s{k} * ({dot(f'p{k}_', 'f', n)} + {dot(f'e{k}_', 'o', m)}"
                f" + sum{k} * o{j} - prod{k} * (bound{k} - {local(table.z[j])}))"
            )
            authority = f"s{k} * {dot(f'p{k}_', 'g', n)}"
        else:
            constants.append(f"s{k}, alpha{k}, bound{k} = c{k}.sign, c{k}.alpha, c{k}.bound")
            drift = f"s{k} * f{j} - alpha{k} * (s{k} * (bound{k} - {local(table.w[j])}))"
            authority = f"s{k} * g{j}"
        solve_steps.append(_SOLVE_STEP.format(k=k, drift=drift, authority=authority))

    def block(lines: list[str], indent: str) -> str:
        return "\n".join(indent + line for line in lines)

    source = _LAW_TEMPLATE.format(
        params=each(table.params),
        model_constants=block([local(line) for line in table.constants], "    "),
        names=", ".join(f"c{k}" for k in range(len(shape))),
        constants=block(constants, "    "),
        x=each(table.w + table.z),
        evaluate=block(evaluate, "        "),
        solve_steps="\n".join(solve_steps),
    )
    namespace: dict = {"ControlDecision": ControlDecision}
    exec(compile(source, f"<law kernel, {table.w + table.z}, {shape}>", "exec"), namespace)
    return namespace["factory"]


@lru_cache(maxsize=16)
def _solver(spec: ModelSpec, constraints: tuple[SafetyConstraint, ...]):
    """Return solve for the constraint set, from the factory for the spec's
    formula table and the constraints' shape (see the scalar core notes
    above).  It is built, and the constraints checked against the model,
    on the first request only; every caller of the law shares the memo,
    keyed by the values of spec and constraints."""
    for c in constraints:
        c.position(spec)
    shape = tuple((c.kind, c.index) for c in constraints)
    return _law_factory(spec.formulas, shape)(spec, constraints)


# combined_control's one state check: one straight-line function per
# state length, generated on first use and kept for that length.
# make(flat, solve) returns checked(x), which runs ModelSpec.flat's checks
# and the finiteness check on x in that order, with their messages, and
# then solve(x).  A list is unpacked once and its floor checked only
# when an entry is negative; a list of another length goes through flat to
# be named.  Anything else goes through flat, which checks the floor of a
# sequence (a ModelState checked its own when it was built).  The
# finiteness check runs only when the sum is not finite.
_CHECK_TEMPLATE = """\
def make(flat, solve):
    def checked(x):
        if type(x) is list:
            try:
                [{x}] = x
            except ValueError:
                flat(x)  # a list of another length: names both sizes
                raise
            if {negative}:
                check_floor(x)
        else:
            x = flat(x)  # checks the size, and the floor of a sequence
            [{x}] = x
        if not isfinite({total}):  # a finite sum has only finite entries
            check_finite(x)
        return solve(x)

    return checked
"""


@lru_cache(maxsize=16)
def _check(n: int) -> Callable:
    """make(flat, solve) of the state check for states of length n (see
    above)."""
    names = [f"x{i}" for i in range(n)]
    source = _CHECK_TEMPLATE.format(
        x=", ".join(names),
        negative=" or ".join(f"{v} < 0.0" for v in names),
        total=" + ".join(names),
    )
    namespace: dict = {
        "isfinite": isfinite, "check_floor": _check_floor, "check_finite": _check_finite,
    }
    exec(compile(source, f"<state check, {n} states>", "exec"), namespace)
    return namespace["make"]


# -- public operations -------------------------------------------------------


def barrier_value(constraint: SafetyConstraint, state: ModelState) -> float:
    """Safety margin h at the state; non-negative means inside the safe set."""
    block = state._w if constraint.kind == MULTIPLICATIVE else state._z
    if constraint.index >= len(block):
        raise ValueError(
            f"{constraint.kind} index {constraint.index} out of range "
            f"for state with ({state.n}, {state.m}) compartments"
        )
    return constraint.sign * (constraint.bound - block[constraint.index])


def extended_barrier_value(
    spec: ModelSpec, constraint: SafetyConstraint, state: ModelState
) -> float:
    """Differentiated margin h_e = dh/dt + alpha*h for an outlet constraint."""
    if constraint.kind != OUTLET:
        raise ValueError("extended margin is defined for outlet constraints only")
    [[he]] = _margins(spec, (constraint,), spec.flat(state), extended=True)
    return he


def multiplicative_control(
    spec: ModelSpec, constraint: SafetyConstraint, state: ModelState | list[float]
) -> ControlDecision:
    """Min-norm intervention keeping a multiplicative compartment inside its
    bound.  Where the input has no authority over the compartment the
    decision rests at 0, feasible iff the open loop already meets the
    condition.  state is a ModelState or the flat [w; z] list (see
    ModelSpec.flat)."""
    if constraint.kind != MULTIPLICATIVE:
        raise ValueError("constraint is not multiplicative")
    return combined_control(spec, (constraint,), state)._replace(active_constraint=None)


def outlet_control(
    spec: ModelSpec, constraint: SafetyConstraint, state: ModelState | list[float]
) -> ControlDecision:
    """Min-norm intervention keeping an outlet compartment inside its bound,
    acting through the differentiated margin.  The caller is responsible for
    checking the starting condition (see validate_initial_condition).
    state is a ModelState or the flat [w; z] list (see ModelSpec.flat)."""
    if constraint.kind != OUTLET:
        raise ValueError("constraint is not an outlet constraint")
    return combined_control(spec, (constraint,), state)._replace(active_constraint=None)


# combined_control's last request, as one (spec, constraints, checked)
# tuple: a repeat with the same objects skips hashing the constraints and
# runs the state check of its length, then the memoized solve.  It is read
# once and replaced whole, so concurrent callers never see a mix of two.
_last = (None, None, None)


def _rest(x: list[float]) -> ControlDecision:  # the solve of no constraint
    return ControlDecision(0.0, 0.0, True, None)


def combined_control(
    spec: ModelSpec,
    constraints: Sequence[SafetyConstraint],
    state: ModelState | list[float],
) -> ControlDecision:
    """Enforce several bounds at once: the exact min-norm solution of the
    jointly constrained scalar-input QP (see the module docstring).

    Constraints of either sign and states without control authority are
    all handled; an infeasible QP is reported through feasible = False.
    When every control coefficient is negative this is the pointwise
    maximum of the individual laws.  Ties resolve to the lowest constraint
    index for reproducible audits.

    state is a ModelState or the flat [w; z] list of n + m floats that
    simulate holds.  Every request, also without constraints, checks it
    with the one check generated for the model's state length (ModelSpec.
    flat's checks, then finiteness: ValueError) and passes a list to the
    law without a copy; a first request checks its constraints against the
    model before the state.  A repeat of the last request (the same spec
    and constraint tuple objects) reuses the check bound to its solve.
    """
    global _last
    last = _last
    if last[0] is spec and last[1] is constraints:
        return last[2](state)
    if not isinstance(constraints, tuple):
        constraints = tuple(constraints)
    solve = _solver(spec, constraints) if constraints else _rest
    checked = _check(spec.n + spec.m)(spec.flat, solve)
    _last = (spec, constraints, checked)
    return checked(state)  # not _last's: another caller may have replaced it


@dataclass(frozen=True)
class ConstraintCheck:
    """Starting-condition status for one constraint."""

    label: str
    margin: float
    extended_margin: float | None
    ok: bool


@dataclass(frozen=True)
class InitialConditionReport:
    """One ConstraintCheck per constraint, in order."""

    checks: tuple[ConstraintCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

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
    state0: ModelState | list[float],
) -> InitialConditionReport:
    """Check the hypotheses under which the controllers guarantee safety.

    Multiplicative constraints need the starting state inside the safe set
    (h >= 0).  Outlet constraints additionally need the differentiated
    margin non-negative at the start (h_e >= 0), since only its 0-superlevel
    set is rendered invariant.  state0 is a ModelState or the flat [w; z]
    list that simulate holds (see ModelSpec.flat); the margins are the
    ones _margins gives a trajectory at that state, and no warning is
    raised.  They are computed on Python floats, also for a list of numpy
    scalars, whose overflow would warn.
    """
    x = [*map(float, spec.flat(state0))]
    margins = _margins(spec, constraints, x)
    extended = _margins(spec, constraints, x, extended=True)
    checks = []
    for k, (c, [h], [he]) in enumerate(zip(constraints, margins, extended)):
        if c.kind == OUTLET:
            ok = h >= 0.0 and he >= 0.0
        else:
            he = None
            ok = h >= 0.0
        checks.append(ConstraintCheck(c.label(k), h, he, ok))
    return InitialConditionReport(tuple(checks))
