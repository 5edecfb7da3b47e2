"""Reference implementations the tests hold the library against.

They are kept apart from src/ on purpose: each one is written
independently of (or is an earlier, plainer form of) the library kernel it
checks, so a change to the kernel cannot change its own oracle.  The
solvers below read their model from reference_model, the hand-written
models at the end of this file, and no formula of the spec they check:
the law inlines its model's formula table, so they test the whole path
from the table to the law.
"""

from __future__ import annotations

import math
from operator import add
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from episafe.models import ModelSpec, ModelState, SeirParams, SihrdParams, SirParams
from episafe.runner import TrajectoryFormatError
from episafe.safety import MULTIPLICATIVE, OUTLET, SafetyConstraint
from episafe.sim import grid_steps

Vector = tuple[float, ...]
Matrix = tuple[tuple[float, ...], ...]


def rk4_reference(deriv, x, u, dt):
    """One classical RK4 step written as elementwise list comprehensions;
    engine.rk4_flat must give the same bits."""
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


def clamp01(v: float) -> float:
    """v clamped to [0, 1]; NaN and -0.0 pass through unchanged."""
    return min(max(v, 0.0), 1.0)


def dot(a, b):
    """a . b summed left to right from 0.0, one term at a time.  An explicit
    loop, not sum(): from CPython 3.12 sum() of floats is compensated and
    gives other bits."""
    total = 0.0
    for x, y in zip(a, b):
        total = total + x * y
    return total


def reference_solver(spec, constraints):
    """solve(w, z) -> (u_raw, active, feasible) from a loop over the
    constraints, on the hand-written model of spec, with every outlet dot
    product taken by dot; both entry points of the law safety generates
    must give the same bits."""
    model = reference_model(spec)
    f_t, g_t, q_t, r_t = model["f_t"], model["g_t"], model["q_t"], model["r_t"]
    jq, jr = model["dq_dw"], model["dr_dz"]

    def terms(w, z):
        f, g = f_t(w), g_t(w)
        outflow = tuple(map(add, q_t(w), r_t(z)))
        out = []
        for c in constraints:
            j, s = c.index, c.sign
            if c.kind == OUTLET:
                row = jq[j]
                drift = (
                    dot(row, f)
                    + dot(jr[j], outflow)
                    + (c.alpha + c.alpha_e) * outflow[j]
                    - c.alpha_e * c.alpha * (c.bound - z[j])
                )
                out.append((s * drift, s * dot(row, g)))
            else:
                out.append((s * f[j] - c.alpha * (s * (c.bound - w[j])), s * g[j]))
        return out

    def solve(w, z):
        u_raw, active, ceiling, holds = 0.0, 0, 1.0, True
        for k, (drift, authority) in enumerate(terms(w, z)):
            if authority <= -spec.g_tol:
                lower = drift / -authority
                if lower > u_raw:
                    u_raw, active = lower, k
            elif authority >= spec.g_tol:
                upper = -drift / authority
                if upper < ceiling:
                    ceiling = upper
            elif drift > 0.0:
                holds = False
        return u_raw, active, holds and u_raw <= ceiling

    return solve


def qp_oracle(
    spec: ModelSpec,
    constraints: Sequence[SafetyConstraint],
    state: ModelState,
    grid_resolution: float = 1e-4,
) -> float | None:
    """Brute-force reference solver for the min-norm problem.

    Minimizes u**2 over a uniform grid on [0, 1] subject to the exact
    safety conditions of every constraint; returns the smallest feasible
    grid value, or None when no grid point is feasible.  It shares no code
    and no formula with the generated law, which it and the closed forms
    below cross-check: f, g, q, r and the Jacobians come from the
    hand-written model of spec (reference_model).  Each condition is
    -drift - authority*u >= 0 with the drift and authority of the formulas
    in episafe.safety's scalar core notes.
    """
    if not grid_resolution > 0.0:
        raise ValueError("grid_resolution must be positive")
    x = spec.flat(state)
    w, z = x[: spec.n], x[spec.n :]
    steps = int(round(1.0 / grid_resolution))
    grid = np.linspace(0.0, 1.0, steps + 1)
    feasible = np.ones_like(grid, dtype=bool)
    for c in constraints:
        c.position(spec)
    model = reference_model(spec)
    f, g = model["f_t"](w), model["g_t"](w)
    for c in constraints:
        j, s = c.index, c.sign
        if c.kind == OUTLET:
            outflow = [a + b for a, b in zip(model["q_t"](w), model["r_t"](z))]
            dq_row, dr_row = model["dq_dw"][j], model["dr_dz"][j]
            drift = s * (
                sum(a * b for a, b in zip(dq_row, f))
                + sum(a * b for a, b in zip(dr_row, outflow))
                + (c.alpha + c.alpha_e) * outflow[j]
                - c.alpha_e * c.alpha * (c.bound - z[j])
            )
            authority = s * sum(a * b for a, b in zip(dq_row, g))
        else:
            drift = s * f[j] - c.alpha * (s * (c.bound - w[j]))
            authority = s * g[j]
        feasible &= (-drift - authority * grid) >= 0.0
    idx = int(np.argmax(feasible))
    if not feasible[idx]:
        return None
    return float(grid[idx])


# -- reference models --------------------------------------------------------
#
# The SIR, SEIR and SIHRD models written out by hand as closures, apart
# from the formula tables of episafe.models.  Each returns f, g, q, r, the
# fused derivative and the two constant Jacobians by name: the
# derivative and Jacobians a ModelSpec compiles from its table must give
# the same bits, and the solvers above read f, g, q and r.


def reference_sir(params: SirParams) -> dict:
    """SIR with intervention: w = (S, I), z = (R,).

    Transmission beta0*S*I/N is scaled by (1 - u); recovery drains I into R
    at rate gamma.
    """
    beta0, gamma, N = params.beta0, params.gamma, params.N
    dq_dw: Matrix = ((0.0, gamma),)
    dr_dz: Matrix = ((0.0,),)

    def f_t(w: Vector) -> Vector:
        S, I = w
        t = beta0 * S * I / N
        return (-t, t - gamma * I)

    def g_t(w: Vector) -> Vector:
        S, I = w
        t = beta0 * S * I / N
        return (t, -t)

    def q_t(w: Vector) -> Vector:
        return (gamma * w[1],)

    def r_t(z: Vector) -> Vector:
        return (0.0,)

    def derivative_t(x: Sequence[float], u: float) -> list[float]:
        S, I, _ = x
        inflow = beta0 * S * I / N * (1.0 - u)
        return [-inflow, inflow - gamma * I, gamma * I]

    return dict(
        f_t=f_t, g_t=g_t, q_t=q_t, r_t=r_t,
        derivative_t=derivative_t, dq_dw=dq_dw, dr_dz=dr_dz,
    )


def reference_seir(params: SeirParams) -> dict:
    """SEIR with intervention: w = (S, E, I), z = (R,).

    New infections enter the exposed pool E and become infectious at rate
    sigma.  The input has no direct effect on the I row, so only S and E
    admit the first-order safety controller.
    """
    beta0, gamma, N, sigma = params.beta0, params.gamma, params.N, params.sigma
    dq_dw: Matrix = ((0.0, 0.0, gamma),)
    dr_dz: Matrix = ((0.0,),)

    def f_t(w: Vector) -> Vector:
        S, E, I = w
        t = beta0 * S * I / N
        return (-t, t - sigma * E, sigma * E - gamma * I)

    def g_t(w: Vector) -> Vector:
        S, E, I = w
        t = beta0 * S * I / N
        return (t, -t, 0.0)

    def q_t(w: Vector) -> Vector:
        return (gamma * w[2],)

    def r_t(z: Vector) -> Vector:
        return (0.0,)

    def derivative_t(x: Sequence[float], u: float) -> list[float]:
        S, E, I, _ = x
        inflow = beta0 * S * I / N * (1.0 - u)
        return [-inflow, inflow - sigma * E, sigma * E - gamma * I, gamma * I]

    return dict(
        f_t=f_t, g_t=g_t, q_t=q_t, r_t=r_t,
        derivative_t=derivative_t, dq_dw=dq_dw, dr_dz=dr_dz,
    )


def reference_sihrd(params: SihrdParams) -> dict:
    """SIHRD with intervention: w = (S, I), z = (H, R, D).

    Infected individuals leave I at total rate gamma + lam + mu, split into
    hospitalization (lam), direct recovery (gamma) and death (mu); the
    hospitalized recover at rate nu.
    """
    beta0, gamma, N = params.beta0, params.gamma, params.N
    lam, nu, mu = params.lam, params.nu, params.mu
    out = gamma + lam + mu
    dq_dw: Matrix = ((0.0, lam), (0.0, gamma), (0.0, mu))
    dr_dz: Matrix = ((-nu, 0.0, 0.0), (nu, 0.0, 0.0), (0.0, 0.0, 0.0))

    def f_t(w: Vector) -> Vector:
        S, I = w
        t = beta0 * S * I / N
        return (-t, t - out * I)

    def g_t(w: Vector) -> Vector:
        S, I = w
        t = beta0 * S * I / N
        return (t, -t)

    def q_t(w: Vector) -> Vector:
        I = w[1]
        return (lam * I, gamma * I, mu * I)

    def r_t(z: Vector) -> Vector:
        H = z[0]
        return (-nu * H, nu * H, 0.0)

    def derivative_t(x: Sequence[float], u: float) -> list[float]:
        S, I, H, _, _ = x
        inflow = beta0 * S * I / N * (1.0 - u)
        return [
            -inflow,
            inflow - out * I,
            lam * I - nu * H,
            gamma * I + nu * H,
            mu * I,
        ]

    return dict(
        f_t=f_t, g_t=g_t, q_t=q_t, r_t=r_t,
        derivative_t=derivative_t, dq_dw=dq_dw, dr_dz=dr_dz,
    )


class DenseParams(NamedTuple):
    """The matrices of a linear model dw/dt = F w - (G * I) (1 - u), dz/dt
    = Q w + R z, as tuples of rows, and a population scale N."""

    F: Matrix
    G: Vector
    Q: Matrix
    R: Matrix
    N: float


def reference_dense(params: DenseParams) -> dict:
    """The linear model of params, each matrix product summed left to right
    from 0.0 by dot, as its formula table writes it; g is G times I, the
    second w compartment, and f is F w - g, so the input scales g by
    (1 - u) in the derivative."""
    F, G, Q, R = params.F, params.G, params.Q, params.R
    n = len(F)

    def f_t(w: Vector) -> Vector:
        return tuple(dot(row, w) - gk * w[1] for row, gk in zip(F, G))

    def g_t(w: Vector) -> Vector:
        return tuple(gk * w[1] for gk in G)

    def q_t(w: Vector) -> Vector:
        return tuple(dot(row, w) for row in Q)

    def r_t(z: Vector) -> Vector:
        return tuple(dot(row, z) for row in R)

    def derivative_t(x: Sequence[float], u: float) -> list[float]:
        w, z = x[:n], x[n:]
        return [dot(row, w) - gk * w[1] * (1.0 - u) for row, gk in zip(F, G)] + [
            dot(qrow, w) + dot(rrow, z) for qrow, rrow in zip(Q, R)
        ]

    return dict(
        f_t=f_t, g_t=g_t, q_t=q_t, r_t=r_t,
        derivative_t=derivative_t, dq_dw=Q, dr_dz=R,
    )


REFERENCE_MODELS = {
    "sir": reference_sir,
    "seir": reference_seir,
    "sihrd": reference_sihrd,
    "dense": reference_dense,
}


def reference_model(spec) -> dict:
    """The hand-written model of spec.kind at spec.params."""
    return REFERENCE_MODELS[spec.kind](spec.params)


def reference_default_gains(spec, kind, index):
    """The default margin gains written out per model kind, apart from the
    formula tables: alpha one tenth of I's removal rate, alpha_e one tenth
    of the capped outlet's own outflow rate, or alpha when it has none;
    scenarios.default_gains must give the same bits."""
    p = spec.params
    if spec.kind == "sihrd":
        i_out = p.gamma + p.lam + p.mu
        own = {0: p.nu, 1: 0.0, 2: 0.0}  # H, R, D
    else:
        i_out = p.gamma
        own = {0: 0.0}
    if kind == MULTIPLICATIVE:
        return i_out / 10.0, None
    alpha = i_out / 10.0
    own_rate = own.get(index, 0.0)
    alpha_e = own_rate / 10.0 if own_rate > 0.0 else alpha
    return alpha, alpha_e


# -- closed-form specializations ---------------------------------------------
#
# Direct transcriptions of the per-model laws, written out in their own
# algebraic grouping.  They deliberately do not reuse the generic machinery
# of episafe.safety: the test suite holds both paths against each other.


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


def reference_csv_text(traj) -> tuple[str, str]:
    """The trajectory CSV and the long CSV of traj, each cell formatted on
    its own with "{:.15g}".format; runner's writers must give the same
    text."""
    sc = traj.scenario
    names = [
        *sc.spec.labels, "u_raw", "u",
        *(f"h_{c.label(k)}" for k, c in enumerate(sc.constraints)), "d",
    ]
    wide = ["t," + ",".join(names)]
    long = ["t,series,value"]
    for k in range(len(traj)):
        values = [
            *traj.states[k], traj.u_raw[k], traj.u[k], *traj.barriers[k],
            traj.disturbances[k],
        ]
        t = "{:.15g}".format(traj.times[k])
        cells = ["{:.15g}".format(v) for v in values]
        wide.append(",".join([t, *cells]))
        long += [f"{t},{name},{cell}" for name, cell in zip(names, cells)]
    return "\n".join(wide) + "\n", "\n".join(long) + "\n"


def reference_import(path, scenario) -> tuple[list, list, list, list, list]:
    """(times, states, u_raw, u, d) of a trajectory CSV whose header is
    right, read line by line as runner.import_trajectory read it before it
    took one pass over every cell: each line is split, converted and
    checked as it is read, then the sample count and the time grid are
    checked.  Raises the TrajectoryFormatError the importer must raise."""
    origin = str(path)
    lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    expected = lines[0].split(",")
    width, n_state = len(expected), len(scenario.spec.labels)
    read = [*range(1, 3 + n_state), width - 1]  # the states, u_raw, u and d
    times, states, u_raw, u, d = [], [], [], [], []
    for number, line in enumerate(lines[1:], 2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise TrajectoryFormatError(
                f"line {number}: expected {width} fields, got {len(cells)}", origin
            )
        try:
            row = list(map(float, cells))
        except ValueError as exc:
            raise TrajectoryFormatError(f"line {number}: bad numeric cell: {exc}", origin) from None
        # a finite sum has only finite entries
        if not math.isfinite(sum(row[1 : 3 + n_state]) + row[-1]):
            for j in read:
                if not math.isfinite(row[j]):  # the first, named by its column
                    raise TrajectoryFormatError(
                        f"line {number}: {expected[j]} = {row[j]} is not finite", origin
                    )
        times.append(row[0])
        states.append(row[1 : 1 + n_state])
        u_raw.append(row[1 + n_state])
        u.append(row[2 + n_state])
        d.append(row[-1])
    n_rows = scenario.n_steps + 1
    if len(times) != n_rows:
        raise TrajectoryFormatError(
            f"{len(times)} samples, but the scenario's time grid "
            f"(t_start {scenario.t_start:g}, t_end {scenario.t_end:g}, dt "
            f"{scenario.dt:g}) has {n_rows}", origin
        )
    for k, t in enumerate(times):
        if grid_steps(t - scenario.t_start, scenario.dt) != k:
            raise TrajectoryFormatError(
                f"sample {k} has t = {t!r}, off the scenario's "
                f"time grid (t_start {scenario.t_start:g}, dt {scenario.dt:g})", origin
            )
    return times, states, u_raw, u, d


# -- numpy's formulas for a run's record -------------------------------------
#
# A run keeps its record as Python lists, and the audit, the peaks and the
# CSV importer read those lists.  The functions below are the numpy forms
# they replaced, on the trajectory's arrays: their min, max and argmin
# treat -0.0, ties and NaN as numpy does, and the list forms must agree.


def numpy_margins(spec, constraints, states) -> tuple[np.ndarray, np.ndarray]:
    """(barriers, extended) of a states matrix, each constraint's h and
    h_e (NaN for a multiplicative constraint) evaluated on whole state
    columns."""
    columns = list(np.asarray(states, dtype=float).T)
    w, z = columns[: spec.n], columns[spec.n :]
    barriers = np.empty((len(columns[0]), len(constraints)))
    extended = np.full_like(barriers, np.nan)
    with np.errstate(all="ignore"):
        zdot = spec.derivative_t(columns, 0.0)[spec.n :]
        for j, c in enumerate(constraints):
            value = w[c.index] if c.kind == MULTIPLICATIVE else z[c.index]
            barriers[:, j] = c.sign * (c.bound - value)
            if c.kind == OUTLET:
                extended[:, j] = c.sign * (-zdot[c.index] + c.alpha * (c.bound - z[c.index]))
    return barriers, extended


def numpy_audit(traj) -> tuple[list[tuple], int]:
    """Per constraint (min_margin, min_margin_time, violation_count,
    decay_check_failures, decay_check_worst, decay_tolerance), and the
    count of infeasible samples, from the trajectory's arrays."""
    sc = traj.scenario
    audits = []
    for c, series in zip(sc.constraints, traj.barriers.T):
        k_min = int(np.argmin(series))
        tol = 1e-6 * c.alpha * c.bound
        controlled = series[sc.control_step :]
        with np.errstate(all="ignore"):
            decay = np.diff(controlled) / sc.dt + c.alpha * controlled[:-1]
        audits.append((
            float(series[k_min]),
            float(traj.times[k_min]),
            int(np.count_nonzero(series < 0.0)),
            int(np.count_nonzero(decay < -tol)),
            float(decay.min()) if decay.size else float("inf"),
            tol,
        ))
    return audits, int(np.count_nonzero(~traj.feasible))


def numpy_peak(traj, label: str) -> tuple[float, float]:
    """(max value, time of max) of a compartment clamped at zero."""
    series = np.maximum(traj.states[:, traj.labels.index(label)], 0.0)
    k = int(np.argmax(series))
    return float(series[k]), float(traj.times[k])


def numpy_off_grid(times, t_start: float, dt: float) -> int | None:
    """The first sample whose time in the column times is not k steps after
    t_start to a relative tolerance of 1e-9, or None."""
    times = np.asarray(times, dtype=float)
    with np.errstate(all="ignore"):
        steps = (times - t_start) / dt
        near = np.abs(steps - np.arange(times.size)) <= 1e-9 * np.maximum(1.0, steps)
        off = ~((steps >= 0.0) & np.isfinite(steps) & near)
    return int(np.argmax(off)) if off.any() else None
