"""Reference implementations the tests hold the library against.

They are kept apart from src/ on purpose: each one is written
independently of (or is an earlier, plainer form of) the library kernel it
checks, so a change to the kernel cannot change its own oracle.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

from episafe.models import SeirParams, SihrdParams, SirParams
from episafe.safety import MULTIPLICATIVE, OUTLET

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
    constraints, with every outlet dot product taken by dot; both entry
    points of the law safety generates must give the same bits."""
    f_t, g_t, q_t, r_t = spec.f_t, spec.g_t, spec.q_t, spec.r_t

    def terms(w, z):
        f, g = f_t(w), g_t(w)
        outflow = tuple(map(add, q_t(w), r_t(z)))
        jq, jr = spec.dq_dw, spec.dr_dz
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


# -- reference models --------------------------------------------------------
#
# The SIR, SEIR and SIHRD evaluators written out by hand as closures, apart
# from the formula tables of episafe.models.  Each returns the five
# evaluators and two constant Jacobians of a ModelSpec by name; the ones
# compiled from the tables must give the same bits.


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
