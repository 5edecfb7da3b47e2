"""Compartmental epidemic models as control systems.

All models share one structure: the state splits into "multiplicative"
compartments w (the populations that drive transmission, e.g. S and I) and
"outlet" compartments z (populations fed by the transmission process, e.g.
R, H, D).  Active intervention enters as a scalar input u in [0, 1] that
scales the transmission term:

    dw/dt = f(w) + g(w) * u
    dz/dt = q(w) + r(z)

u = 0 means no intervention, u = 1 means total isolation of infected
individuals.  Time is measured in days, populations in persons, rates in
1/day.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ModelState",
    "SirParams",
    "SeirParams",
    "SihrdParams",
    "ModelSpec",
    "build_sir",
    "build_seir",
    "build_sihrd",
    "eval_dynamics",
    "eval_jacobians",
]

# Integration drift may push a compartment a hair below zero; reject anything
# more negative than this fraction of the total population.
_NEGATIVITY_TOL = 1e-9

Vector = tuple[float, ...]
Matrix = tuple[tuple[float, ...], ...]


def _sealed(a: np.ndarray) -> bool:
    """True when a and every array its memory comes from are read-only and
    the chain ends in memory numpy owns, so no caller can write through."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def _readonly(values) -> np.ndarray:
    """values as a read-only float64 array, copied unless already sealed."""
    a = np.atleast_1d(values)
    if a.dtype != np.float64 or not _sealed(a):
        a = np.array(a, dtype=float)
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ModelState:
    """Partitioned population state: multiplicative block w, outlet block z.

    Entries are persons per compartment.  Labels name each entry of the
    concatenated vector [w; z] and must be unique.  w and z are read-only
    float64 arrays; an input a caller could still write to is copied.
    """

    w: np.ndarray
    z: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        w, z, labels = _readonly(self.w), _readonly(self.z), tuple(self.labels)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "labels", labels)
        if w.ndim != 1 or z.ndim != 1:
            raise ValueError("state blocks must be one-dimensional")
        size = w.size + z.size
        if not w.size or not z.size:
            raise ValueError("need at least one multiplicative and one outlet compartment")
        if len(labels) != size:
            raise ValueError(f"expected {size} labels, got {len(labels)}")
        if len(set(labels)) != size:
            raise ValueError("compartment labels must be unique")
        # integration drift may leave tiny negatives: the floor is
        # -_NEGATIVITY_TOL times the total population (at least one person)
        x = w.tolist() + z.tolist()
        low = min(x)
        if low < 0.0:
            floor = -_NEGATIVITY_TOL * max(1.0, sum(map(abs, x)))
            if low < floor:
                raise ValueError(f"negative population {low:g} in state (floor {floor:g})")

    @property
    def n(self) -> int:
        return self.w.size

    @property
    def m(self) -> int:
        return self.z.size

    @property
    def x(self) -> np.ndarray:
        """Concatenated state vector [w; z]."""
        return np.concatenate([self.w, self.z])

    def value(self, label: str) -> float:
        return float(self.x[self.labels.index(label)])


def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not (value > 0.0) or not np.isfinite(value):
            raise ValueError(f"parameter {name} must be strictly positive, got {value!r}")


@dataclass(frozen=True)
class SirParams:
    """SIR rates: transmission beta0, recovery gamma (1/day), population N."""

    beta0: float
    gamma: float
    N: float

    def __post_init__(self) -> None:
        _require_positive(beta0=self.beta0, gamma=self.gamma, N=self.N)


@dataclass(frozen=True)
class SeirParams:
    """SEIR rates: SIR parameters plus inverse latency sigma (1/day)."""

    beta0: float
    gamma: float
    N: float
    sigma: float

    def __post_init__(self) -> None:
        _require_positive(
            beta0=self.beta0, gamma=self.gamma, N=self.N, sigma=self.sigma
        )


@dataclass(frozen=True)
class SihrdParams:
    """SIHRD rates: SIR parameters plus hospitalization lam, hospital
    recovery nu and death rate mu (all 1/day)."""

    beta0: float
    gamma: float
    N: float
    lam: float
    nu: float
    mu: float

    def __post_init__(self) -> None:
        _require_positive(
            beta0=self.beta0,
            gamma=self.gamma,
            N=self.N,
            lam=self.lam,
            nu=self.nu,
            mu=self.mu,
        )


@dataclass(frozen=True)
class ModelSpec:
    """A concrete compartmental model: evaluators plus metadata.

    The evaluators take and return plain float sequences: f_t, g_t and
    dq_dw_t act on the multiplicative block w, r_t and dr_dz_t on the
    outlet block z, q_t on w.  They serve the fixed-step integrator and
    the control law, where numpy call overhead on vectors this short would
    dominate; ``derivative_t`` fuses f + g*u and q + r into one call.
    eval_dynamics and eval_jacobians give the same values as arrays.
    """

    kind: str
    n: int
    m: int
    labels: tuple[str, ...]
    params: object
    g_tol: float
    f_t: Callable[[Vector], Vector] = field(repr=False)
    g_t: Callable[[Vector], Vector] = field(repr=False)
    q_t: Callable[[Vector], Vector] = field(repr=False)
    r_t: Callable[[Vector], Vector] = field(repr=False)
    dq_dw_t: Callable[[Vector], Matrix] = field(repr=False)
    dr_dz_t: Callable[[Vector], Matrix] = field(repr=False)
    derivative_t: Callable[[Sequence[float], float], list[float]] = field(repr=False)

    def state(self, values: Sequence[float] | np.ndarray) -> ModelState:
        """Build a ModelState from a concatenated [w; z] vector.

        The values are copied once into a read-only array; the state's w
        and z are views of it."""
        arr = np.array(values, dtype=float)
        if arr.shape != (self.n + self.m,):
            raise ValueError(f"expected {self.n + self.m} entries, got {arr.shape}")
        arr.setflags(write=False)
        return ModelState(w=arr[: self.n], z=arr[self.n :], labels=self.labels)


def build_sir(params: SirParams) -> ModelSpec:
    """SIR with intervention: w = (S, I), z = (R,).

    Transmission beta0*S*I/N is scaled by (1 - u); recovery drains I into R
    at rate gamma.
    """
    beta0, gamma, N = params.beta0, params.gamma, params.N

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

    def dq_dw_t(w: Vector) -> Matrix:
        return ((0.0, gamma),)

    def dr_dz_t(z: Vector) -> Matrix:
        return ((0.0,),)

    def derivative_t(x: Sequence[float], u: float) -> list[float]:
        S, I, _ = x
        inflow = beta0 * S * I / N * (1.0 - u)
        return [-inflow, inflow - gamma * I, gamma * I]

    return ModelSpec(
        kind="sir", n=2, m=1, labels=("S", "I", "R"), params=params,
        g_tol=1e-12 * beta0, f_t=f_t, g_t=g_t, q_t=q_t, r_t=r_t,
        dq_dw_t=dq_dw_t, dr_dz_t=dr_dz_t, derivative_t=derivative_t,
    )


def build_seir(params: SeirParams) -> ModelSpec:
    """SEIR with intervention: w = (S, E, I), z = (R,).

    New infections enter the exposed pool E and become infectious at rate
    sigma.  The input has no direct effect on the I row, so only S and E
    admit the first-order safety controller.
    """
    beta0, gamma, N, sigma = params.beta0, params.gamma, params.N, params.sigma

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

    def dq_dw_t(w: Vector) -> Matrix:
        return ((0.0, 0.0, gamma),)

    def dr_dz_t(z: Vector) -> Matrix:
        return ((0.0,),)

    def derivative_t(x: Sequence[float], u: float) -> list[float]:
        S, E, I, _ = x
        inflow = beta0 * S * I / N * (1.0 - u)
        return [-inflow, inflow - sigma * E, sigma * E - gamma * I, gamma * I]

    return ModelSpec(
        kind="seir", n=3, m=1, labels=("S", "E", "I", "R"), params=params,
        g_tol=1e-12 * beta0, f_t=f_t, g_t=g_t, q_t=q_t, r_t=r_t,
        dq_dw_t=dq_dw_t, dr_dz_t=dr_dz_t, derivative_t=derivative_t,
    )


def build_sihrd(params: SihrdParams) -> ModelSpec:
    """SIHRD with intervention: w = (S, I), z = (H, R, D).

    Infected individuals leave I at total rate gamma + lam + mu, split into
    hospitalization (lam), direct recovery (gamma) and death (mu); the
    hospitalized recover at rate nu.
    """
    beta0, gamma, N = params.beta0, params.gamma, params.N
    lam, nu, mu = params.lam, params.nu, params.mu
    out = gamma + lam + mu

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

    def dq_dw_t(w: Vector) -> Matrix:
        return ((0.0, lam), (0.0, gamma), (0.0, mu))

    def dr_dz_t(z: Vector) -> Matrix:
        return ((-nu, 0.0, 0.0), (nu, 0.0, 0.0), (0.0, 0.0, 0.0))

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

    return ModelSpec(
        kind="sihrd", n=2, m=3, labels=("S", "I", "H", "R", "D"), params=params,
        g_tol=1e-12 * beta0, f_t=f_t, g_t=g_t, q_t=q_t, r_t=r_t,
        dq_dw_t=dq_dw_t, dr_dz_t=dr_dz_t, derivative_t=derivative_t,
    )


def eval_dynamics(
    spec: ModelSpec, state: ModelState, u: float
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (dw/dt, dz/dt) in persons/day for input u."""
    if state.n != spec.n or state.m != spec.m:
        raise ValueError(
            f"state dimensions ({state.n}, {state.m}) do not match "
            f"model ({spec.n}, {spec.m})"
        )
    w, z = state.w.tolist(), state.z.tolist()
    wdot = np.asarray(spec.f_t(w), dtype=float) + np.asarray(spec.g_t(w), dtype=float) * u
    zdot = np.asarray(spec.q_t(w), dtype=float) + np.asarray(spec.r_t(z), dtype=float)
    return wdot, zdot


def eval_jacobians(spec: ModelSpec, state: ModelState) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians (dq/dw of shape (m, n), dr/dz of shape (m, m))."""
    if state.n != spec.n or state.m != spec.m:
        raise ValueError(
            f"state dimensions ({state.n}, {state.m}) do not match "
            f"model ({spec.n}, {spec.m})"
        )
    return (
        np.asarray(spec.dq_dw_t(state.w.tolist()), dtype=float),
        np.asarray(spec.dr_dz_t(state.z.tolist()), dtype=float),
    )
