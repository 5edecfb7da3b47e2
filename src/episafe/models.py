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


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ModelState:
    """Partitioned population state: multiplicative block w, outlet block z.

    Entries are persons per compartment.  Labels name each entry of the
    concatenated vector [w; z] and must be unique.
    """

    w: np.ndarray
    z: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", _readonly(np.atleast_1d(self.w)))
        object.__setattr__(self, "z", _readonly(np.atleast_1d(self.z)))
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.w.ndim != 1 or self.z.ndim != 1:
            raise ValueError("state blocks must be one-dimensional")
        if self.w.size < 1 or self.z.size < 1:
            raise ValueError("need at least one multiplicative and one outlet compartment")
        if len(self.labels) != self.w.size + self.z.size:
            raise ValueError(
                f"expected {self.w.size + self.z.size} labels, got {len(self.labels)}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("compartment labels must be unique")
        total = float(np.abs(self.w).sum() + np.abs(self.z).sum())
        floor = -_NEGATIVITY_TOL * max(1.0, total)
        low = min(self.w.min(), self.z.min())
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

    The public evaluators take and return numpy arrays.  The ``*_t``
    fields are scalar-tuple twins of the same formulas used by the
    fixed-step integrator, where numpy call overhead would dominate;
    ``derivative_t`` fuses f + g*u and q + r into one call.
    """

    kind: str
    n: int
    m: int
    labels: tuple[str, ...]
    params: object
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    q: Callable[[np.ndarray], np.ndarray]
    r: Callable[[np.ndarray], np.ndarray]
    dq_dw: Callable[[np.ndarray], np.ndarray]
    dr_dz: Callable[[np.ndarray], np.ndarray]
    g_tol: float
    f_t: Callable[[Vector], Vector] = field(repr=False, default=None)
    g_t: Callable[[Vector], Vector] = field(repr=False, default=None)
    q_t: Callable[[Vector], Vector] = field(repr=False, default=None)
    r_t: Callable[[Vector], Vector] = field(repr=False, default=None)
    dq_dw_t: Callable[[Vector], Matrix] = field(repr=False, default=None)
    dr_dz_t: Callable[[Vector], Matrix] = field(repr=False, default=None)
    derivative_t: Callable[[Sequence[float], float], list[float]] = field(
        repr=False, default=None
    )

    def state(self, values: Sequence[float] | np.ndarray) -> ModelState:
        """Build a ModelState from a concatenated [w; z] vector."""
        arr = np.asarray(values, dtype=float)
        if arr.shape != (self.n + self.m,):
            raise ValueError(f"expected {self.n + self.m} entries, got {arr.shape}")
        return ModelState(w=arr[: self.n], z=arr[self.n :], labels=self.labels)


def _wrap_tuple_fn(fn: Callable[[Vector], Vector]) -> Callable[[np.ndarray], np.ndarray]:
    def wrapped(v: np.ndarray) -> np.ndarray:
        return np.asarray(fn(tuple(np.asarray(v, dtype=float))), dtype=float)

    return wrapped


def _spec_from_scalars(
    kind: str,
    n: int,
    m: int,
    labels: tuple[str, ...],
    params: object,
    f_t: Callable[[Vector], Vector],
    g_t: Callable[[Vector], Vector],
    q_t: Callable[[Vector], Vector],
    r_t: Callable[[Vector], Vector],
    dq_dw_t: Callable[[Vector], Matrix],
    dr_dz_t: Callable[[Vector], Matrix],
    derivative_t: Callable[[Sequence[float], float], list[float]],
    g_tol: float,
) -> ModelSpec:
    return ModelSpec(
        kind=kind,
        n=n,
        m=m,
        labels=labels,
        params=params,
        f=_wrap_tuple_fn(f_t),
        g=_wrap_tuple_fn(g_t),
        q=_wrap_tuple_fn(q_t),
        r=_wrap_tuple_fn(r_t),
        dq_dw=_wrap_tuple_fn(dq_dw_t),
        dr_dz=_wrap_tuple_fn(dr_dz_t),
        g_tol=g_tol,
        f_t=f_t,
        g_t=g_t,
        q_t=q_t,
        r_t=r_t,
        dq_dw_t=dq_dw_t,
        dr_dz_t=dr_dz_t,
        derivative_t=derivative_t,
    )


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

    return _spec_from_scalars(
        "sir", 2, 1, ("S", "I", "R"), params,
        f_t, g_t, q_t, r_t, dq_dw_t, dr_dz_t, derivative_t,
        g_tol=1e-12 * beta0,
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

    return _spec_from_scalars(
        "seir", 3, 1, ("S", "E", "I", "R"), params,
        f_t, g_t, q_t, r_t, dq_dw_t, dr_dz_t, derivative_t,
        g_tol=1e-12 * beta0,
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

    return _spec_from_scalars(
        "sihrd", 2, 3, ("S", "I", "H", "R", "D"), params,
        f_t, g_t, q_t, r_t, dq_dw_t, dr_dz_t, derivative_t,
        g_tol=1e-12 * beta0,
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
    wdot = spec.f(state.w) + spec.g(state.w) * u
    zdot = spec.q(state.w) + spec.r(state.z)
    return wdot, zdot


def eval_jacobians(spec: ModelSpec, state: ModelState) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians (dq/dw of shape (m, n), dr/dz of shape (m, m))."""
    if state.n != spec.n or state.m != spec.m:
        raise ValueError(
            f"state dimensions ({state.n}, {state.m}) do not match "
            f"model ({spec.n}, {spec.m})"
        )
    return spec.dq_dw(state.w), spec.dr_dz(state.z)
