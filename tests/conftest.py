import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from episafe.models import FormulaTable, ModelSpec, SihrdParams, SirParams, build_model

from oracles import DenseParams

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# Fitted US COVID-19 parameter sets used throughout the suite.
SIR_US = SirParams(beta0=0.33, gamma=0.2, N=33e6)
SIHRD_US = SihrdParams(beta0=0.53, gamma=0.14, N=15e6, lam=0.03, nu=0.14, mu=0.01)

# (tau, dt, whether tau is a whole number of dt steps): Scenario and
# PredictorConfig must accept and reject the same pairs.
TAU_GRID_CASES = [
    (1.05, 0.1, False),
    (0.55, 0.1, False),
    (11.0, 0.02, True),
    (9.0, 0.07, False),
    (0.3, 0.1, True),
    (11.0, 0.1, True),
]


@pytest.fixture(scope="session")
def sir_spec():
    return build_model(SIR_US)


@pytest.fixture(scope="session")
def sihrd_spec():
    return build_model(SIHRD_US)


def sample_sir_states(spec, count, seed, s_frac=(0.05, 1.0), i_frac=(1e-5, 0.5)):
    """Epidemiologically sane random SIR states (S and I bounded away from
    the degenerate corners so control authority stays well conditioned)."""
    rng = np.random.default_rng(seed)
    N = spec.params.N
    S = rng.uniform(s_frac[0] * N, s_frac[1] * N, count)
    I = rng.uniform(i_frac[0] * N, i_frac[1] * N, count)
    R = rng.uniform(0.0, 0.5 * N, count)
    return [spec.state([S[k], I[k], R[k]]) for k in range(count)]


def sample_sihrd_states(spec, count, seed, s_frac=(0.05, 1.0), i_frac=(1e-5, 0.5)):
    rng = np.random.default_rng(seed)
    N = spec.params.N
    S = rng.uniform(s_frac[0] * N, s_frac[1] * N, count)
    I = rng.uniform(i_frac[0] * N, i_frac[1] * N, count)
    H = rng.uniform(0.0, 0.02 * N, count)
    R = rng.uniform(0.0, 0.5 * N, count)
    D = rng.uniform(0.0, 0.05 * N, count)
    return [spec.state([S[k], I[k], H[k], R[k], D[k]]) for k in range(count)]


def central_difference_jacobian(fn, v, rel_step=1e-4):
    """Independent finite-difference oracle for Jacobians of fn at v."""
    v = np.asarray(v, dtype=float)
    base = np.asarray(fn(v), dtype=float)
    jac = np.zeros((base.size, v.size))
    for k in range(v.size):
        h = rel_step * max(1.0, abs(v[k]))
        vp, vm = v.copy(), v.copy()
        vp[k] += h
        vm[k] -= h
        jac[:, k] = (np.asarray(fn(vp)) - np.asarray(fn(vm))) / (2.0 * h)
    return jac


def outlet_rows(spec, w, z):
    """The outlet rows of spec's derivative at [w; z]: q(w) + r(z), which
    the input does not enter."""
    return spec.derivative_t(np.concatenate([w, z]), 0.0)[spec.n :]


def dense_linear_spec(rng, n=3, m=4):
    """A linear model whose Jacobians have no zero entries, so the order of
    every outlet dot product shows in the bits.  Each w compartment k has
    its own transmission term t{k} = G{k} * I, so authority scales with I:
    f = F w - t (so g = t) and outflow Q w + R z.  Its formula table names
    every matrix entry as a parameter; its params hold the matrices for
    oracles.reference_dense."""
    F, Q, R = (
        tuple(map(tuple, rng.uniform(-1.0, 1.0, size=shape).tolist()))
        for shape in ((n, n), (m, n), (m, m))
    )
    G = tuple(rng.uniform(-100.0, 100.0, size=n).tolist())
    w = ("S", "I", *(f"x{k}" for k in range(2, n)))
    z = tuple(f"x{k}" for k in range(n, n + m))

    def names(A, rows, cols):
        return tuple(tuple(f"{A}{i}_{j}" for j in range(cols)) for i in range(rows))

    def times(A, v, rows):
        return tuple(
            "0.0" + "".join(f" + {A}{i}_{j} * {x}" for j, x in enumerate(v)) for i in range(rows)
        )

    table = FormulaTable(
        w=w, z=z,
        params=sum(names("F", n, n) + names("Q", m, n) + names("R", m, m), ())
        + tuple(f"G{k}" for k in range(n)),
        terms=tuple(f"t{k} = G{k} * I" for k in range(n)),
        f=tuple(f"({a}) - t{k}" for k, a in enumerate(times("F", w, n))),
        outflow=tuple(f"({a}) + ({b})" for a, b in zip(times("Q", w, m), times("R", z, m))),
    )
    values = sum(F + Q + R, ()) + G
    params = DenseParams(F, G, Q, R, N=SIR_US.N)
    return ModelSpec("dense", table, values, params=params, g_tol=1e-12)
