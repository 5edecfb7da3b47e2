"""engine.rk4_flat: the generated per-length kernel against the elementwise
RK4 it replaced."""

from operator import mul

import numpy as np
import pytest

from episafe.engine import rk4_flat
from episafe.models import SeirParams, build_seir, build_sihrd, build_sir

from conftest import SIHRD_US, SIR_US
from oracles import rk4_reference


def bits(values):
    return [float(v).hex() for v in values]


def counted(deriv):
    calls = []

    def wrapped(x, u):
        calls.append(u)
        return deriv(x, u)

    return wrapped, calls


def assert_step_matches(deriv, x, u, dt):
    before = list(x)
    counting, calls = counted(deriv)
    got = rk4_flat(counting, x, u, dt)
    assert len(calls) == 4
    assert list(x) == before
    assert bits(got) == bits(rk4_reference(deriv, x, u, dt)), (x, u, dt)


@pytest.mark.parametrize("n", range(1, 7))
def test_linear_deriv_bit_equal(n):
    rng = np.random.default_rng(700 + n)
    A = rng.normal(size=(n, n)).tolist()
    B = rng.normal(size=n).tolist()

    def deriv(x, u):
        return [sum(map(mul, row, x)) + b * u for row, b in zip(A, B)]

    for _ in range(300):
        x = rng.normal(scale=1e3, size=n).tolist()
        assert_step_matches(deriv, x, float(rng.uniform()), float(rng.uniform(1e-3, 1.0)))


@pytest.mark.parametrize(
    "spec",
    [
        build_sir(SIR_US),
        build_seir(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2)),
        build_sihrd(SIHRD_US),
    ],
    ids=lambda s: s.kind,
)
def test_model_derivative_bit_equal(spec):
    rng = np.random.default_rng(710 + spec.n + spec.m)
    N = spec.params.N
    for k in range(2000):
        x = rng.uniform(0.0, N / (spec.n + spec.m), size=spec.n + spec.m).tolist()
        if k % 7 == 0:
            x[spec.labels.index("I")] = 0.0
        dt = float(rng.choice([0.01, 0.05, 0.1, 0.25, 0.5]))
        assert_step_matches(spec.derivative_t, x, float(rng.uniform()), dt)


def test_tuple_state_accepted():
    spec = build_sir(SIR_US)
    x = (30e6, 1e5, 2e6)
    assert bits(rk4_flat(spec.derivative_t, x, 0.25, 0.1)) == bits(
        rk4_reference(spec.derivative_t, x, 0.25, 0.1)
    )
