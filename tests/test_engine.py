"""engine.rk4_flat: the generated per-length kernel and each formula
table's fused step against the elementwise RK4 they replaced;
make_input_fn's law, the same at every step, and closed_loop_rollout's
replay of the commands sent."""

from operator import mul

import numpy as np
import pytest

from episafe.engine import closed_loop_rollout, make_input_fn, rk4_flat
from episafe.models import MODELS, SeirParams, build_model
from episafe.safety import MULTIPLICATIVE, SafetyConstraint

from conftest import SIHRD_US, SIR_US, dense_linear_spec
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
        build_model(SIR_US),
        build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2)),
        build_model(SIHRD_US),
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


# every catalogue model (a model without rates here fails the collection),
# and dense linear models whose every Jacobian entry shows in the bits
RATES = {
    "sir": SIR_US,
    "seir": SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2),
    "sihrd": SIHRD_US,
}
FUSED_SPECS = [build_model(RATES[kind]) for kind in MODELS] + [
    dense_linear_spec(np.random.default_rng(720 + n), n, m) for n, m in ((3, 4), (2, 1), (4, 3))
]


@pytest.mark.parametrize(
    "spec", FUSED_SPECS, ids=lambda s: f"{s.kind}-{s.n}x{s.m}"
)
def test_fused_step_bit_equal(spec):
    # the fused step, and rk4_flat given the compiled derivative, against
    # the oracle stepping that derivative: on lists, tuples and np.float64
    # entries, at I = 0 and at the ends of the input's range
    rng = np.random.default_rng(730 + spec.n + spec.m)
    deriv = spec.derivative_t
    width = spec.n + spec.m
    for k in range(2000):
        x = rng.uniform(0.0, spec.params.N / width, size=width).tolist()
        if k % 7 == 0:
            x[spec.labels.index("I")] = 0.0
        if k % 5 == 1:
            x = tuple(x)
        elif k % 5 == 2:
            x = list(map(np.float64, x))
        u = (0.0, 1.0, float(rng.uniform()))[k % 3]
        dt = float(rng.choice([0.01, 0.05, 0.1, 0.25, 0.5]))
        want = bits(rk4_reference(deriv, x, u, dt))
        assert bits(deriv.rk4(x, u, dt)) == want, (x, u, dt)
        assert bits(rk4_flat(deriv, x, u, dt)) == want, (x, u, dt)


def test_fused_step_replaces_the_calls():
    calls = []

    def deriv(x, u):
        calls.append(u)
        return [0.0] * len(x)

    deriv.rk4 = lambda x, u, dt: ("fused", x, u, dt)
    assert rk4_flat(deriv, [1.0, 2.0], 0.5, 0.1) == ("fused", [1.0, 2.0], 0.5, 0.1)
    assert calls == []


def test_tuple_state_accepted():
    spec = build_model(SIR_US)
    x = (30e6, 1e5, 2e6)
    assert bits(rk4_flat(spec.derivative_t, x, 0.25, 0.1)) == bits(
        rk4_reference(spec.derivative_t, x, 0.25, 0.1)
    )


I_CAP = SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 0.02, name="I")


def test_input_fn_same_at_every_step():
    spec = build_model(SIR_US)
    x = [26e6, 1e5, 6.9e6]
    law = make_input_fn(spec, (I_CAP,))
    assert law(0, x) > 0.0
    assert law(5, x) == law(0, x) == law(-3, x)
    rest = make_input_fn(spec, ())
    assert rest(0, x) == rest(5, x) == rest(-3, x) == 0.0


def test_rollout_numbers_steps_from_k0():
    # step j replays commands[k0 + j]: the same bits as stepping by hand
    spec = build_model(SIR_US)
    x0 = [26e6, 1e5, 6.9e6]
    commands = np.random.default_rng(35).uniform(0.0, 1.0, 12).tolist()
    x = x0
    for u in commands[7:11]:
        x = rk4_flat(spec.derivative_t, x, u, 0.1)
    assert bits(closed_loop_rollout(spec, x0, 7, 4, 0.1, commands)) == bits(x)
    assert x0 == [26e6, 1e5, 6.9e6]
    # no step: an equal list of its own
    got = closed_loop_rollout(spec, x0, 7, 0, 0.1, commands)
    assert got == x0 and got is not x0
    # a step with no command is refused
    with pytest.raises(IndexError, match="^no command for step 12$"):
        closed_loop_rollout(spec, x0, 10, 4, 0.1, commands)
