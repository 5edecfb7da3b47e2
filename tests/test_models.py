"""Model construction, dynamics evaluation and Jacobian correctness."""

import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from episafe import models
from episafe.delay import PredictorConfig, predict_state
from episafe.models import (
    MODELS,
    FormulaTable,
    ModelState,
    SeirParams,
    SirParams,
    build_model,
    steered,
)
from episafe.safety import (
    MULTIPLICATIVE,
    OUTLET,
    SafetyConstraint,
    combined_control,
    extended_barrier_value,
    multiplicative_control,
    outlet_control,
    validate_initial_condition,
)

from conftest import (
    SIHRD_US,
    SIR_US,
    central_difference_jacobian,
    dense_linear_spec,
    outlet_rows,
    sample_sihrd_states,
    sample_sir_states,
)
from oracles import reference_model, reference_solver, rk4_reference


def all_specs():
    return [
        build_model(SIR_US),
        build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2)),
        build_model(SIHRD_US),
    ]


class TestModelState:
    def test_basic_construction(self):
        s = ModelState(w=[30e6, 3e6], z=[0.0], labels=("S", "I", "R"))
        assert s.n == 2 and s.m == 1
        np.testing.assert_array_equal(s.x, [30e6, 3e6, 0.0])

    def test_rejects_negative_population(self):
        with pytest.raises(ValueError, match="negative"):
            ModelState(w=[30e6, -5.0], z=[0.0], labels=("S", "I", "R"))

    def test_allows_integration_drift(self):
        # a hair below zero relative to total population is tolerated
        s = ModelState(w=[30e6, -1e-3], z=[0.0], labels=("S", "I", "R"))
        assert s.w[1] == -1e-3

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            ModelState(w=[1.0, 2.0], z=[3.0], labels=("S", "S", "R"))

    @pytest.mark.parametrize("w, z", [([1.0, 2.0], []), ([], [1.0, 2.0])])
    def test_rejects_an_empty_block(self, w, z):
        message = "^need at least one multiplicative and one outlet compartment$"
        with pytest.raises(ValueError, match=message):
            ModelState(w=w, z=z, labels=("S", "I"))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            ModelState(w=[1.0, 2.0], z=[3.0], labels=("S", "I"))

    def test_equality_and_hash_follow_labels_and_values(self):
        s = ModelState(w=[30e6, 3e6], z=[0.0], labels=("S", "I", "R"))
        same = ModelState(w=np.array([30e6, 3e6]), z=(0.0,), labels=["S", "I", "R"])
        assert s == same and hash(s) == hash(same)
        assert s != ModelState(w=[30e6, 3e6], z=[1.0], labels=("S", "I", "R"))
        assert s != ModelState(w=[30e6, 3e6], z=[0.0], labels=("S", "I", "D"))
        assert s != ModelState(w=[30e6], z=[3e6, 0.0], labels=("S", "I", "R"))
        assert s != (30e6, 3e6, 0.0)

    def test_immutable_arrays(self):
        s = ModelState(w=[1.0, 2.0], z=[3.0], labels=("S", "I", "R"))
        with pytest.raises(ValueError):
            s.w[0] = 9.0

    def test_does_not_alias_writable_input(self):
        w, z = np.array([30e6, 3e6]), np.array([0.0])
        s = ModelState(w=w, z=z, labels=("S", "I", "R"))
        w[0], z[0] = 1.0, 5.0
        np.testing.assert_array_equal(s.x, [30e6, 3e6, 0.0])

    def test_does_not_alias_read_only_view_of_writable_array(self):
        # the view itself refuses writes, but its base does not
        base = np.array([30e6, 3e6, 0.0])
        w, z = base[:2], base[2:]
        w.setflags(write=False)
        z.setflags(write=False)
        s = ModelState(w=w, z=z, labels=("S", "I", "R"))
        base[:] = [1.0, 2.0, 3.0]
        np.testing.assert_array_equal(s.x, [30e6, 3e6, 0.0])


class TestSpecState:
    def test_does_not_alias_caller_array(self, sir_spec):
        values = np.array([30e6, 3e6, 0.0])
        state = sir_spec.state(values)
        values[:] = [1.0, 2.0, 3.0]
        np.testing.assert_array_equal(state.x, [30e6, 3e6, 0.0])

    def test_blocks_are_read_only(self, sir_spec):
        state = sir_spec.state([30e6, 3e6, 0.0])
        assert not state.w.flags.writeable and not state.z.flags.writeable
        with pytest.raises(ValueError):
            state.w[0] = 9.0
        with pytest.raises(ValueError):
            state.z[0] = 9.0

    def test_rejects_negative_population(self, sir_spec):
        with pytest.raises(ValueError, match="negative"):
            sir_spec.state([32.9e6, -5e3, 97998.0])


class TestBuildSir:
    def test_us_fit_parameters_accepted(self):
        spec = build_model(SIR_US)
        assert (spec.n, spec.m) == (2, 1)
        assert spec.labels == ("S", "I", "R")

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError, match="beta0"):
            SirParams(beta0=0.0, gamma=0.2, N=33e6)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            SirParams(beta0=0.33, gamma=-0.1, N=33e6)

    def test_derivative_frozen_value(self):
        # direct hand evaluation: beta0*S*I/N = 0.33*30e6*3e6/33e6 = 900000,
        # gamma*I = 600000
        spec = build_model(SIR_US)
        xdot = spec.derivative_t([30e6, 3e6, 0.0], 0.0)
        np.testing.assert_allclose(xdot, [-900000.0, 300000.0, 600000.0], rtol=1e-12)

    def test_jacobian_rows(self):
        spec = build_model(SIR_US)
        assert spec.dq_dw == ((0.0, 0.2),)
        assert spec.dr_dz == ((0.0,),)


class TestCatalogue:
    def test_builders_use_the_registry(self):
        assert sorted(MODELS) == ["seir", "sihrd", "sir"]
        for spec in all_specs():
            rates, table = MODELS[spec.kind]
            assert table.params == tuple(f.name for f in dataclasses.fields(rates))
            assert isinstance(spec.params, rates) and spec.formulas is table
            assert build_model(spec.params) == spec

    def test_build_model_reads_the_kind_off_the_rate_class(self):
        for kind, (rates, table) in MODELS.items():
            spec = build_model(rates(*[0.3] * len(table.params)))
            assert spec.kind == kind and spec.formulas is table

        @dataclasses.dataclass(frozen=True)
        class LocalSir(SirParams):
            pass

        for other, name in ((object(), "object"), (LocalSir(0.3, 0.1, 1e6), "LocalSir")):
            with pytest.raises(ValueError, match=f"^no catalogue model has rate class {name}$"):
                build_model(other)

    def test_rate_classes_list_their_fields_after_sirs(self):
        # positional construction, repr and equality follow the field order
        seir = SeirParams(0.3, 0.1, 1e6, 0.2)
        assert repr(seir) == "SeirParams(beta0=0.3, gamma=0.1, N=1000000.0, sigma=0.2)"
        assert MODELS["sihrd"][1].params == ("beta0", "gamma", "N", "lam", "nu", "mu")
        assert seir == SeirParams(0.3, 0.1, 1e6, 0.2) != SirParams(0.3, 0.1, 1e6)
        assert SirParams(0.3, 0.1, 1e6) != seir

    @pytest.mark.parametrize("kind", ["sir", "seir", "sihrd"])
    def test_every_rate_must_be_positive_and_finite(self, kind):
        rates, table = MODELS[kind]
        for k, name in enumerate(table.params):
            for bad in (0.0, -1.0, math.nan, math.inf):
                values = [0.1] * len(table.params)
                values[k] = bad
                with pytest.raises(ValueError, match=f"parameter {name} must be strictly"):
                    rates(*values)

    def test_steered_compartments(self):
        acted_on = {kind: steered(table) for kind, (_, table) in MODELS.items()}
        assert acted_on == {
            "sir": ("S", "I", "R"),
            "seir": ("S", "E"),
            "sihrd": ("S", "I", "H", "R", "D"),
        }
        # an outlet fed only by a compartment the input does not reach
        table = MODELS["sir"][1]._replace(f=("-t", "-gamma * I"))
        assert steered(table) == ("S",)


class TestBuildSeir:
    def test_control_vector_has_zero_infectious_row(self):
        # g is the change of the w rows of the derivative from u = 0 to 1
        spec = build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2))
        x = [30e6, 1e6, 3e6, 0.0]
        g = np.subtract(spec.derivative_t(x, 1.0), spec.derivative_t(x, 0.0))[: spec.n]
        np.testing.assert_allclose(g, [900000.0, -900000.0, 0.0], rtol=1e-12)

    def test_disease_free_equilibrium(self):
        # f (at u = 0) and f + g (at u = 1) vanish
        spec = build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2))
        x = [33e6, 0.0, 0.0, 0.0]
        for u in (0.0, 1.0):
            assert np.all(np.asarray(spec.derivative_t(x, u)[: spec.n]) == 0.0)

    def test_exposed_derivative_frozen_value(self):
        # dE/dt = beta0*S*I/N - sigma*E = 900000 - 200000
        spec = build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2))
        xdot = spec.derivative_t([30e6, 1e6, 3e6, 0.0], 0.0)
        assert xdot[1] == pytest.approx(700000.0, rel=1e-12)


class TestBuildSihrd:
    def test_us_fit_parameters_accepted(self):
        spec = build_model(SIHRD_US)
        assert (spec.n, spec.m) == (2, 3)
        assert spec.labels == ("S", "I", "H", "R", "D")

    def test_empty_outlet_inflow(self):
        # the outlet rows q + r vanish with I and H, whatever u
        spec = build_model(SIHRD_US)
        x = [1e6, 0.0, 0.0, 5.0, 5.0]
        for u in (0.0, 1.0):
            assert np.all(np.asarray(spec.derivative_t(x, u)[spec.n :]) == 0.0)

    def test_hospital_derivative_frozen_value(self):
        # dH/dt = lam*I - nu*H = 0.03e6 - 0.014e6
        spec = build_model(SIHRD_US)
        xdot = spec.derivative_t([10e6, 1e6, 1e5, 0.0, 0.0], 0.0)
        assert xdot[2] == pytest.approx(16000.0, rel=1e-12)

    def test_jacobian_structure(self):
        spec = build_model(SIHRD_US)
        assert spec.dq_dw == ((0.0, 0.03), (0.0, 0.14), (0.0, 0.01))
        assert spec.dr_dz == ((-0.14, 0.0, 0.0), (0.14, 0.0, 0.0), (0.0, 0.0, 0.0))


_I_CAP = SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 0.02)
_R_CAP = SafetyConstraint(OUTLET, 0, 2e7, 0.02, alpha_e=0.1)

# every public function that takes a spec and a state, called with the
# constraints valid for an SIR spec
STATE_FUNCTIONS = {
    "predict_state": lambda spec, state: predict_state(
        spec, state, PredictorConfig(1.0, 0.1, constraints=(_I_CAP,))
    ),
    "multiplicative_control": lambda spec, state: multiplicative_control(spec, _I_CAP, state),
    "outlet_control": lambda spec, state: outlet_control(spec, _R_CAP, state),
    "combined_control": lambda spec, state: combined_control(spec, [_I_CAP, _R_CAP], state),
    "combined_control_without_constraints": lambda spec, state: combined_control(
        spec, [], state
    ),
    "extended_barrier_value": lambda spec, state: extended_barrier_value(spec, _R_CAP, state),
    # no outlet constraint, whose extended margin would catch the mismatch
    "validate_initial_condition": lambda spec, state: validate_initial_condition(
        spec, [_I_CAP], state
    ),
}


class TestFlat:
    def test_flat_is_w_then_z(self):
        spec = build_model(SIHRD_US)
        x = spec.flat(spec.state([10e6, 1e6, 1e5, 2e6, 1e4]))
        assert x == [10e6, 1e6, 1e5, 2e6, 1e4]
        assert all(type(v) is float for v in x)

    def test_flat_returns_a_fitting_list_uncopied(self):
        spec = build_model(SIHRD_US)
        x = [10e6, 1e6, 1e5, 2e6, -1e-3]  # a drift-sized negative passes
        assert spec.flat(x) is x

    @pytest.mark.parametrize("values", [[10e6, 1e6, 1e5, 2e6], [10e6, 1e6, 1e5, 2e6, 1e4, 0.0]])
    def test_flat_rejects_a_list_of_another_length(self, values):
        spec = build_model(SIHRD_US)
        message = f"state has {len(values)} entries, model has 5"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spec.flat(values)

    def test_flat_rejects_a_list_under_the_floor_as_state_does(self):
        # the state an overshooting RK4 step leaves (see test_sim)
        spec = build_model(SirParams(beta0=40.0, gamma=0.1, N=1000.0))
        values = [-544.0462618039367, 1522.7801795513326, 21.26608225260417]
        with pytest.raises(ValueError) as want:
            spec.state(values)
        with pytest.raises(ValueError) as got:
            spec.flat(values)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "negative population -544.046 in state (floor -2.08809e-06)"

    @pytest.mark.parametrize("name", sorted(STATE_FUNCTIONS))
    def test_every_state_function_rejects_a_state_of_another_model(self, name):
        # SIHRD shares SIR's two multiplicative compartments: only m differs
        sir, sihrd = build_model(SIR_US), build_model(SIHRD_US)
        state = sihrd.state([10e6, 1e6, 1e5, 2e6, 1e4])
        STATE_FUNCTIONS[name](sir, sir.state([30e6, 1e5, 2.9e6]))
        message = "state dimensions (2, 3) do not match model (2, 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            STATE_FUNCTIONS[name](sir, state)


def blockwise(spec, x, u):
    """dx/dt as [f + g*u; q + r] from the hand-written model of spec."""
    model = reference_model(spec)
    w, z = x[: spec.n], x[spec.n :]
    wdot = np.asarray(model["f_t"](w)) + np.asarray(model["g_t"](w)) * u
    return np.concatenate([wdot, np.asarray(model["q_t"](w)) + np.asarray(model["r_t"](z))])


class TestEvalDynamics:
    """The model dynamics, through the fused derivative_t the integrator
    calls, and the blockwise f, g, q and r of the hand-written models."""

    def test_total_isolation_freezes_susceptibles(self):
        spec = build_model(SIR_US)
        xdot = spec.derivative_t([20e6, 5e6, 8e6], 1.0)
        assert xdot[0] == 0.0
        assert xdot[1] == pytest.approx(-0.2 * 5e6, rel=1e-12)

    def test_dimension_mismatch_raises(self):
        # a state is checked against the model before any evaluator sees it
        sir = build_model(SIR_US)
        state5 = ModelState(w=[1.0, 2.0], z=[3.0, 4.0, 5.0], labels=tuple("abcde"))
        with pytest.raises(ValueError, match="dimensions"):
            sir.flat(state5)

    def test_conservation_sihrd(self):
        spec = build_model(SIHRD_US)
        xdot = spec.derivative_t([10e6, 1e6, 1e5, 2e6, 1e4], 0.0)
        assert abs(sum(xdot)) < 1e-9 * SIHRD_US.N

    @given(
        u=st.floats(0.0, 1.0),
        fracs=st.tuples(*[st.floats(0.0, 1.0) for _ in range(5)]),
    )
    def test_conservation_random(self, u, fracs):
        for spec in all_specs():
            N = spec.params.N
            vals = [f * N for f in fracs[: spec.n + spec.m]]
            assert abs(sum(spec.derivative_t(vals, u))) <= 1e-9 * N
            assert abs(blockwise(spec, vals, u).sum()) <= 1e-9 * N

    @given(fracs=st.tuples(*[st.floats(0.0, 1.0) for _ in range(5)]))
    def test_transmission_cancellation(self, fracs):
        # full isolation removes the transmission term from the S row
        for spec in all_specs():
            N = spec.params.N
            x = (np.array(fracs[: spec.n + spec.m]) * N).tolist()
            assert spec.derivative_t(x, 1.0)[0] == pytest.approx(0.0, abs=1e-9 * N)

    def test_fused_derivative_matches_blockwise(self):
        # the integrator's fused derivative and the blockwise f/g/q/r must agree
        rng = np.random.default_rng(7)
        for spec in all_specs():
            N = spec.params.N
            for _ in range(50):
                vals = rng.uniform(0.0, N, spec.n + spec.m).tolist()
                u = rng.uniform(0.0, 1.0)
                fused = np.asarray(spec.derivative_t(vals, u))
                np.testing.assert_allclose(
                    fused, blockwise(spec, vals, u), rtol=1e-12, atol=1e-12 * N
                )


class TestJacobians:
    @pytest.mark.parametrize("model", ["sir", "seir", "sihrd"])
    def test_analytic_matches_central_differences(self, model):
        spec = {
            "sir": build_model(SIR_US),
            "seir": build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2)),
            "sihrd": build_model(SIHRD_US),
        }[model]
        rng = np.random.default_rng(11)
        N = spec.params.N
        for _ in range(100):
            w = rng.uniform(0.0, N, spec.n)
            z = rng.uniform(0.0, N, spec.m)
            dq = np.asarray(spec.dq_dw)
            dr = np.asarray(spec.dr_dz)
            # the outlet rows of the derivative are q(w) + r(z)
            dq_fd = central_difference_jacobian(lambda v: outlet_rows(spec, v, z), w)
            dr_fd = central_difference_jacobian(lambda v: outlet_rows(spec, w, v), z)
            scale_q = max(1.0, np.abs(dq).max())
            scale_r = max(1.0, np.abs(dr).max())
            assert np.abs(dq_fd - dq).max() / scale_q < 1e-6
            assert np.abs(dr_fd - dr).max() / scale_r < 1e-6


def bits(value):
    """value with every float as its hex string, arrays entry by entry, and
    every container and number tagged with its type."""
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return "ndarray", value.shape, [float(v).hex() for v in value.ravel()]
    return type(value).__name__, float(value).hex()


def step_outcome(step, x, u, dt):
    """bits of step(x, u, dt), or the type and text of the error it raises."""
    try:
        return bits(step(x, u, dt))
    except ArithmeticError as error:
        return type(error).__name__, str(error)


class TestFormulaTables:
    """The derivative and constant Jacobians each builder, and the dense
    linear test model, compile from a formula table, bit for bit against
    the hand-written reference models in oracles."""

    @staticmethod
    def states(spec, seed):
        """Random states, then each compartment in turn NaN and inf, each
        with I random and with I = 0."""
        rng = np.random.default_rng(seed)
        size, i = spec.n + spec.m, spec.labels.index("I")
        N = spec.params.N
        out = [rng.uniform(0.0, N, size).tolist() for _ in range(60)]
        for k in range(size):
            for bad in (math.nan, math.inf):
                for no_infected in (False, True):
                    x = rng.uniform(0.0, N, size).tolist()
                    if no_infected:
                        x[i] = 0.0
                    x[k] = bad
                    out.append(x)
        return out

    @staticmethod
    def spec(model):
        """The catalogue spec of model, or the dense linear test model."""
        if model == "dense":
            return dense_linear_spec(np.random.default_rng(33))
        return {s.kind: s for s in all_specs()}[model]

    @staticmethod
    def assert_fused_step(spec, seed, deriv=None, states=()):
        """spec's fused RK4 step against the oracle stepping deriv (by
        default the compiled derivative): the same bits, or the same
        error.  At the ends of the input's range and in between, with one
        compartment now and then at 0.0 or -0.0, or at a value whose
        products overflow to inf; then at each of states."""
        rng = np.random.default_rng(seed)
        size = spec.n + spec.m
        cases = []
        for k in range(300):
            x = rng.uniform(0.0, spec.params.N / size, size=size).tolist()
            if k % 7 == 0:
                x[k % size] = (0.0, -0.0)[k % 2]
            if k % 5 == 0:
                x[k // 5 % size] = float(rng.uniform(1.0, 1.79)) * 1e308
            cases.append(x)
        reference = functools.partial(rk4_reference, deriv or spec.derivative_t)
        for k, x in enumerate(cases + list(states)):
            u = (0.0, 1.0, float(rng.uniform()))[k % 3]
            dt = float(rng.choice([0.01, 0.1, 0.5]))
            want = step_outcome(reference, x, u, dt)
            assert step_outcome(spec.derivative_t.rk4, x, u, dt) == want, (x, u, dt)

    @pytest.mark.parametrize("model", ["sir", "seir", "sihrd", "dense"])
    def test_scalar_evaluators_match_reference(self, model):
        spec = self.spec(model)
        ref = reference_model(spec)
        for name in ("dq_dw", "dr_dz"):
            assert bits(getattr(spec, name)) == bits(ref[name]), name
        for x in self.states(spec, 31):
            for u in (0.0, 0.3, 1.0):
                got, want = spec.derivative_t(x, u), ref["derivative_t"](x, u)
                assert bits(got) == bits(want), (x, u)

    @pytest.mark.parametrize("model", ["sir", "seir", "sihrd", "dense"])
    def test_column_evaluators_match_reference(self, model):
        # the margin series evaluate whole state columns, one entry per sample
        spec = self.spec(model)
        ref = reference_model(spec)
        columns = list(np.array(self.states(spec, 32)).T)
        with np.errstate(invalid="ignore"):  # the NaN and inf rows
            for u in (0.0, 0.3, 1.0):
                got, want = spec.derivative_t(columns, u), ref["derivative_t"](columns, u)
                assert bits(got) == bits(want), u

    def test_compiled_once_per_table(self):
        a = build_model(SIR_US)
        b = build_model(SirParams(beta0=0.4, gamma=0.1, N=1e6))
        assert a.derivative_t.__code__ is b.derivative_t.__code__
        # each spec binds its own values
        assert a.derivative_t([5e5, 1e4, 0.0], 0.0) != b.derivative_t([5e5, 1e4, 0.0], 0.0)
        assert b.dq_dw == ((0.0, 0.1),)

    def test_spec_follows_its_table(self, sihrd_spec):
        assert sihrd_spec.labels == sihrd_spec.formulas.w + sihrd_spec.formulas.z
        assert (sihrd_spec.n, sihrd_spec.m) == (2, 3)
        with pytest.raises(ValueError, match="parameter values"):
            dataclasses.replace(sihrd_spec, values=sihrd_spec.values[:-1])

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(outflow=("gamma * I", "0.0")), "do not match"),
            (dict(f=("-t",)), "do not match"),
            (dict(w=("S", "u")), "names"),
            (dict(params=("beta0", "gamma", "S")), "names"),
        ],
    )
    def test_table_checks_sizes_and_names(self, sir_spec, change, message):
        table = sir_spec.formulas._replace(**change)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(sir_spec, formulas=table)

    def test_table_without_jacobians(self):
        # SEIR split with I as an outlet of the incubation stage: the table
        # writes no Jacobians, the spec reads them off the outflow rows
        seir = build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.25))
        table = FormulaTable(
            w=("S", "E"), z=("I", "R"), params=("beta0", "gamma", "N", "sigma"),
            terms=("t = beta0 * S * I / N",),
            f=("-t", "t - sigma * E"),
            outflow=("sigma * E - gamma * I", "gamma * I"),
        )
        split = dataclasses.replace(seir, formulas=table)
        assert bits(split.dq_dw) == bits(((0.0, 0.25), (0.0, 0.0)))
        assert bits(split.dr_dz) == bits(((-0.2, 0.0), (0.2, 0.0)))
        assert steered(table) == ("S", "E", "I")
        x = [30e6, 1e6, 3e6, 0.0]
        for u in (0.0, 0.3, 1.0):
            assert bits(split.derivative_t(x, u)) == bits(seir.derivative_t(x, u))
        # the fused step, whose term reads I, a z compartment
        self.assert_fused_step(split, 41)

    @pytest.mark.parametrize("model", ["sir", "seir", "sihrd", "dense"])
    def test_fused_step_of_each_table(self, model):
        # S = -0.0 among the states: the S row -t is stored unnegated, and
        # its sum of slopes still gives the sign of a zero that the plain
        # sum gives
        self.assert_fused_step(self.spec(model), 45)

    # each trim of the fused step, on the rows f + outflow: the products it
    # computes once per stage, innermost first, and the rows that read
    # them; a row -name is stored unnegated at stages a, b and d.  The last
    # table shares a division, which stays inline: at S = -k with I ** 2.0
    # overflowing, the I row raises OverflowError before any division by
    # S + k = 0 would raise ZeroDivisionError.
    @pytest.mark.parametrize(
        "w, z, f, outflow, products, rows, states",
        [
            (("S", "I"), ("R",), ("gamma * R - t", "t - gamma * I"),
             ("gamma * I - gamma * R",),
             ["p0 = gamma * R", "p1 = gamma * I"], ["p0 - t", "t - p1", "p1 - p0"], []),
            (("S", "I"), ("H", "R"), ("-t", "t - (gamma * I + k * H) * 2.0"),
             ("(gamma * I + k * H) * 2.0 - k * H", "k * H"),
             ["p0 = gamma * I", "p1 = k * H", "p2 = p0 + p1", "p3 = p2 * 2.0"],
             ["-t", "t - p3", "p3 - p1", "p1"], []),
            (("S", "I"), ("R",), ("-S", "t - gamma * I"), ("gamma * I + S",),
             ["p0 = gamma * I"], ["-S", "t - p0", "p0 + S"], []),
            (("S", "I"), ("R",), ("-t", "t - gamma * I ** 2.0 / N - I / (S + k)"),
             ("gamma * I ** 2.0 / N + I / (S + k)",),
             ["p0 = S + k"], ["-t", "t - gamma * I ** 2.0 / N - I / p0", "gamma * I ** 2.0 / N + I / p0"],
             [[-0.05, 1e200, 0.0], [-0.05, 1e5, 0.0]]),
        ],
        ids=["term-row", "nested", "negated-state", "shared-division"],
    )
    def test_trims_keep_the_bits(self, sir_spec, w, z, f, outflow, products, rows, states):
        assert models._trimmed(list(f + outflow)) == (products, rows)
        table = FormulaTable(
            w=w, z=z, params=("beta0", "gamma", "N", "k"),
            terms=("t = beta0 * S * I / N",), f=f, outflow=outflow,
        )
        spec = dataclasses.replace(sir_spec, formulas=table, values=(*sir_spec.values, 0.05))
        self.assert_fused_step(spec, 44, states=states)

    def test_fused_step_sets_only_the_names_it_reads(self):
        # a stage value of a compartment that no term or row reads is not
        # stored: SIR's R, and SIHRD's R and D
        sir, sihrd = (set(build_model(p).derivative_t.rk4.__code__.co_varnames)
                      for p in (SIR_US, SIHRD_US))
        assert "m_R" not in sir and {"m_S", "m_I", "free"} <= sir
        assert sihrd.isdisjoint({"m_R", "m_D"}) and {"m_S", "m_I", "m_H", "free"} <= sihrd

    def test_generated_code_keeps_its_own_names(self):
        # compartment, parameter and term names that are also names of the
        # generated derivative, fused step or law still mean the table's
        # values; the second table takes the fused step's own local names,
        # with x0 not at index 0
        tables = (
            FormulaTable(
                w=("x", "w"), z=("z",), params=("values", "jq"),
                terms=("f0 = values * x * w",),
                f=("-f0", "f0 - jq * w"),
                outflow=("jq * w",),
            ),
            FormulaTable(
                w=("free", "x0"), z=("s",), params=("a0", "half"),
                terms=("x1 = a0 * free * x0",),
                f=("-x1", "x1 - half * x0"),
                outflow=("half * x0",),
            ),
        )
        spec = build_model(SirParams(beta0=0.5, gamma=0.25, N=1.0))
        ref = reference_model(spec)
        x = [0.75, 0.125, 0.5]
        cons = (
            SafetyConstraint(MULTIPLICATIVE, 1, 0.15, 0.5),
            SafetyConstraint(OUTLET, 0, 0.75, 0.5, alpha_e=0.25),
        )
        for table in tables:
            renamed = dataclasses.replace(spec, formulas=table, values=(0.5, 0.25))
            assert renamed.derivative_t(x, 0.3) == ref["derivative_t"](x, 0.3)
            assert renamed.dq_dw == ref["dq_dw"]
            self.assert_fused_step(renamed, 43, ref["derivative_t"])
            # the law of the renamed spec, against the hand-written SIR model
            got = combined_control(renamed, cons, x)
            want = reference_solver(renamed, cons)(x[:2], x[2:])
            assert (got.u_raw, got.active_constraint, got.feasible) == want
            assert got.u_raw > 0.0


    @pytest.mark.parametrize("model", ["sir", "seir", "sihrd", (3, 4), (2, 1), (4, 3)], ids=str)
    def test_g_is_read_off_f(self, model):
        # the strings the tables wrote by hand before g was derived, and
        # their values the change of the plant's w rows from u = 0 to 1
        if isinstance(model, tuple):
            spec = dense_linear_spec(np.random.default_rng(5), *model)
            want = tuple(f"t{k}" for k in range(model[0]))
        else:
            spec = self.spec(model)
            want = ("t", "-t", "0.0") if model == "seir" else ("t", "-t")
        table = spec.formulas
        assert table.g == want
        for x in self.states(spec, 7)[:20]:
            scope = dict(zip(table.params, spec.values)) | dict(zip(spec.labels, x))
            for line in table.constants + table.terms:
                exec(line, scope)
            step = np.subtract(spec.derivative_t(x, 1.0), spec.derivative_t(x, 0.0))
            np.testing.assert_allclose([eval(e, scope) for e in table.g], step[: spec.n], rtol=1e-9)

    # not affine; a coefficient that reads the state, a parameter, the
    # population; an infinite coefficient
    @pytest.mark.parametrize("row", ["-t * t", "-t * S", "-beta0 * t", "-t / N", "-t * 1e308 * 10"])
    def test_f_not_affine_in_a_term_is_refused(self, sir_spec, row):
        table = sir_spec.formulas._replace(f=("-t", row))
        message = f"^formula table row f\\[1\\] = {re.escape(repr(row))} is not affine in t$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(sir_spec, formulas=table)

    def test_table_without_terms_has_no_authority(self, sir_spec):
        table = sir_spec.formulas._replace(
            terms=(), f=("-beta0 * S * I / N", "beta0 * S * I / N - gamma * I")
        )
        assert table.g == ("0.0", "0.0")
        assert steered(table) == ()
        spec = dataclasses.replace(sir_spec, formulas=table)
        x = [26e6, 1.9e5, 6.9e6]
        assert bits(spec.derivative_t(x, 1.0)) == bits(sir_spec.derivative_t(x, 0.0))
        assert "free" not in spec.derivative_t.rk4.__code__.co_varnames
        self.assert_fused_step(spec, 42)

    def test_scaled_term(self, sir_spec):
        # f = 2.0 * t: the plant scales t by 1 - u, and the law's authority
        # is that of SIR at twice beta0
        table = sir_spec.formulas._replace(f=("-2.0 * t", "2.0 * t - gamma * I"))
        assert table.g == ("2.0 * t", "-2.0 * t")
        spec = dataclasses.replace(sir_spec, formulas=table)
        p = SIR_US
        for x in ([26e6, 1.9e5, 6.9e6], [30e6, 1e6, 2e6]):
            for u in (0.0, 0.3, 1.0):
                t = (p.beta0 * x[0] * x[1] / p.N) * (1.0 - u)
                want = [-2.0 * t, 2.0 * t - p.gamma * x[1], p.gamma * x[1]]
                assert bits(spec.derivative_t(x, u)) == bits(want)
            doubled = build_model(dataclasses.replace(p, beta0=2.0 * p.beta0))
            cons = (SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 0.02),)
            got = combined_control(spec, cons, x)
            want_raw, active, feasible = reference_solver(doubled, cons)(x[:2], x[2:])
            assert (got.active_constraint, got.feasible) == (active, feasible)
            assert got.u_raw == pytest.approx(want_raw, rel=1e-9)
            assert got.u_raw > 0.0

def test_sampler_helpers_produce_valid_states(sir_spec, sihrd_spec):
    for s in sample_sir_states(sir_spec, 5, seed=1):
        assert s.n == 2 and s.m == 1
    for s in sample_sihrd_states(sihrd_spec, 5, seed=1):
        assert s.n == 2 and s.m == 3
