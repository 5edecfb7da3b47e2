"""Model construction, dynamics evaluation and Jacobian correctness."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from episafe.models import (
    ModelState,
    SeirParams,
    SirParams,
    build_seir,
    build_sihrd,
    build_sir,
    eval_dynamics,
    eval_jacobians,
)

from conftest import (
    SIHRD_US,
    SIR_US,
    central_difference_jacobian,
    sample_sihrd_states,
    sample_sir_states,
)


def all_specs():
    return [
        build_sir(SIR_US),
        build_seir(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2)),
        build_sihrd(SIHRD_US),
    ]


class TestModelState:
    def test_basic_construction(self):
        s = ModelState(w=[30e6, 3e6], z=[0.0], labels=("S", "I", "R"))
        assert s.n == 2 and s.m == 1
        assert s.value("I") == 3e6
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

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            ModelState(w=[1.0, 2.0], z=[3.0], labels=("S", "I"))

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
        spec = build_sir(SIR_US)
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
        spec = build_sir(SIR_US)
        state = spec.state([30e6, 3e6, 0.0])
        wdot, zdot = eval_dynamics(spec, state, u=0.0)
        np.testing.assert_allclose(wdot, [-900000.0, 300000.0], rtol=1e-12)
        np.testing.assert_allclose(zdot, [600000.0], rtol=1e-12)

    def test_jacobian_rows(self):
        spec = build_sir(SIR_US)
        state = spec.state([30e6, 3e6, 0.0])
        dq, dr = eval_jacobians(spec, state)
        np.testing.assert_array_equal(dq, [[0.0, 0.2]])
        np.testing.assert_array_equal(dr, [[0.0]])


class TestBuildSeir:
    def test_control_vector_has_zero_infectious_row(self):
        spec = build_seir(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2))
        g = spec.g_t([30e6, 1e6, 3e6])
        np.testing.assert_allclose(g, [900000.0, -900000.0, 0.0], rtol=1e-12)

    def test_disease_free_equilibrium(self):
        spec = build_seir(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2))
        w = [33e6, 0.0, 0.0]
        assert np.all(np.asarray(spec.f_t(w)) == 0.0)
        assert np.all(np.asarray(spec.g_t(w)) == 0.0)

    def test_exposed_derivative_frozen_value(self):
        # dE/dt = beta0*S*I/N - sigma*E = 900000 - 200000
        spec = build_seir(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2))
        state = spec.state([30e6, 1e6, 3e6, 0.0])
        wdot, _ = eval_dynamics(spec, state, u=0.0)
        assert wdot[1] == pytest.approx(700000.0, rel=1e-12)


class TestBuildSihrd:
    def test_us_fit_parameters_accepted(self):
        spec = build_sihrd(SIHRD_US)
        assert (spec.n, spec.m) == (2, 3)
        assert spec.labels == ("S", "I", "H", "R", "D")

    def test_empty_outlet_inflow(self):
        spec = build_sihrd(SIHRD_US)
        assert np.all(np.asarray(spec.q_t([1e6, 0.0])) == 0.0)
        assert np.all(np.asarray(spec.r_t([0.0, 5.0, 5.0])) == 0.0)

    def test_hospital_derivative_frozen_value(self):
        # dH/dt = lam*I - nu*H = 0.03e6 - 0.014e6
        spec = build_sihrd(SIHRD_US)
        state = spec.state([10e6, 1e6, 1e5, 0.0, 0.0])
        _, zdot = eval_dynamics(spec, state, u=0.0)
        assert zdot[0] == pytest.approx(16000.0, rel=1e-12)

    def test_jacobian_structure(self):
        spec = build_sihrd(SIHRD_US)
        state = spec.state([10e6, 1e6, 1e5, 0.0, 0.0])
        dq, dr = eval_jacobians(spec, state)
        np.testing.assert_array_equal(dq, [[0.0, 0.03], [0.0, 0.14], [0.0, 0.01]])
        np.testing.assert_array_equal(
            dr, [[-0.14, 0.0, 0.0], [0.14, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )


class TestEvalDynamics:
    def test_total_isolation_freezes_susceptibles(self):
        spec = build_sir(SIR_US)
        state = spec.state([20e6, 5e6, 8e6])
        wdot, _ = eval_dynamics(spec, state, u=1.0)
        assert wdot[0] == 0.0
        assert wdot[1] == pytest.approx(-0.2 * 5e6, rel=1e-12)

    def test_dimension_mismatch_raises(self):
        sir = build_sir(SIR_US)
        state5 = ModelState(w=[1.0, 2.0], z=[3.0, 4.0, 5.0], labels=tuple("abcde"))
        with pytest.raises(ValueError, match="dimensions"):
            eval_dynamics(sir, state5, u=0.0)

    def test_conservation_sihrd(self):
        spec = build_sihrd(SIHRD_US)
        state = spec.state([10e6, 1e6, 1e5, 2e6, 1e4])
        wdot, zdot = eval_dynamics(spec, state, u=0.0)
        assert abs(wdot.sum() + zdot.sum()) < 1e-9 * SIHRD_US.N

    @given(
        u=st.floats(0.0, 1.0),
        fracs=st.tuples(*[st.floats(0.0, 1.0) for _ in range(5)]),
    )
    def test_conservation_random(self, u, fracs):
        for spec in all_specs():
            N = spec.params.N
            vals = [f * N for f in fracs[: spec.n + spec.m]]
            state = spec.state(vals)
            wdot, zdot = eval_dynamics(spec, state, u)
            assert abs(wdot.sum() + zdot.sum()) <= 1e-9 * N

    @given(fracs=st.tuples(*[st.floats(0.0, 1.0) for _ in range(5)]))
    def test_transmission_cancellation(self, fracs):
        # full isolation removes the transmission term from the S row
        for spec in all_specs():
            N = spec.params.N
            w = np.array(fracs[: spec.n]) * N
            assert spec.f_t(w)[0] + spec.g_t(w)[0] * 1.0 == pytest.approx(0.0, abs=1e-9 * N)

    def test_fused_derivative_matches_blockwise(self):
        # the integrator's fused evaluator and the blockwise f/g/q/r must agree
        rng = np.random.default_rng(7)
        for spec in all_specs():
            N = spec.params.N
            for _ in range(50):
                vals = rng.uniform(0.0, N, spec.n + spec.m)
                u = rng.uniform(0.0, 1.0)
                state = spec.state(vals)
                wdot, zdot = eval_dynamics(spec, state, u)
                fused = np.asarray(spec.derivative_t(list(vals), u))
                np.testing.assert_allclose(
                    fused, np.concatenate([wdot, zdot]), rtol=1e-12, atol=1e-12 * N
                )


class TestJacobians:
    @pytest.mark.parametrize("model", ["sir", "seir", "sihrd"])
    def test_analytic_matches_central_differences(self, model):
        spec = {
            "sir": build_sir(SIR_US),
            "seir": build_seir(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2)),
            "sihrd": build_sihrd(SIHRD_US),
        }[model]
        rng = np.random.default_rng(11)
        N = spec.params.N
        for _ in range(100):
            w = rng.uniform(0.0, N, spec.n)
            z = rng.uniform(0.0, N, spec.m)
            dq = np.asarray(spec.dq_dw_t(w))
            dr = np.asarray(spec.dr_dz_t(z))
            dq_fd = central_difference_jacobian(spec.q_t, w)
            dr_fd = central_difference_jacobian(spec.r_t, z)
            scale_q = max(1.0, np.abs(dq).max())
            scale_r = max(1.0, np.abs(dr).max())
            assert np.abs(dq_fd - dq).max() / scale_q < 1e-6
            assert np.abs(dr_fd - dr).max() / scale_r < 1e-6


def test_sampler_helpers_produce_valid_states(sir_spec, sihrd_spec):
    for s in sample_sir_states(sir_spec, 5, seed=1):
        assert s.n == 2 and s.m == 1
    for s in sample_sihrd_states(sihrd_spec, 5, seed=1):
        assert s.n == 2 and s.m == 3
