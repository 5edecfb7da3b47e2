"""Forecast feedback, prediction-error bookkeeping, robustness margins."""

import numpy as np
import pytest

from episafe.delay import (
    IssfBound,
    PredictorConfig,
    estimate_lipschitz,
    input_disturbance,
    issf_inflated_barrier,
    predict_state,
    prediction_error,
)
from episafe.safety import (
    MULTIPLICATIVE,
    SafetyConstraint,
    multiplicative_control,
    qp_oracle,
)
from episafe.sim import Scenario, simulate

from conftest import SIR_US

I_CON = SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 0.02, name="I")


class TestPredictorConfig:
    def test_rejects_misaligned_tau(self):
        with pytest.raises(ValueError, match="multiple"):
            PredictorConfig(tau=1.05, dt_pred=0.1)

    def test_zero_tau_ok(self):
        assert PredictorConfig(tau=0.0, dt_pred=0.1).n_steps == 0


class TestPredictState:
    def test_zero_delay_identity(self, sir_spec):
        state = sir_spec.state([30e6, 1e5, 2.9e6])
        cfg = PredictorConfig(tau=0.0, dt_pred=0.1)
        assert predict_state(sir_spec, state, cfg) is state

    def test_reduces_to_open_loop_without_constraints(self, sir_spec):
        # no constraints -> u = 0 throughout the forecast
        from episafe.sim import rk4_step

        state = sir_spec.state([30e6, 1e5, 2.9e6])
        cfg = PredictorConfig(tau=2.0, dt_pred=0.1)
        pred = predict_state(sir_spec, state, cfg)
        ref = state
        for _ in range(20):
            ref = rk4_step(sir_spec, ref, 0.0, 0.1)
        np.testing.assert_allclose(pred.x, ref.x, rtol=1e-12)

    def test_tracks_closed_loop_exactly(self, sir_spec):
        # ground truth: instantaneous-feedback run; forecasting from the
        # state tau earlier must land on the same trajectory
        sc = Scenario(
            spec=sir_spec,
            state0=sir_spec.state([26e6, 1e5, 6.9e6]),
            t_start=0.0, t_end=40.0, dt=0.1,
            constraints=(I_CON,),
        )
        traj = simulate(sc)
        cfg = PredictorConfig(tau=11.0, dt_pred=0.1, constraints=(I_CON,))
        k_meas = 150  # t = 15
        measured = traj.state_at(k_meas)
        pred = predict_state(sir_spec, measured, cfg, t_measured=15.0)
        actual = traj.state_at(k_meas + 110)
        assert prediction_error(pred, actual) <= 1e-5 * SIR_US.N

    def test_semigroup_composition(self, sir_spec):
        state = sir_spec.state([26e6, 1e5, 6.9e6])
        full = predict_state(
            sir_spec, state, PredictorConfig(8.0, 0.1, constraints=(I_CON,))
        )
        half_cfg = PredictorConfig(4.0, 0.1, constraints=(I_CON,))
        mid = predict_state(sir_spec, state, half_cfg, t_measured=0.0)
        two = predict_state(sir_spec, mid, half_cfg, t_measured=4.0)
        assert prediction_error(two, full) <= 1e-5 * SIR_US.N

    def test_singular_start_rests_like_oracle(self, sir_spec):
        # no infected: no authority, and the oracle's answer is u = 0, so
        # the forecast is the open loop, which stays put
        state = sir_spec.state([33e6, 0.0, 0.0])
        assert qp_oracle(sir_spec, [I_CON], state) == 0.0
        cfg = PredictorConfig(tau=1.0, dt_pred=0.1, constraints=(I_CON,))
        pred = predict_state(sir_spec, state, cfg, t_measured=5.0)
        np.testing.assert_array_equal(pred.x, state.x)


class TestPredictionError:
    def test_identical_states(self, sir_spec):
        s = sir_spec.state([1e6, 1e3, 0.0])
        assert prediction_error(s, s) == 0.0

    def test_single_offset(self, sir_spec):
        a = sir_spec.state([1e6, 1e3, 0.0])
        b = sir_spec.state([1e6 + 100.0, 1e3, 0.0])
        assert prediction_error(b, a) == 100.0

    def test_delayed_baseline_much_worse_than_forecast(self, sir_spec):
        # growing infection: the stale measurement lags far behind, while the
        # model-based forecast stays on the trajectory
        sc = Scenario(
            spec=sir_spec,
            state0=sir_spec.state([32.9e6, 2000.0, 97998.0]),
            t_start=0.0, t_end=40.0, dt=0.1,
        )
        traj = simulate(sc)  # open-loop growth segment
        cfg = PredictorConfig(tau=10.0, dt_pred=0.1)  # open loop, no controller
        k = 200  # t = 20, measurement at t = 10
        measured = traj.state_at(k - 100)
        actual = traj.state_at(k)
        pred = predict_state(sir_spec, measured, cfg, t_measured=10.0)
        err_forecast = prediction_error(pred, actual)
        err_stale = prediction_error(measured, actual)
        assert err_stale > 10.0 * max(err_forecast, 1e-9)


class TestInputDisturbance:
    def controller(self, spec):
        return lambda st: multiplicative_control(spec, I_CON, st).u_raw

    def test_zero_for_identical_states(self, sir_spec):
        s = sir_spec.state([26e6, 1.5e5, 6.85e6])
        assert input_disturbance(self.controller(sir_spec), s, s) == 0.0

    def test_zero_when_inactive_on_both_sides(self, sir_spec):
        a = sir_spec.state([26e6, 1000.0, 0.0])
        b = sir_spec.state([26e6, 1100.0, 0.0])
        assert input_disturbance(self.controller(sir_spec), a, b) == 0.0

    def test_straddling_the_activation_kink(self, sir_spec):
        # one state active, one inactive: the difference is exactly the
        # active-side law value, recomputed here longhand
        active = sir_spec.state([26e6, 1.9e5, 6.81e6])
        inactive = sir_spec.state([26e6, 1000.0, 0.0])
        d = input_disturbance(self.controller(sir_spec), active, inactive)
        S, I = 26e6, 1.9e5
        transmission = 0.33 * S * I / 33e6
        expected = 1.0 - (0.02 * (2e5 - I) + 0.2 * I) / transmission
        assert d == pytest.approx(expected, rel=1e-12)


class TestEstimateLipschitz:
    def test_constant_controller_is_zero(self, sir_spec):
        est = estimate_lipschitz(
            sir_spec, lambda st: 0.42,
            lower=[1e6, 1e4, 0.0], upper=[2e6, 2e4, 10.0], samples=50,
        )
        assert est == 0.0

    def test_requires_two_samples(self, sir_spec):
        with pytest.raises(ValueError, match="two samples"):
            estimate_lipschitz(
                sir_spec, lambda st: 0.0, [0, 0, 0], [1, 1, 1], samples=1
            )

    def test_matches_analytic_slope_near_fixed_susceptibles(self, sir_spec):
        # active region, S pinned at N: the law is smooth in I there and
        # d(law)/dI = alpha*C / ((beta0*S/N) * I^2)
        N = SIR_US.N
        i_mid = 1e5
        lower = [N - 1000.0, 0.99 * i_mid, 0.0]
        upper = [N, 1.01 * i_mid, 10.0]
        controller = lambda st: multiplicative_control(sir_spec, I_CON, st).u_raw
        est = estimate_lipschitz(sir_spec, controller, lower, upper, samples=300, seed=3)
        slope = 0.02 * 2e5 / (0.33 * i_mid**2)
        assert est == pytest.approx(slope, rel=0.05)

    def test_sampled_estimate_grows_with_sample_set(self, sir_spec):
        # same seed: the smaller draw is a prefix of the larger, so the max
        # over its pairs cannot exceed the larger one
        controller = lambda st: multiplicative_control(sir_spec, I_CON, st).u_raw
        N = SIR_US.N
        args = (sir_spec, controller, [0.8 * N, 5e4, 0.0], [N, 1.8e5, 10.0])
        small = estimate_lipschitz(*args, samples=60, seed=9)
        large = estimate_lipschitz(*args, samples=240, seed=9)
        assert 0.0 < small <= large


class TestIssfBound:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IssfBound(delta=-0.1)

    def test_derived_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            IssfBound(delta=0.5, epsilon=100.0, lipschitz_c=1e-6)

    def test_from_prediction_error(self):
        b = IssfBound.from_prediction_error(epsilon=1000.0, lipschitz_c=1e-5)
        assert b.delta == pytest.approx(0.01)


class TestInflatedBarrier:
    def test_zero_delta_recovers_plain_margin(self, sir_spec):
        state = sir_spec.state([32.9e6, 1e5, 0.0])
        hd = issf_inflated_barrier(sir_spec, I_CON, state, IssfBound(0.0))
        assert hd == 1e5

    def test_frozen_value(self, sir_spec):
        # by hand: 1e5 + (0.1/0.02) * (0.33*32.9e6*1e5/33e6) = 1e5 + 5*32900
        state = sir_spec.state([32.9e6, 1e5, 0.0])
        hd = issf_inflated_barrier(sir_spec, I_CON, state, IssfBound(0.1))
        assert hd == pytest.approx(264500.0, rel=1e-12)

    def test_never_below_plain_margin(self, sir_spec):
        rng = np.random.default_rng(5)
        for _ in range(100):
            state = sir_spec.state(rng.uniform(0, 33e6, 3))
            from episafe.safety import barrier_value

            hd = issf_inflated_barrier(sir_spec, I_CON, state, IssfBound(0.05))
            assert hd >= barrier_value(I_CON, state)

    def test_doubling_delta_doubles_inflation(self, sir_spec):
        state = sir_spec.state([30e6, 1.5e5, 2.85e6])
        from episafe.safety import barrier_value

        h = barrier_value(I_CON, state)
        d1 = issf_inflated_barrier(sir_spec, I_CON, state, IssfBound(0.04)) - h
        d2 = issf_inflated_barrier(sir_spec, I_CON, state, IssfBound(0.08)) - h
        assert d2 == pytest.approx(2.0 * d1, rel=1e-12)

    def test_rejects_outlet_constraints(self, sihrd_spec):
        from episafe.safety import OUTLET

        c = SafetyConstraint(OUTLET, 0, 4e4, 0.018, alpha_e=0.014)
        with pytest.raises(ValueError, match="multiplicative"):
            issf_inflated_barrier(
                sihrd_spec, c, sihrd_spec.state([1, 1, 1, 1, 1]), IssfBound(0.1)
            )


class TestDisturbedInvariance:
    def test_inflated_margin_stays_nonnegative(self, sir_spec):
        # disturbed runs with the nominal law evaluated on the true state:
        # the enlarged margin must hold pointwise along the trajectory
        rng = np.random.default_rng(31)
        N = SIR_US.N
        for run in range(15):
            delta = float(rng.choice([0.01, 0.05, 0.1]))
            bound = rng.uniform(1e5, 3e5)
            i0 = rng.uniform(0.2, 0.8) * bound
            s0 = rng.uniform(0.6, 0.95) * N
            sc = Scenario(
                spec=sir_spec,
                state0=sir_spec.state([s0, i0, max(0.0, min(N - s0 - i0, 0.2 * N))]),
                t_start=0.0, t_end=60.0, dt=0.1,
                constraints=(SafetyConstraint(MULTIPLICATIVE, 1, bound, 0.02, name="I"),),
                disturbance_delta=delta,
                seed=1000 + run,
            )
            traj = simulate(sc)
            authority = 0.33 * traj.states[:, 0] * traj.states[:, 1] / N
            h = traj.barriers[:, 0]
            h_d = h + (delta / 0.02) * authority
            assert h_d.min() >= -1e-6 * bound
            # and the plain margin dips at most by the advertised budget
            assert h.min() >= -(delta / 0.02) * authority.max()

    def test_degradation_ordering(self, sir_spec):
        state0 = sir_spec.state([32.9e6, 2000.0, 97998.0])
        bound = 5e4
        cons = (SafetyConstraint(MULTIPLICATIVE, 1, bound, 0.02, name="I"),)
        overshoot = {}
        for mode in ("instantaneous", "delayed", "predictor"):
            sc = Scenario(
                spec=sir_spec, state0=state0, t_start=0.0, t_end=60.0, dt=0.1,
                constraints=cons, feedback_mode=mode,
                tau=0.0 if mode == "instantaneous" else 20.0,
            )
            traj = simulate(sc)
            overshoot[mode] = max(0.0, -float(traj.barriers.min()))
        assert overshoot["instantaneous"] <= 1e-6 * bound
        assert overshoot["predictor"] <= 1e-6 * bound
        assert overshoot["delayed"] > overshoot["predictor"]
