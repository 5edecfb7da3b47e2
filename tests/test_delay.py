"""Forecast feedback, prediction-error bookkeeping, robustness margins."""

import dataclasses
import math

import numpy as np
import pytest

from episafe.delay import PredictorConfig, predict_state, prediction_error
from episafe.models import ModelState
from episafe.safety import MULTIPLICATIVE, SafetyConstraint
from episafe.scenarios import load_preset
from episafe.sim import Scenario, simulate

from conftest import SIR_US, TAU_GRID_CASES
from oracles import qp_oracle, rk4_reference

I_CON = SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 0.02, name="I")


class TestPredictorConfig:
    def test_rejects_misaligned_tau(self):
        with pytest.raises(ValueError, match="multiple"):
            PredictorConfig(tau=1.05, dt_pred=0.1)

    def test_zero_tau_ok(self):
        assert PredictorConfig(tau=0.0, dt_pred=0.1).n_steps == 0

    @pytest.mark.parametrize(
        "tau, dt_pred",
        [(math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf), (1.0, math.nan), (math.inf, math.inf)],
    )
    def test_rejects_non_finite_tau_or_step(self, tau, dt_pred):
        with pytest.raises(ValueError):
            PredictorConfig(tau=tau, dt_pred=dt_pred)

    @pytest.mark.parametrize("tau, dt, on_grid", TAU_GRID_CASES)
    def test_tau_grid_cases(self, tau, dt, on_grid):
        if on_grid:
            assert PredictorConfig(tau=tau, dt_pred=dt).n_steps == round(tau / dt)
        else:
            with pytest.raises(ValueError, match="multiple"):
                PredictorConfig(tau=tau, dt_pred=dt)


class TestPredictState:
    def test_zero_delay_identity(self, sir_spec):
        state = sir_spec.state([30e6, 1e5, 2.9e6])
        cfg = PredictorConfig(tau=0.0, dt_pred=0.1)
        assert predict_state(sir_spec, state, cfg) is state

    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_flat_list_comes_back_as_a_state(self, sir_spec, tau):
        # the forecast is a ModelState at every delay, also from a flat list
        x = [32.9e6, 0.0, 1e5]  # no infections: the state stays put
        pred = predict_state(sir_spec, x, PredictorConfig(tau=tau, dt_pred=0.1))
        assert type(pred) is ModelState
        assert pred == sir_spec.state(x)

    def test_reduces_to_open_loop_without_constraints(self, sir_spec):
        # no constraints -> u = 0 throughout the forecast
        state = sir_spec.state([30e6, 1e5, 2.9e6])
        cfg = PredictorConfig(tau=2.0, dt_pred=0.1)
        pred = predict_state(sir_spec, state, cfg)
        ref = state.x.tolist()
        for _ in range(20):
            ref = rk4_reference(sir_spec.derivative_t, ref, 0.0, 0.1)
        np.testing.assert_allclose(pred.x, ref, rtol=1e-12)

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

    def test_replays_every_controlled_plant_forecast(self):
        # from sample control_step + D on, every forecast window lies in the
        # controlled phase, so the law at every step replays the commands
        # simulate sent, and the forecast from x[k - D] lands on x[k]
        sc = dataclasses.replace(load_preset("sir_fig2"), t_end=40.0)
        traj = simulate(sc)
        D = sc.delay_steps
        cfg = PredictorConfig(sc.tau, sc.dt, sc.constraints)
        ks = range(sc.control_step + D, sc.n_steps + 1)
        assert len(ks) == 191
        for k in ks:
            pred = predict_state(sc.spec, traj.state_at(k - D), cfg, traj.times[k] - sc.tau)
            np.testing.assert_array_equal(pred.x, traj.states[k])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_measured_is_rejected(self, sir_spec, value):
        state = sir_spec.state([26e6, 1e5, 6.9e6])
        cfg = PredictorConfig(1.0, 0.1, constraints=(I_CON,))
        with pytest.raises(ValueError, match="t_measured must be finite"):
            predict_state(sir_spec, state, cfg, t_measured=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_measurement_is_rejected(self, sir_spec, value):
        # an inf I made the forecast all NaN
        state = sir_spec.state([26e6, value, 6.9e6])
        cfg = PredictorConfig(1.0, 0.1, constraints=(I_CON,))
        with pytest.raises(ValueError, match="^state must be finite, got "):
            predict_state(sir_spec, state, cfg)

    def test_singular_start_rests_like_oracle(self, sir_spec):
        # no infected: no authority, and the oracle's answer is u = 0, so
        # the forecast is the open loop, which stays put
        state = sir_spec.state([33e6, 0.0, 0.0])
        assert qp_oracle(sir_spec, [I_CON], state) == 0.0
        cfg = PredictorConfig(tau=1.0, dt_pred=0.1, constraints=(I_CON,))
        pred = predict_state(sir_spec, state, cfg, t_measured=5.0)
        np.testing.assert_array_equal(pred.x, state.x)

    @pytest.mark.parametrize(
        "x", [[26e6, 1e5, 6.9e6], [1.7e308, 1.7e308, 1e4]], ids=["fig2_start", "overflowing"]
    )
    def test_numpy_scalars_forecast_as_floats(self, x):
        # the same forecast, with no warning, from numpy float64 entries,
        # whose overflow would warn (and fail under -W error)
        sc = load_preset("sir_fig2")
        cfg = PredictorConfig(1.0, 0.1, sc.constraints)
        want = predict_state(sc.spec, x, cfg)
        got = predict_state(sc.spec, [*map(np.float64, x)], cfg)
        assert repr(got) == repr(want)


class TestPredictionError:
    def test_states_of_other_models_rejected(self, sir_spec):
        sihrd = load_preset("sihrd_fig3").state0
        with pytest.raises(ValueError, match="^states must share compartment layout$"):
            prediction_error(sir_spec.state([1e6, 1e3, 0.0]), sihrd)

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
