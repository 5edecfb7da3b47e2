"""Closed-loop simulation: integrator accuracy, invariance, audits."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from episafe import delay, engine, safety, sim
from episafe.delay import PredictorConfig
from episafe.engine import rk4_flat
from episafe.models import ModelState, SirParams, build_model
from episafe.runner import export_trajectory, import_trajectory
from episafe.safety import (
    MULTIPLICATIVE,
    OUTLET,
    SafetyConstraint,
    barrier_value,
    combined_control,
    extended_barrier_value,
)
from episafe.scenarios import load_preset, preset_names
from episafe.sim import (
    InitialConditionError,
    IntegrationError,
    MeasurementBuffer,
    Scenario,
    Trajectory,
    grid_steps,
    safety_audit,
    simulate,
)

from conftest import SIHRD_US, SIR_US, TAU_GRID_CASES
from oracles import reference_model, reference_solver, rk4_reference


def sir_scenario(sir_spec, **kw):
    defaults = dict(
        spec=sir_spec,
        state0=sir_spec.state([26e6, 1e5, 6.9e6]),
        t_start=0.0,
        t_end=40.0,
        dt=0.1,
        constraints=(
            SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 0.02, name="I"),
        ),
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestScenarioValidation:
    def test_tau_must_align_with_dt(self, sir_spec):
        with pytest.raises(ValueError, match="tau"):
            sir_scenario(sir_spec, feedback_mode="delayed", tau=0.55)

    @pytest.mark.parametrize("tau, dt, on_grid", TAU_GRID_CASES)
    def test_tau_grid_cases(self, sir_spec, tau, dt, on_grid):
        def make():
            return sir_scenario(
                sir_spec, feedback_mode="delayed", tau=tau, dt=dt, t_end=1000 * dt
            )

        if on_grid:
            assert make().delay_steps == round(tau / dt)
        else:
            with pytest.raises(ValueError, match="tau"):
                make()

    def test_horizon_must_align_with_dt(self, sir_spec):
        with pytest.raises(ValueError, match="horizon"):
            sir_scenario(sir_spec, t_end=40.03)

    def test_control_start_range(self, sir_spec):
        with pytest.raises(ValueError, match="control_start"):
            sir_scenario(sir_spec, control_start=50.0)

    def test_zero_length_horizon_allowed(self, sir_spec):
        sc = sir_scenario(sir_spec, t_end=0.0)
        assert sc.n_steps == 0

    def test_unknown_feedback_mode_rejected(self, sir_spec):
        with pytest.raises(ValueError) as err:
            sir_scenario(sir_spec, feedback_mode="forecast")
        assert str(err.value) == (
            "feedback_mode must be one of ('instantaneous', 'delayed', 'predictor')"
        )

    def test_initial_state_of_other_labels_rejected(self, sir_spec):
        state0 = ModelState(w=[26e6, 1e5], z=[6.9e6], labels=("S", "E", "R"))
        with pytest.raises(ValueError, match="^initial state labels do not match the model$"):
            sir_scenario(sir_spec, state0=state0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_state0_rejected(self, sir_spec, bad):
        # simulate would fail later with "non-finite state after step 0"
        state0 = sir_spec.state([bad, 1e5, 6.9e6])
        with pytest.raises(ValueError, match=r"^state0 must be finite, got \["):
            sir_scenario(sir_spec, state0=state0)

    def test_repeated_constraint_label_rejected(self, sir_spec):
        # both would head an h_I column of the trajectory CSV
        cap = SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 0.02, name="I")
        floor = dataclasses.replace(cap, bound=1e4, direction="lower")
        with pytest.raises(ValueError, match="^constraint label 'I' repeats an earlier one$"):
            sir_scenario(sir_spec, constraints=(cap, floor))
        # unnamed constraints are labelled by their position
        unnamed = (dataclasses.replace(cap, name=""), dataclasses.replace(floor, name=""))
        assert sir_scenario(sir_spec, constraints=unnamed).constraints == unnamed

    def test_negative_delta_rejected(self, sir_spec):
        with pytest.raises(ValueError, match="disturbance"):
            sir_scenario(sir_spec, disturbance_delta=-0.1)

    def test_delta_whose_draw_range_overflows_rejected(self, sir_spec):
        # numpy's uniform(-delta, delta) raises OverflowError once 2 * delta
        # is inf, also for a run whose law never draws
        half = sys.float_info.max / 2
        for delta in (8.99e307, math.nextafter(half, math.inf)):
            with pytest.raises(ValueError) as err:
                sir_scenario(sir_spec, disturbance_delta=delta)
            assert str(err.value) == "disturbance_delta must be at most 8.988465674311579e+307"
        traj = simulate(sir_scenario(sir_spec, t_end=1.0, disturbance_delta=half))
        assert all(abs(d) <= half for d in traj.disturbances.tolist())

    def test_step_counts_are_computed_once(self, sir_spec, monkeypatch):
        sc = sir_scenario(
            sir_spec, t_start=5.0, t_end=45.0, control_start=7.5, feedback_mode="delayed", tau=2.0
        )
        config = PredictorConfig(tau=2.0, dt_pred=0.1)
        # a read that ran grid_steps again would fail
        monkeypatch.setattr(sim, "grid_steps", None)
        monkeypatch.setattr(delay, "grid_steps", None)
        assert (sc.n_steps, sc.delay_steps, sc.control_step, config.n_steps) == (400, 20, 25, 20)
        monkeypatch.undo()
        # not part of the repr or the comparison, and recomputed on replace
        assert "n_steps" not in repr(sc) and "n_steps" not in repr(config)
        assert dataclasses.replace(sc, t_end=10.0).n_steps == 50
        assert dataclasses.replace(config, tau=0.5).n_steps == 5

    @pytest.mark.parametrize("seed", [-3, 2.5])
    def test_seed_must_be_a_non_negative_integer(self, sir_spec, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            sir_scenario(sir_spec, disturbance_delta=0.1, seed=seed)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_non_positive_step_rejected(self, sir_spec, dt):
        with pytest.raises(ValueError, match="^dt must be positive$"):
            sir_scenario(sir_spec, dt=dt)
        with pytest.raises(ValueError, match="^dt_pred must be positive$"):
            PredictorConfig(tau=0.0, dt_pred=dt)

    @pytest.mark.parametrize(
        "field", ["t_start", "t_end", "dt", "tau", "control_start"]
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_times_rejected(self, sir_spec, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            sir_scenario(sir_spec, **{field: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_delta_rejected(self, sir_spec, value):
        with pytest.raises(ValueError, match="disturbance_delta must be finite"):
            sir_scenario(sir_spec, disturbance_delta=value)

    def test_guaranteed_flag(self, sir_spec):
        assert sir_scenario(sir_spec).guaranteed
        assert sir_scenario(sir_spec, feedback_mode="predictor", tau=1.0).guaranteed
        assert not sir_scenario(sir_spec, feedback_mode="delayed", tau=1.0).guaranteed
        assert not sir_scenario(sir_spec, disturbance_delta=0.1, seed=1).guaranteed


class TestGridSteps:
    def test_whole_steps(self):
        assert grid_steps(0.0, 0.1) == 0
        assert grid_steps(11.0, 0.1) == 110
        assert grid_steps(0.3, 0.1) == 3  # 2.9999999999999996 steps

    def test_within_relative_tolerance(self):
        assert grid_steps(10.0 + 1e-10, 0.1) == 100
        assert grid_steps(10.0 + 1e-6, 0.1) is None

    def test_negative_or_off_grid_is_none(self):
        assert grid_steps(-0.1, 0.1) is None
        assert grid_steps(0.55, 0.1) is None

    @pytest.mark.parametrize(
        "span, dt",
        [
            (math.inf, 0.1), (math.nan, 0.1), (-math.inf, 0.1),
            (1.0, math.inf), (1.0, math.nan), (1.0, 0.0), (1.0, -0.1),
            (math.inf, math.inf), (1e300, 1e-300),
        ],
    )
    def test_non_finite_or_non_positive_step_is_none(self, span, dt):
        assert grid_steps(span, dt) is None

    def test_control_step(self, sir_spec):
        assert sir_scenario(sir_spec).control_step == 0
        assert sir_scenario(sir_spec, t_start=5.0, control_start=7.5).control_step == 25


class TestControlStartOnGrid:
    """control_start within the grid tolerance of a sample engages the
    controller at that sample, in the plant loop and in every forecast."""

    @staticmethod
    def fig2(control_start, mode):
        base = load_preset("sir_fig2")
        return dataclasses.replace(
            base, t_end=40.0, control_start=control_start, feedback_mode=mode
        )

    def test_nominal_predictor_equals_instantaneous(self):
        pred = simulate(self.fig2(10.00000000005, "predictor"))
        inst = simulate(self.fig2(10.00000000005, "instantaneous"))
        np.testing.assert_array_equal(pred.states, inst.states)

    def test_controller_engages_at_rounded_step(self):
        traj = simulate(self.fig2(10.0000000005, "predictor"))
        assert traj.active[99] == -1
        assert traj.active[100] >= 0
        assert np.count_nonzero(traj.active >= 0) == traj.scenario.n_steps + 1 - 100


class TestMeasurementBuffer:
    def test_exact_lookup(self):
        buf = MeasurementBuffer(t_start=0.0, dt=0.1, tau=0.5, prehistory=[1.0])
        for k in range(6):
            buf.push(0.1 * k, [float(k)])
        assert buf.lookup(0.3) == [3.0]
        assert buf.lookup(0.5) == [5.0]

    def test_prehistory_rule(self):
        buf = MeasurementBuffer(t_start=0.0, dt=0.1, tau=0.5, prehistory=[7.0])
        buf.push(0.0, [0.0])
        assert buf.lookup(-0.4) == [7.0]

    def test_evicts_and_misses(self):
        buf = MeasurementBuffer(t_start=0.0, dt=0.1, tau=0.2, prehistory=[0.0])
        for k in range(10):
            buf.push(0.1 * k, [float(k)])
        with pytest.raises(LookupError):
            buf.lookup(0.2)  # older than the retained window


class TestRk4Step:
    """engine.rk4_flat, the step the plant loop and the rollouts take."""

    def test_equilibrium_unchanged(self, sir_spec):
        x = [33e6, 0.0, 0.0]
        assert rk4_flat(sir_spec.derivative_t, x, 0.0, 0.1) == x

    def test_matches_fine_step_reference(self, sir_spec):
        # one dt=0.1 step vs 100 steps of dt=0.001 as the accuracy oracle
        x = [30e6, 3e6, 0.0]
        coarse = np.array(rk4_flat(sir_spec.derivative_t, x, 0.0, 0.1))
        fine = x
        for _ in range(100):
            fine = rk4_flat(sir_spec.derivative_t, fine, 0.0, 0.001)
        fine = np.array(fine)
        err = np.max(np.abs(coarse - fine) / np.maximum(1.0, np.abs(fine)))
        assert err < 1e-7

    def test_conserves_population(self, sir_spec):
        x = [30e6, 3e6, 0.0]
        out = rk4_flat(sir_spec.derivative_t, x, 0.37, 0.1)
        assert abs(sum(out) - sum(x)) < 1e-9 * SIR_US.N


class TestSimulate:
    def test_non_finite_state_raises_integration_error(self):
        # beta0 * S * I / N overflows in the first RK4 stage
        spec = build_model(SirParams(beta0=1e300, gamma=0.2, N=1.0))
        sc = Scenario(
            spec=spec, state0=spec.state([1e10, 1e10, 0.0]), t_start=0.0, t_end=1.0, dt=0.1
        )
        with pytest.raises(IntegrationError) as err:
            simulate(sc)
        assert str(err.value) == "non-finite state after step 0 (t=0): [nan, nan, nan]"

    def test_series_of_other_lengths_rejected(self, sir_spec):
        traj = simulate(sir_scenario(sir_spec, t_end=1.0))
        series = dict(
            states=[list(row) for row in traj.states.tolist()],
            u_raw=traj.u_raw.tolist(),
            u=traj.u.tolist(),
            active=traj.active.tolist(),
            feasible=traj.feasible.tolist(),
            disturbances=traj.disturbances.tolist(),
        )
        for name in series:
            short = dict(series, **{name: series[name][:-1]})
            with pytest.raises(ValueError, match="^trajectory series lengths differ$"):
                Trajectory(scenario=traj.scenario, **short)

    def test_zero_length_horizon(self, sir_spec):
        traj = simulate(sir_scenario(sir_spec, t_end=0.0))
        assert len(traj) == 1
        assert traj.u_raw[0] >= 0.0

    def test_series_lengths_and_grid(self, sir_spec):
        traj = simulate(sir_scenario(sir_spec, t_end=5.0))
        assert len(traj) == 51
        steps = np.diff(traj.times)
        np.testing.assert_allclose(steps, 0.1, rtol=1e-12)
        # times[k] is scenario.time(k) to the bit, also once the scenario
        # is replaced by one that starts later
        late = dataclasses.replace(traj.scenario, t_start=0.3, t_end=5.3, control_start=0.3)
        for run in (traj, dataclasses.replace(traj, scenario=late)):
            times = [t.hex() for t in run.times.tolist()]
            assert times == [run.scenario.time(k).hex() for k in range(len(run))]
        assert times[1] == (0.3 + 0.1).hex()

    def test_determinism_bitwise(self, sir_spec):
        sc = sir_scenario(sir_spec, disturbance_delta=0.05, seed=123)
        t1, t2 = simulate(sc), simulate(sc)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.disturbances, t2.disturbances)
        assert t1.u_raw.tolist() == t2.u_raw.tolist()

    def test_trajectory_equals_only_itself(self):
        # its series are arrays, which have no one truth value: runs compare
        # and hash by identity, so neither raises
        sc = dataclasses.replace(load_preset("sir_delay_danger"), t_end=1.0)
        a, b = simulate(sc), simulate(sc)
        assert a == a
        assert a != b
        assert len({a, a, b}) == 2

    def test_infection_bound_held_instantaneous(self, sir_spec):
        traj = simulate(sir_scenario(sir_spec, t_end=120.0))
        assert traj.states[:, 1].max() <= 2e5 * (1.0 + 1e-6)
        assert safety_audit(traj).ok

    def test_population_conserved_along_trajectory(self, sir_spec):
        traj = simulate(sir_scenario(sir_spec, t_end=120.0))
        totals = traj.states.sum(axis=1)
        assert np.max(np.abs(totals - totals[0])) < 1e-7 * SIR_US.N

    def test_compartments_stay_nonnegative(self, sir_spec):
        traj = simulate(sir_scenario(sir_spec, t_end=120.0))
        assert traj.states.min() >= -1e-9 * SIR_US.N

    def test_initial_condition_refusal_in_guaranteed_mode(self, sir_spec):
        sc = sir_scenario(sir_spec, state0=sir_spec.state([26e6, 3e5, 6.7e6]))
        with pytest.raises(InitialConditionError) as err:
            simulate(sc)
        assert not err.value.report.ok
        assert str(err.value) == "initial condition fails controller hypotheses: I: h=-100000 [FAIL]"

    @pytest.mark.parametrize("preset, change, message", [
        # an outlet cap breached at the start, and one whose inflow is too fast
        ("sihrd_fig3", {"state0": [14.0e6, 2e5, 5e4, 7e5, 5e4]},
         "H: h=-10000, h_e=820 [FAIL]; D: h=350000, h_e=4300 [ok]"),
        ("sihrd_fig3", {"state0": [14.9e6, 1e5, 1e4, 1e4, 1e3]},
         "H: h=30000, h_e=-1060 [FAIL]; D: h=399000, h_e=6182 [ok]"),
        # checked at the first controlled sample, t = 10, not at state0
        ("sir_fig2", {"bound": 1e4}, "I: h=-169333 [FAIL]"),
    ])
    def test_initial_condition_refusal_text(self, preset, change, message):
        sc = load_preset(preset)
        if "state0" in change:
            sc = dataclasses.replace(sc, state0=sc.spec.state(change["state0"]))
        else:
            cons = tuple(dataclasses.replace(c, bound=change["bound"]) for c in sc.constraints)
            sc = dataclasses.replace(sc, constraints=cons)
        with pytest.raises(InitialConditionError) as err:
            simulate(sc)
        assert str(err.value) == "initial condition fails controller hypotheses: " + message

    def test_delayed_mode_records_instead_of_refusing(self, sir_spec):
        sc = sir_scenario(
            sir_spec,
            state0=sir_spec.state([26e6, 3e5, 6.7e6]),
            feedback_mode="delayed",
            tau=2.0,
            t_end=10.0,
        )
        traj = simulate(sc)
        assert traj.initial_report is not None and not traj.initial_report.ok

    def test_control_start_gates_input(self, sir_spec):
        sc = sir_scenario(sir_spec, t_end=30.0, control_start=10.0,
                          state0=sir_spec.state([26e6, 8e4, 6.92e6]))
        traj = simulate(sc)
        before = traj.times < 10.0 - 1e-9
        assert np.all(traj.u[before] == 0.0)
        assert traj.u[~before].max() > 0.0

    def test_step_halving_changes_peak_little(self, sir_spec):
        base = simulate(sir_scenario(sir_spec, t_end=80.0))
        half = simulate(sir_scenario(sir_spec, t_end=80.0, dt=0.05))
        peak_base = base.states[:, 1].max()
        peak_half = half.states[:, 1].max()
        assert abs(peak_base - peak_half) / peak_half < 1e-3

    def test_predictor_matches_instantaneous_without_mismatch(self, sir_spec):
        inst = simulate(sir_scenario(sir_spec, t_end=60.0))
        pred = simulate(
            sir_scenario(sir_spec, t_end=60.0, feedback_mode="predictor", tau=11.0)
        )
        err = np.max(np.abs(inst.states - pred.states))
        assert err <= 1e-5 * SIR_US.N

    def test_disturbance_draws_bounded_and_recorded(self, sir_spec):
        sc = sir_scenario(sir_spec, disturbance_delta=0.05, seed=7, t_end=20.0)
        traj = simulate(sc)
        assert np.all(np.abs(traj.disturbances) <= 0.05)
        assert np.any(traj.disturbances != 0.0)

    def test_forward_invariance_random_sir(self, sir_spec):
        # random in-set starts, instantaneous feedback, no disturbance
        rng = np.random.default_rng(2024)
        N = SIR_US.N
        for _ in range(50):
            bound = rng.uniform(5e4, 4e5)
            i0 = rng.uniform(0.05, 0.9) * bound
            s0 = rng.uniform(0.3, 0.95) * N
            r0 = max(0.0, min(N - s0 - i0, rng.uniform(0.0, 0.4) * N))
            alpha = rng.uniform(0.005, 0.2)
            sc = Scenario(
                spec=sir_spec,
                state0=sir_spec.state([s0, i0, r0]),
                t_start=0.0,
                t_end=50.0,
                dt=0.1,
                constraints=(SafetyConstraint(MULTIPLICATIVE, 1, bound, alpha, name="I"),),
            )
            traj = simulate(sc)
            assert traj.barriers.min() >= -1e-6 * bound

    def test_forward_invariance_random_sihrd_outlets(self, sihrd_spec):
        from episafe.safety import validate_initial_condition

        rng = np.random.default_rng(77)
        N = SIHRD_US.N
        done = 0
        attempts = 0
        while done < 50 and attempts < 500:
            attempts += 1
            h_max = rng.uniform(2e4, 8e4)
            d_max = rng.uniform(2e5, 6e5)
            i0 = rng.uniform(1e3, 2.5e4)
            h0 = rng.uniform(0.0, 0.5) * h_max
            d0 = rng.uniform(0.0, 0.3) * d_max
            s0 = rng.uniform(0.5, 0.98) * N
            cons = (
                SafetyConstraint(OUTLET, 0, h_max, 0.018, alpha_e=0.014, name="H"),
                SafetyConstraint(OUTLET, 2, d_max, 0.018, alpha_e=0.018, name="D"),
            )
            state0 = sihrd_spec.state([s0, i0, h0, 0.0, d0])
            if not validate_initial_condition(sihrd_spec, cons, state0).ok:
                continue
            sc = Scenario(
                spec=sihrd_spec, state0=state0,
                t_start=0.0, t_end=40.0, dt=0.1, constraints=cons,
            )
            traj = simulate(sc)
            for j, c in enumerate(cons):
                assert traj.barriers[:, j].min() >= -1e-6 * c.bound
            done += 1
        assert done == 50

    @pytest.mark.parametrize("mode", ["instantaneous", "delayed", "predictor"])
    def test_negative_feedback_state_rejected(self, mode):
        # beta0 40 at dt 0.5 overshoots: RK4 drives S far below zero, and
        # the law must refuse the first feedback state that carries it
        spec = build_model(SirParams(beta0=40.0, gamma=0.1, N=1000.0))
        sc = Scenario(
            spec=spec, state0=spec.state([990.0, 10.0, 0.0]), t_start=0.0,
            t_end=5.0, dt=0.5, feedback_mode=mode, tau=1.0,
            constraints=(SafetyConstraint(MULTIPLICATIVE, 1, 1e9, 1.0),),
        )
        message = "negative population -544.046 in state (floor -2.08809e-06)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate(sc)


class TestSafetyAudit:
    def test_clean_run_reports_zero_violations(self, sir_spec):
        traj = simulate(sir_scenario(sir_spec, t_end=60.0))
        report = safety_audit(traj)
        assert report.ok
        assert report.constraints[0].violation_count == 0
        assert report.infeasible_count == 0
        assert "min h" in report.describe()

    def test_delayed_feedback_violates_on_fast_growth(self, sir_spec):
        state0 = sir_spec.state([32.9e6, 2000.0, 97998.0])
        cons = (SafetyConstraint(MULTIPLICATIVE, 1, 5e4, 0.02, name="I"),)
        delayed = Scenario(
            spec=sir_spec, state0=state0, t_start=0.0, t_end=60.0, dt=0.1,
            constraints=cons, feedback_mode="delayed", tau=20.0,
        )
        rep_delayed = safety_audit(simulate(delayed))
        assert rep_delayed.constraints[0].violation_count > 0

        predicted = Scenario(
            spec=sir_spec, state0=state0, t_start=0.0, t_end=60.0, dt=0.1,
            constraints=cons, feedback_mode="predictor", tau=20.0,
        )
        rep_pred = safety_audit(simulate(predicted))
        assert rep_pred.constraints[0].min_margin >= -1e-6 * 5e4

    def test_decay_check_starts_at_the_control_step(self):
        # sir_fig2's law is off for its first 100 samples, where the margin
        # decays freely; from the control step on the check holds
        sc = dataclasses.replace(load_preset("sir_fig2"), feedback_mode="instantaneous")
        traj = simulate(sc)
        audit = safety_audit(traj).constraints[0]
        assert sc.control_step == 100
        assert audit.decay_check_failures == 0 and audit.decay_check_worst > 0.0
        # no controlled step at all: nothing to check, as in a one-sample run
        late = dataclasses.replace(traj, scenario=dataclasses.replace(sc, control_start=sc.t_end))
        audit = safety_audit(late).constraints[0]
        assert (audit.decay_check_failures, audit.decay_check_worst) == (0, math.inf)

    def test_overflowing_decay_check_warns_nothing(self, sir_spec):
        # alpha * h overflows to inf: the audit still reports, and no numpy
        # RuntimeWarning escapes it (the suite turns warnings into errors)
        traj = simulate(sir_scenario(sir_spec, t_end=2.0))
        huge = SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 1e308, name="I")
        scenario = dataclasses.replace(traj.scenario, constraints=(huge,))
        audit = safety_audit(dataclasses.replace(traj, scenario=scenario)).constraints[0]
        assert audit.decay_check_worst == math.inf
        assert audit.decay_check_failures == 0

    def test_unnamed_constraints_labelled_by_position(self, sir_spec, tmp_path):
        # an unnamed cap and floor on I: the audit names them as the CSV
        # columns and the initial-condition report do
        cap = SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 0.02)
        floor = dataclasses.replace(cap, bound=1e4, direction="lower")
        traj = simulate(sir_scenario(sir_spec, t_end=2.0, constraints=(cap, floor)))
        report = safety_audit(traj)
        labels = ["c0_w1", "c1_w1"]
        assert [c.label for c in report.constraints] == labels
        assert [line.split(":")[0] for line in report.describe().splitlines()[:2]] == labels
        assert [c.label for c in traj.initial_report.checks] == labels
        header = export_trajectory(traj, tmp_path / "t.csv").read_text().splitlines()[0]
        assert header.split(",")[-3:-1] == ["h_" + label for label in labels]

    def test_audit_with_explicit_constraints(self, sir_spec):
        traj = simulate(sir_scenario(sir_spec, t_end=20.0))
        tight = SafetyConstraint(MULTIPLICATIVE, 1, 1.2e5, 0.02, name="tight")
        scenario = dataclasses.replace(traj.scenario, constraints=(tight,))
        report = safety_audit(dataclasses.replace(traj, scenario=scenario))
        assert report.constraints[0].label == "tight"
        assert report.constraints[0].min_margin < 1.2e5


class TestOtherConstraintFamilies:
    def test_seir_exposed_bound_held(self):
        from episafe.models import SeirParams, build_model

        spec = build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2))
        bound = 5e5
        sc = Scenario(
            spec=spec,
            state0=spec.state([30e6, 2e5, 3e5, 2.5e6]),
            t_start=0.0, t_end=80.0, dt=0.1,
            constraints=(SafetyConstraint(MULTIPLICATIVE, 1, bound, 0.02, name="E"),),
        )
        traj = simulate(sc)
        assert traj.barriers.min() >= -1e-6 * bound
        totals = traj.states.sum(axis=1)
        assert np.max(np.abs(totals - totals[0])) < 1e-7 * 33e6

    def test_susceptible_floor_held(self, sir_spec):
        # lower-direction constraint: keep S above a floor by slowing
        # transmission once depletion gets too fast
        floor = 24e6
        sc = Scenario(
            spec=sir_spec,
            state0=sir_spec.state([26e6, 5e5, 6.5e6]),
            t_start=0.0, t_end=120.0, dt=0.1,
            constraints=(
                SafetyConstraint(
                    MULTIPLICATIVE, 0, floor, 0.02, direction="lower", name="S_floor"
                ),
            ),
        )
        traj = simulate(sc)
        assert traj.states[:, 0].min() >= floor * (1.0 - 1e-6)
        assert traj.barriers.min() >= -1e-6 * floor
        assert traj.u.max() > 0.0  # the floor actually required intervention


    def test_long_horizon_runs_through_vanishing_authority(self):
        # the epidemic dies out until I, and with it the input's authority,
        # falls below g_tol; the law then rests instead of failing the run
        sc = dataclasses.replace(
            load_preset("sir_fig2"), t_end=4000.0, feedback_mode="instantaneous"
        )
        traj = simulate(sc)
        spec = sc.spec
        final = traj.state_at(len(traj) - 1)
        assert abs(reference_model(spec)["g_t"](final.w.tolist())[1]) < spec.g_tol
        assert traj.feasible.all()
        assert traj.u[-1] == 0.0
        assert safety_audit(traj).ok


class TestPrehistoryOverride:
    def test_recorded_prehistory_feeds_early_lookups(self, sir_spec):
        # with a supplied prehistory the delayed controller acts on it (not
        # on the initial state) until real measurements age in
        cons = (SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 0.02, name="I"),)
        base = dict(
            spec=sir_spec, t_start=0.0, t_end=2.0, dt=0.1, constraints=cons,
            feedback_mode="delayed", tau=1.0,
        )
        state0 = sir_spec.state([26e6, 1.5e5, 6.85e6])
        sc = Scenario(state0=state0, **base)
        default_run = simulate(sc)
        quiet_past = [26e6, 1e3, 6.999e6]
        override_run = simulate(sc, prehistory=quiet_past)
        # the controller saw different feedback states over [0, tau)
        assert override_run.u_raw[0] != default_run.u_raw[0]
        assert override_run.u_raw[0] == 0.0  # tiny I in the past

    def test_negative_prehistory_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            simulate(load_preset("sir_delay_danger"), prehistory=[32.9e6, -5e3, 97998.0])

    def test_wrong_length_prehistory_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            simulate(load_preset("sir_delay_danger"), prehistory=[32.9e6, 5e3])

    @pytest.mark.parametrize("mode", ["delayed", "predictor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_prehistory_rejected(self, mode, value):
        # NaN and -inf pass the population floor, and a forecast from them
        # is NaN, at which the law would rest with feasible True
        sc = dataclasses.replace(load_preset("sir_fig2"), feedback_mode=mode)
        with pytest.raises(ValueError, match="^prehistory must be finite, got ") as err:
            simulate(sc, prehistory=[value, 1e5, 1e6])
        assert "\n" not in str(err.value)

    def test_forecast_that_blows_up_stops_the_run(self):
        # the prehistory is finite and passes the floor, but one forecast
        # step from it overflows; the law refuses the NaN forecast instead
        # of resting at it, feasible
        sc = dataclasses.replace(load_preset("sir_delay_danger"), feedback_mode="predictor")
        with pytest.raises(ValueError, match=r"^state must be finite, got \[nan, nan, nan\]$"):
            simulate(sc, prehistory=[1e200, 1e200, 0.0])

    @pytest.mark.parametrize("mode", ["delayed", "predictor"])
    def test_delay_longer_than_the_run_reads_the_prehistory(self, mode):
        # no sample reads further back than the prehistory, so every delay
        # of at least n_steps + 1 steps gives the same run, however long
        sc = dataclasses.replace(load_preset("sir_delay_danger"), feedback_mode=mode)
        past = [32.85e6, 4.5e4, 1.05e5]
        runs = [
            simulate(dataclasses.replace(sc, tau=tau), prehistory=past)
            for tau in (1e300, 1000.0, (sc.n_steps + 1) * sc.dt)
        ]
        for traj in runs[1:]:
            for name in ("states", "u_raw", "u", "active", "feasible", "disturbances"):
                assert np.array_equal(getattr(traj, name), getattr(runs[0], name)), name

    def test_delayed_feedback_reads_the_row_a_delay_back(self):
        # sir_fig2 turns its law on at sample 100 < D = 110: samples 100 to
        # 109 see the prehistory, and from k = D on the row states[k - D]
        sc = dataclasses.replace(load_preset("sir_fig2"), feedback_mode="delayed")
        spec, D, n = sc.spec, sc.delay_steps, sc.spec.n
        past = [32e6, 3e5, 0.7e6]
        traj = simulate(sc, prehistory=past)
        assert 0 < sc.control_step < D < len(traj) - 1
        solve = reference_solver(spec, sc.constraints)
        for k in range(sc.control_step, len(traj)):
            x = traj.states[k - D].tolist() if k >= D else past
            assert float(traj.u_raw[k]).hex() == solve(x[:n], x[n:])[0].hex(), k
        # the two sources give different laws on each side of k = D
        assert traj.u_raw[D - 1] != traj.u_raw[D] > 0.0


def assert_forecasts_replay(traj, prehistory, stride=1):
    """Every stride-th controlled sample k of a predictor run records the
    reference law at the forecast that reference RK4 builds from the state
    measured at k - D (the prehistory at sample 0 while k < D) over the
    commands u recorded in between, bit for bit."""
    sc = traj.scenario
    spec, D = sc.spec, sc.delay_steps
    solve = reference_solver(spec, sc.constraints)
    u = traj.u.tolist()
    checked = 0
    for k in range(sc.control_step, len(traj), stride):
        x = traj.states[k - D].tolist() if k >= D else list(prehistory)
        for j in range(max(k - D, 0), k):
            x = rk4_reference(spec.derivative_t, x, u[j], sc.dt)
        u_raw, active, feasible = solve(x[: spec.n], x[spec.n :])
        recorded = (float(traj.u_raw[k]).hex(), int(traj.active[k]), bool(traj.feasible[k]))
        assert recorded == (u_raw.hex(), active, feasible), k
        checked += 1
    assert checked > 0


class TestLawPaths:
    @pytest.mark.parametrize("delta", [0.05, 0.1])
    @pytest.mark.parametrize("preset", preset_names())
    def test_disturbed_forecasts_replay_the_sent_commands(self, preset, delta):
        # a disturbance parts the applied input from the commanded one, so
        # only here does a forecast that replays the commands differ from
        # the true state, and from one that re-runs the law on its way
        sc = dataclasses.replace(
            load_preset(preset), feedback_mode="predictor", disturbance_delta=delta, seed=3
        )
        traj = simulate(sc)
        assert traj.disturbances.any()
        assert_forecasts_replay(traj, sc.state0.x.tolist(), stride=7)

    @pytest.mark.parametrize("delta", [0.0, 0.05])
    @pytest.mark.parametrize("preset", preset_names())
    def test_feedback_modes_agree_without_delay(self, preset, delta):
        # at tau = 0 the measurement of sample k is its own state and a
        # forecast spans no step, so every mode runs the same loop
        base = dataclasses.replace(
            load_preset(preset), tau=0.0, disturbance_delta=delta, seed=3
        )
        runs = {
            mode: simulate(dataclasses.replace(base, feedback_mode=mode))
            for mode in ("instantaneous", "delayed", "predictor")
        }
        reference = runs.pop("instantaneous")
        assert reference.u.any()
        for mode, traj in runs.items():
            for series in ("states", "u_raw", "u", "feasible", "active"):
                got, want = getattr(traj, series), getattr(reference, series)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (mode, series)

    def test_forecasts_from_a_prehistory_replay_the_sent_commands(self):
        # the first D forecasts start from the supplied prehistory at
        # sample 0; this one sits near the 50k cap, so the law acts on them
        sc = dataclasses.replace(load_preset("sir_delay_danger"), feedback_mode="predictor")
        past = [32.85e6, 4.5e4, 1.05e5]
        traj = simulate(sc, prehistory=past)
        assert sc.delay_steps > sc.control_step
        assert_forecasts_replay(traj, past)

    def test_predictor_runs_the_law_once_per_sample(self, monkeypatch):
        # count the calls of the solve the law memo hands out, from safety
        # and from engine, which imports it by name: one per controlled
        # sample means no forecast ran the law
        calls = 0
        original = safety._solver

        def counting_solver(spec, constraints):
            solve = original(spec, constraints)

            def counting_solve(x):
                nonlocal calls
                calls += 1
                return solve(x)

            return counting_solve

        monkeypatch.setattr(safety, "_solver", counting_solver)
        monkeypatch.setattr(engine, "_solver", counting_solver)
        monkeypatch.setattr(safety, "_last", (None, None, None))
        sc = dataclasses.replace(load_preset("sir_fig2"), t_end=40.0)
        assert sc.feedback_mode == "predictor" and sc.control_step > 0
        simulate(sc)
        assert calls == sc.n_steps + 1 - sc.control_step

    def test_fused_and_called_steps_give_the_same_run(self, monkeypatch):
        # a wrapper of rk4_flat that hands it a counting copy of deriv, as a
        # tracer would: the copy carries no fused step, so every state-step
        # takes the per-length kernel, which calls the derivative 4 times
        runs = [
            dataclasses.replace(load_preset(name), feedback_mode="predictor", t_end=30.0)
            for name in ("sir_fig2", "sihrd_fig3", "sir_delay_danger")
        ]
        fused = [simulate(sc) for sc in runs]
        steps = calls = 0
        original = engine.rk4_flat

        def counting_rk4(deriv, x, u, dt):
            nonlocal steps
            steps += 1

            def counting_deriv(xx, uu):
                nonlocal calls
                calls += 1
                return deriv(xx, uu)

            return original(counting_deriv, x, u, dt)

        monkeypatch.setattr(engine, "rk4_flat", counting_rk4)
        for sc, want in zip(runs, fused):
            got = simulate(sc)
            for series in ("states", "u_raw", "u"):
                assert getattr(got, series).tobytes() == getattr(want, series).tobytes(), (
                    sc.spec.kind, series,
                )
        assert steps > sum(sc.n_steps for sc in runs)  # the forecasts' steps too
        assert calls == 4 * steps

    def test_plant_loop_asks_the_memo_once_per_run(self, monkeypatch):
        # combined_control answers the plant loop's repeat request from its
        # last-used slot: the memo is asked once, not once per sample
        calls = 0
        original = safety._solver

        def counting_solver(spec, constraints):
            nonlocal calls
            calls += 1
            return original(spec, constraints)

        monkeypatch.setattr(safety, "_solver", counting_solver)
        monkeypatch.setattr(safety, "_last", (None, None, None))
        sc = dataclasses.replace(
            load_preset("sir_fig2"), feedback_mode="instantaneous", t_end=40.0
        )
        assert sc.n_steps + 1 - sc.control_step > 1
        simulate(sc)
        assert calls == 1

    @pytest.mark.parametrize("preset", preset_names())
    def test_recorded_law_matches_combined_control(self, preset):
        # every recorded sample must equal the public control function at
        # the state the law saw: the current one, or the one a delay back
        # (the initial state before the run began)
        for mode in ("instantaneous", "delayed"):
            sc = dataclasses.replace(load_preset(preset), feedback_mode=mode)
            traj = simulate(sc)
            lag = sc.delay_steps if mode == "delayed" else 0
            for k in range(len(traj)):
                recorded = (traj.u_raw[k], traj.u[k], traj.feasible[k], traj.active[k])
                if k < sc.control_step:
                    assert recorded == (0.0, 0.0, True, -1)
                    continue
                feedback = traj.states[max(k - lag, 0)].tolist()
                dec = combined_control(sc.spec, sc.constraints, feedback)
                want = (dec.u_raw, dec.u, dec.feasible, dec.active_constraint)
                assert recorded == want, (mode, k)

    def test_constraint_hashes_do_not_grow_with_the_run(self, monkeypatch):
        # the plant loop asks for its law with the same spec and constraint
        # tuple on every sample and is answered by identity: a run eight
        # times longer hashes the constraints no more often
        sc = load_preset("sihrd_fig3")
        simulate(dataclasses.replace(sc, t_end=20.0))  # builds the kernels
        calls = 0
        original = SafetyConstraint.__hash__

        def counting(self):
            nonlocal calls
            calls += 1
            return original(self)

        monkeypatch.setattr(SafetyConstraint, "__hash__", counting)
        counts = []
        for t_end in (20.0, 160.0):
            calls = 0
            simulate(dataclasses.replace(sc, t_end=t_end))
            counts.append(calls)
        assert counts[0] == counts[1], counts

    @pytest.mark.parametrize("preset", preset_names())
    def test_recorded_margins_match_barrier_functions(self, preset, tmp_path):
        # the margins a trajectory computes from its states, simulated or
        # read back from its CSV, must equal the public margin functions at
        # every 50th recorded state
        sc = dataclasses.replace(load_preset(preset), feedback_mode="instantaneous")
        simulated = simulate(sc)
        imported = import_trajectory(export_trajectory(simulated, tmp_path / "t.csv"), sc)
        for traj in (simulated, imported):
            for k in range(0, len(traj), 50):
                state = traj.state_at(k)
                for j, c in enumerate(sc.constraints):
                    assert traj.barriers[k, j] == barrier_value(c, state), (k, j)
                    if c.kind == OUTLET:
                        he = extended_barrier_value(sc.spec, c, state)
                        assert traj.extended[k, j] == he, (k, j)
                    else:
                        assert math.isnan(traj.extended[k, j]), (k, j)
