"""Closed-loop simulation: integrator accuracy, invariance, audits."""

import dataclasses
import math

import numpy as np
import pytest

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
    MeasurementBuffer,
    Scenario,
    rk4_step,
    safety_audit,
    simulate,
)

from conftest import SIHRD_US, SIR_US


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

    def test_horizon_must_align_with_dt(self, sir_spec):
        with pytest.raises(ValueError, match="horizon"):
            sir_scenario(sir_spec, t_end=40.03)

    def test_control_start_range(self, sir_spec):
        with pytest.raises(ValueError, match="control_start"):
            sir_scenario(sir_spec, control_start=50.0)

    def test_zero_length_horizon_allowed(self, sir_spec):
        sc = sir_scenario(sir_spec, t_end=0.0)
        assert sc.n_steps == 0

    def test_negative_delta_rejected(self, sir_spec):
        with pytest.raises(ValueError, match="disturbance"):
            sir_scenario(sir_spec, disturbance_delta=-0.1)

    @pytest.mark.parametrize(
        "field", ["t_start", "t_end", "dt", "tau", "control_start"]
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_times_rejected(self, sir_spec, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            sir_scenario(sir_spec, **{field: value})

    def test_guaranteed_flag(self, sir_spec):
        assert sir_scenario(sir_spec).guaranteed
        assert sir_scenario(sir_spec, feedback_mode="predictor", tau=1.0).guaranteed
        assert not sir_scenario(sir_spec, feedback_mode="delayed", tau=1.0).guaranteed
        assert not sir_scenario(sir_spec, disturbance_delta=0.1, seed=1).guaranteed


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
    def test_equilibrium_unchanged(self, sir_spec):
        state = sir_spec.state([33e6, 0.0, 0.0])
        out = rk4_step(sir_spec, state, u=0.0, dt=0.1)
        np.testing.assert_array_equal(out.x, state.x)

    def test_matches_fine_step_reference(self, sir_spec):
        # one dt=0.1 step vs 100 steps of dt=0.001 as the accuracy oracle
        state = sir_spec.state([30e6, 3e6, 0.0])
        coarse = rk4_step(sir_spec, state, u=0.0, dt=0.1)
        fine = state
        for _ in range(100):
            fine = rk4_step(sir_spec, fine, u=0.0, dt=0.001)
        err = np.max(np.abs(coarse.x - fine.x) / np.maximum(1.0, np.abs(fine.x)))
        assert err < 1e-7

    def test_conserves_population(self, sir_spec):
        state = sir_spec.state([30e6, 3e6, 0.0])
        out = rk4_step(sir_spec, state, u=0.37, dt=0.1)
        assert abs(out.x.sum() - state.x.sum()) < 1e-9 * SIR_US.N

    def test_rejects_nonpositive_dt(self, sir_spec):
        with pytest.raises(ValueError, match="dt"):
            rk4_step(sir_spec, sir_spec.state([1, 1, 1]), 0.0, 0.0)


class TestSimulate:
    def test_zero_length_horizon(self, sir_spec):
        traj = simulate(sir_scenario(sir_spec, t_end=0.0))
        assert len(traj) == 1
        assert traj.u_raw[0] >= 0.0

    def test_series_lengths_and_grid(self, sir_spec):
        traj = simulate(sir_scenario(sir_spec, t_end=5.0))
        assert len(traj) == 51
        steps = np.diff(traj.times)
        np.testing.assert_allclose(steps, 0.1, rtol=1e-12)

    def test_determinism_bitwise(self, sir_spec):
        sc = sir_scenario(sir_spec, disturbance_delta=0.05, seed=123)
        t1, t2 = simulate(sc), simulate(sc)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.disturbances, t2.disturbances)
        assert t1.u_raw.tolist() == t2.u_raw.tolist()

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
        with pytest.raises(InitialConditionError):
            simulate(sc)

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

    def test_audit_with_explicit_constraints(self, sir_spec):
        traj = simulate(sir_scenario(sir_spec, t_end=20.0))
        tight = SafetyConstraint(MULTIPLICATIVE, 1, 1.2e5, 0.02, name="tight")
        report = safety_audit(traj, [tight])
        assert report.constraints[0].label == "tight"
        assert report.constraints[0].min_margin < 1.2e5


class TestOtherConstraintFamilies:
    def test_seir_exposed_bound_held(self):
        from episafe.models import SeirParams, build_seir

        spec = build_seir(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2))
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
        assert abs(spec.g_t(final.w.tolist())[1]) < spec.g_tol
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


class TestLawPaths:
    @pytest.mark.parametrize("preset", preset_names())
    def test_recorded_law_matches_combined_control(self, preset):
        # every 50th recorded sample must equal the public control
        # function at the same state
        sc = dataclasses.replace(load_preset(preset), feedback_mode="instantaneous")
        traj = simulate(sc)
        for k in range(0, len(traj), 50):
            recorded = (traj.u_raw[k], traj.u[k], traj.feasible[k], traj.active[k])
            if traj.times[k] < sc.control_start - 1e-9:
                assert recorded == (0.0, 0.0, True, -1)
                continue
            dec = combined_control(sc.spec, sc.constraints, traj.state_at(k))
            active = -1 if dec.active_constraint is None else dec.active_constraint
            assert recorded == (dec.u_raw, dec.u, dec.feasible, active), k

    @pytest.mark.parametrize("preset", preset_names())
    def test_recorded_margins_match_barrier_functions(self, preset):
        # the margins simulate computes after the run must equal the public
        # margin functions at every 50th recorded state
        sc = dataclasses.replace(load_preset(preset), feedback_mode="instantaneous")
        traj = simulate(sc)
        for k in range(0, len(traj), 50):
            state = traj.state_at(k)
            for j, c in enumerate(sc.constraints):
                assert traj.barriers[k, j] == barrier_value(c, state), (k, j)
                if c.kind == OUTLET:
                    he = extended_barrier_value(sc.spec, c, state)
                    assert traj.extended[k, j] == he, (k, j)
                else:
                    assert math.isnan(traj.extended[k, j]), (k, j)
