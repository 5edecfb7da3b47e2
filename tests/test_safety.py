"""Controller correctness: closed-form identities, QP cross-checks, margins."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from episafe.models import build_sihrd, build_sir
from episafe.safety import (
    MULTIPLICATIVE,
    OUTLET,
    ControlDecision,
    SafetyConstraint,
    barrier_value,
    closed_form_death_control,
    closed_form_hospitalization_control,
    closed_form_infection_control,
    combined_control,
    extended_barrier_value,
    multiplicative_control,
    outlet_control,
    qp_oracle,
    validate_initial_condition,
)

from conftest import SIHRD_US, SIR_US, sample_sihrd_states, sample_sir_states

ALPHA_I = 0.02  # gamma/10 for the SIR fit
ALPHA_HD = (0.14 + 0.03 + 0.01) / 10.0  # shared outlet margin gain
ALPHA_H_E = 0.14 / 10.0  # hospital outflow / 10


def i_bound(bound=2e5, alpha=ALPHA_I, direction="upper"):
    return SafetyConstraint(MULTIPLICATIVE, 1, bound, alpha, direction=direction, name="I")


def h_bound(bound=4e4):
    return SafetyConstraint(OUTLET, 0, bound, ALPHA_HD, alpha_e=ALPHA_H_E, name="H")


def d_bound(bound=4e5):
    return SafetyConstraint(OUTLET, 2, bound, ALPHA_HD, alpha_e=ALPHA_HD, name="D")


def assert_oracle_agrees(spec, constraints, state):
    """The decision is the grid QP's answer: infeasible exactly when the
    oracle finds no grid point, otherwise within one grid step of it."""
    dec = combined_control(spec, constraints, state)
    u_star = qp_oracle(spec, constraints, state)
    assert (u_star is None) == (not dec.feasible), (u_star, dec)
    if u_star is not None:
        assert abs(u_star - dec.u_raw) <= 1e-4 + 1e-12, (u_star, dec)
    return dec


def rel_close(a, b, tol=1e-12):
    """Relative agreement with a unit floor, so values clipped to zero on
    one side and epsilon on the other still count as agreeing."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestSafetyConstraint:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SafetyConstraint("both", 0, 1.0, 0.1)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="bound"):
            SafetyConstraint(MULTIPLICATIVE, 1, 0.0, 0.1)

    def test_outlet_requires_alpha_e(self):
        with pytest.raises(ValueError, match="alpha_e"):
            SafetyConstraint(OUTLET, 0, 1e4, 0.1)

    def test_index_range_check(self, sir_spec):
        c = SafetyConstraint(MULTIPLICATIVE, 5, 1e4, 0.1)
        with pytest.raises(ValueError, match="out of range"):
            c.check_against(sir_spec)


class TestBarrierValue:
    def test_upper_bound_margin(self, sir_spec):
        state = sir_spec.state([30e6, 150000.0, 0.0])
        assert barrier_value(i_bound(), state) == 50000.0

    def test_boundary_is_zero(self, sir_spec):
        state = sir_spec.state([30e6, 2e5, 0.0])
        assert barrier_value(i_bound(), state) == 0.0

    def test_lower_bound_direction_flip(self, sir_spec):
        c = SafetyConstraint(MULTIPLICATIVE, 0, 1e6, 0.02, direction="lower")
        state = sir_spec.state([2e6, 1e5, 0.0])
        assert barrier_value(c, state) == 1e6

    def test_index_out_of_range(self, sir_spec):
        c = SafetyConstraint(OUTLET, 2, 1e4, 0.1, alpha_e=0.1)
        with pytest.raises(ValueError, match="out of range"):
            barrier_value(c, sir_spec.state([1.0, 1.0, 1.0]))

    def test_margins_are_python_floats(self, sihrd_spec):
        state = sihrd_spec.state([13e6, 1e6, 1e5, 0.0, 0.0])
        assert type(barrier_value(h_bound(), state)) is float
        assert type(extended_barrier_value(sihrd_spec, h_bound(), state)) is float


class TestMultiplicativeControl:
    def test_frozen_value(self, sir_spec):
        # by hand: ReLU(1 - (0.2*1e5 + 0.02*(2e5-1e5)) / (0.33*32.9e6*1e5/33e6))
        #        = ReLU(1 - 22000/32900)
        state = sir_spec.state([32.9e6, 1e5, 0.0])
        dec = multiplicative_control(sir_spec, i_bound(), state)
        assert dec.u_raw == pytest.approx(1.0 - 22000.0 / 32900.0, rel=1e-12)
        assert dec.u_raw == pytest.approx(0.33131, abs=5e-6)
        assert dec.u == dec.u_raw
        assert dec.feasible

    def test_inactive_far_from_bound(self, sir_spec):
        state = sir_spec.state([32.9e6, 1000.0, 0.0])
        dec = multiplicative_control(sir_spec, i_bound(), state)
        assert dec.u_raw == 0.0

    def test_singular_when_no_infected(self, sir_spec):
        # no authority, and the open loop already meets the condition
        state = sir_spec.state([33e6, 0.0, 0.0])
        dec = multiplicative_control(sir_spec, i_bound(), state)
        assert qp_oracle(sir_spec, [i_bound()], state) == 0.0
        assert dec.u_raw == 0.0 and dec.u == 0.0 and dec.feasible

    def test_single_floor_infeasible(self, sir_spec):
        # a floor on I bounds u from above; here even u = 0 lets I fall
        # faster than the margin may decay, so no u in [0, 1] is safe
        floor = i_bound(bound=5e4, direction="lower")
        state = sir_spec.state([5e6, 5.1e4, 0.0])
        dec = multiplicative_control(sir_spec, floor, state)
        assert qp_oracle(sir_spec, [floor], state) is None
        assert not dec.feasible
        assert dec.u_raw == 0.0 and dec.u == 0.0

    def test_matches_closed_form_on_random_states(self, sir_spec):
        for state in sample_sir_states(sir_spec, 1000, seed=42):
            S, I = float(state.w[0]), float(state.w[1])
            oracle = closed_form_infection_control(SIR_US, S, I, 2e5, ALPHA_I)
            dec = multiplicative_control(sir_spec, i_bound(), state)
            assert rel_close(dec.u_raw, oracle)

    def test_lower_bound_keeps_susceptibles(self, sir_spec):
        # keeping S above a floor demands intervention once depletion
        # outpaces the allowed margin decay
        c = SafetyConstraint(MULTIPLICATIVE, 0, 25e6, 1e-3, direction="lower")
        state = sir_spec.state([25.1e6, 2e6, 5.9e6])
        dec = multiplicative_control(sir_spec, c, state)
        # depletion 0.33*25.1e6*2e6/33e6 = 502000/day vs allowed 1e-3*1e5
        expected = 1.0 - (1e-3 * 0.1e6) / (0.33 * 25.1e6 * 2e6 / 33e6)
        assert dec.u_raw == pytest.approx(expected, rel=1e-12)

    def test_wrong_kind_rejected(self, sir_spec):
        with pytest.raises(ValueError, match="not multiplicative"):
            multiplicative_control(sir_spec, h_bound(), sir_spec.state([1, 1, 1]))


class TestOutletControl:
    def test_matches_hospital_closed_form(self, sihrd_spec):
        for state in sample_sihrd_states(sihrd_spec, 1000, seed=43):
            S, I, H = float(state.w[0]), float(state.w[1]), float(state.z[0])
            oracle = closed_form_hospitalization_control(
                SIHRD_US, S, I, H, 4e4, ALPHA_HD, ALPHA_H_E
            )
            dec = outlet_control(sihrd_spec, h_bound(), state)
            assert rel_close(dec.u_raw, oracle)

    def test_matches_death_closed_form(self, sihrd_spec):
        for state in sample_sihrd_states(sihrd_spec, 1000, seed=44):
            S, I, D = float(state.w[0]), float(state.w[1]), float(state.z[2])
            oracle = closed_form_death_control(
                SIHRD_US, S, I, D, 4e5, ALPHA_HD, ALPHA_HD
            )
            dec = outlet_control(sihrd_spec, d_bound(), state)
            assert rel_close(dec.u_raw, oracle)

    def test_singular_without_infected(self, sihrd_spec):
        # no authority, and the draining ward shrinks h_e faster than its
        # decay bound allows: infeasible for every u
        state = sihrd_spec.state([15e6, 0.0, 1e4, 0.0, 0.0])
        dec = outlet_control(sihrd_spec, h_bound(), state)
        assert qp_oracle(sihrd_spec, [h_bound()], state) is None
        assert not dec.feasible and dec.u_raw == 0.0


class TestExtendedBarrier:
    def test_zero_inflow(self, sihrd_spec):
        state = sihrd_spec.state([15e6, 0.0, 0.0, 0.0, 0.0])
        he = extended_barrier_value(sihrd_spec, h_bound(), state)
        assert he == pytest.approx(ALPHA_HD * 4e4, rel=1e-12)

    def test_frozen_value(self, sihrd_spec):
        # by hand: -(0.03e6 - 0.014e6) + 0.018*(4e4 - 1e5) = -16000 - 1080
        state = sihrd_spec.state([13e6, 1e6, 1e5, 0.0, 0.0])
        he = extended_barrier_value(sihrd_spec, h_bound(), state)
        assert he == pytest.approx(-17080.0, rel=1e-12)

    def test_rejects_multiplicative(self, sihrd_spec):
        with pytest.raises(ValueError, match="outlet"):
            extended_barrier_value(
                sihrd_spec, i_bound(), sihrd_spec.state([1, 1, 1, 1, 1])
            )


class TestValidateInitialCondition:
    def test_multiplicative_pass_and_fail(self, sir_spec):
        ok = validate_initial_condition(sir_spec, [i_bound()], sir_spec.state([1e6, 1e5, 0]))
        assert ok.ok
        bad = validate_initial_condition(sir_spec, [i_bound()], sir_spec.state([1e6, 3e5, 0]))
        assert not bad.ok and bad.failures()[0].margin == -1e5

    def test_outlet_requires_extended_margin(self, sihrd_spec):
        # inside the bound but inflow already too fast: h >= 0, h_e < 0
        state = sihrd_spec.state([13e6, 1e6, 1e5, 0.0, 0.0])
        rep = validate_initial_condition(sihrd_spec, [h_bound(1.2e5)], state)
        assert rep.checks[0].margin > 0.0
        assert rep.checks[0].extended_margin < 0.0
        assert not rep.ok

    def test_outlet_pass(self, sihrd_spec):
        state = sihrd_spec.state([14.9e6, 1.5e4, 3e3, 3e4, 1e3])
        rep = validate_initial_condition(sihrd_spec, [h_bound(), d_bound()], state)
        assert rep.ok
        assert "ok" in rep.describe()


class TestSignAssumption:
    """The paper's max composition assumes every control coefficient is
    negative.  The QP kernel is exact whether that holds or fails."""

    def test_holds_for_infection_bound(self, sir_spec):
        state = sir_spec.state([1e6, 1e3, 0])
        assert float(sir_spec.g_t(state.w.tolist())[1]) < 0.0
        dec = assert_oracle_agrees(sir_spec, [i_bound()], state)
        assert dec.u_raw == multiplicative_control(sir_spec, i_bound(), state).u_raw

    def test_holds_for_outlet_bounds(self, sihrd_spec):
        state = sihrd_spec.state([1e6, 1e3, 10.0, 0.0, 0.0])
        dec = assert_oracle_agrees(sihrd_spec, [h_bound(), d_bound()], state)
        assert dec.u_raw == max(
            outlet_control(sihrd_spec, h_bound(), state).u_raw,
            outlet_control(sihrd_spec, d_bound(), state).u_raw,
        )

    def test_degenerate_zero_is_false(self, sir_spec):
        state = sir_spec.state([1e6, 0.0, 0.0])
        assert float(sir_spec.g_t(state.w.tolist())[1]) == 0.0
        dec = assert_oracle_agrees(sir_spec, [i_bound()], state)
        assert dec.u_raw == 0.0

    def test_upper_bound_on_susceptibles_fails(self, sir_spec):
        # a cap on S: the input raises S, so it bounds u from above
        c = SafetyConstraint(MULTIPLICATIVE, 0, 30e6, 0.02)
        state = sir_spec.state([1e6, 1e3, 0.0])
        assert float(sir_spec.g_t(state.w.tolist())[0]) > 0.0
        dec = assert_oracle_agrees(sir_spec, [c], state)
        assert dec.u_raw == 0.0


class TestCombinedControl:
    def test_max_of_constituents(self, sihrd_spec):
        state = sihrd_spec.state([14e6, 2e5, 3.5e4, 1e5, 1e3])
        dec_h = outlet_control(sihrd_spec, h_bound(), state)
        dec_d = outlet_control(sihrd_spec, d_bound(), state)
        dec = combined_control(sihrd_spec, [h_bound(), d_bound()], state)
        assert dec.u_raw == max(dec_h.u_raw, dec_d.u_raw)
        assert dec.active_constraint == (0 if dec_h.u_raw >= dec_d.u_raw else 1)

    def test_all_zero_when_inactive(self, sihrd_spec):
        state = sihrd_spec.state([1e6, 1e2, 10.0, 0.0, 0.0])
        dec = combined_control(sihrd_spec, [h_bound(), d_bound()], state)
        assert dec.u_raw == 0.0
        assert dec.active_constraint == 0  # tie resolves to the first

    def test_empty_list_rests(self, sihrd_spec):
        dec = combined_control(sihrd_spec, [], sihrd_spec.state([1, 1, 1, 1, 1]))
        assert dec == ControlDecision.rest()

    def test_assumption_violation_matches_oracle(self, sir_spec):
        c_up_s = SafetyConstraint(MULTIPLICATIVE, 0, 30e6, 0.02)
        state = sir_spec.state([1e6, 1e3, 0.0])
        dec = assert_oracle_agrees(sir_spec, [i_bound(), c_up_s], state)
        assert dec.feasible

    def test_cap_and_floor_on_infected(self, sir_spec):
        # the cap demands u >= 0.3313 (see test_frozen_value), the floor
        # allows u <= 13900/32900: the cap's law is the min-norm answer
        state = sir_spec.state([32.9e6, 1e5, 0.0])
        cons = [i_bound(), i_bound(bound=5e4, direction="lower")]
        dec = assert_oracle_agrees(sir_spec, cons, state)
        assert dec.u_raw == multiplicative_control(sir_spec, i_bound(), state).u_raw
        assert dec.active_constraint == 0 and dec.feasible

    def test_floor_below_cap_demand_is_infeasible(self, sir_spec):
        # I sits above its cap: the cap needs I to fall faster than the
        # floor's slow margin decay allows, so no u meets both
        state = sir_spec.state([32.9e6, 2.5e5, 0.0])
        cons = [i_bound(), i_bound(bound=1e5, alpha=1e-3, direction="lower")]
        dec = assert_oracle_agrees(sir_spec, cons, state)
        assert not dec.feasible
        assert dec.u == dec.u_raw  # the lower bound is honoured


class TestQpOracle:
    def test_inactive_constraint_gives_zero(self, sir_spec):
        state = sir_spec.state([32.9e6, 1000.0, 0.0])
        assert qp_oracle(sir_spec, [i_bound()], state) == 0.0

    def test_matches_multiplicative_within_grid_step(self, sir_spec):
        for state in sample_sir_states(sir_spec, 200, seed=5):
            dec = multiplicative_control(sir_spec, i_bound(), state)
            u_star = qp_oracle(sir_spec, [i_bound()], state)
            if dec.feasible:
                assert u_star is not None
                assert abs(u_star - dec.u_raw) <= 1e-4 + 1e-12
            else:
                assert u_star is None or abs(u_star - 1.0) <= 1e-4

    def test_matches_combined_within_grid_step(self, sihrd_spec):
        cons = [h_bound(), d_bound()]
        for state in sample_sihrd_states(sihrd_spec, 200, seed=6):
            dec = combined_control(sihrd_spec, cons, state)
            u_star = qp_oracle(sihrd_spec, cons, state)
            if dec.feasible:
                assert u_star is not None
                assert abs(u_star - dec.u_raw) <= 1e-4 + 1e-12
            else:
                assert u_star is None or abs(u_star - 1.0) <= 1e-4

    def test_infeasible_reported_as_none(self, sir_spec):
        # far outside the safe set with a large gain the demand exceeds 1
        c = i_bound(bound=1e4, alpha=5.0)
        state = sir_spec.state([3e6, 2e6, 0.0])
        dec = multiplicative_control(sir_spec, c, state)
        assert not dec.feasible and dec.u == 1.0
        assert qp_oracle(sir_spec, [c], state) is None


# -- property-based invariants ------------------------------------------------

sane_sir = st.tuples(
    st.floats(0.05, 1.0),      # S fraction of N
    st.floats(1e-5, 0.5),      # I fraction of N
    st.floats(1e4, 5e5),       # bound
    st.floats(1e-3, 1.0),      # alpha
)


@given(sane_sir)
def test_relu_nonnegative_and_kink(params):
    s_frac, i_frac, bound, alpha = params
    spec = build_sir(SIR_US)
    state = spec.state([s_frac * 33e6, i_frac * 33e6, 0.0])
    c = SafetyConstraint(MULTIPLICATIVE, 1, bound, alpha, name="I")
    dec = multiplicative_control(spec, c, state)
    assert dec.u_raw >= 0.0
    assert dec.u == min(max(dec.u_raw, 0.0), 1.0)
    assert dec.feasible == (dec.u_raw <= 1.0)
    # u_raw = 0 exactly when the open loop already satisfies the condition
    fi = float(spec.f_t(state.w.tolist())[1])
    drift = fi - alpha * (bound - float(state.w[1]))
    assert (dec.u_raw == 0.0) == (-drift >= 0.0)


@given(sane_sir)
def test_safety_condition_certified_pointwise(params):
    s_frac, i_frac, bound, alpha = params
    spec = build_sir(SIR_US)
    state = spec.state([s_frac * 33e6, i_frac * 33e6, 0.0])
    c = SafetyConstraint(MULTIPLICATIVE, 1, bound, alpha, name="I")
    dec = multiplicative_control(spec, c, state)
    if dec.feasible:
        # recompute the condition from the model evaluators
        fi = float(spec.f_t(state.w.tolist())[1])
        gi = float(spec.g_t(state.w.tolist())[1])
        drift = fi - alpha * (bound - float(state.w[1]))
        assert -drift - gi * dec.u_raw >= -1e-9


@given(sane_sir)
def test_stronger_decay_gain_never_raises_demand(params):
    s_frac, i_frac, bound, alpha = params
    spec = build_sir(SIR_US)
    I = i_frac * 33e6
    state = spec.state([s_frac * 33e6, I, 0.0])
    if not bound - I > 0.0:  # property holds inside the safe set
        return
    lo = multiplicative_control(
        spec, SafetyConstraint(MULTIPLICATIVE, 1, bound, alpha), state
    )
    hi = multiplicative_control(
        spec, SafetyConstraint(MULTIPLICATIVE, 1, bound, 10.0 * alpha), state
    )
    assert hi.u_raw <= lo.u_raw + 1e-12


@given(st.floats(0.01, 0.99), st.floats(1e-4, 0.4))
def test_outlet_safety_condition_certified(h_frac, i_frac):
    spec = build_sihrd(SIHRD_US)
    N = SIHRD_US.N
    state = spec.state([0.8 * N, i_frac * N, h_frac * 0.02 * N, 0.0, 0.0])
    c = h_bound()
    dec = outlet_control(spec, c, state)
    if dec.feasible:
        w, z = state.w.tolist(), state.z.tolist()
        dq = np.asarray(spec.dq_dw_t(w))[0]
        dr = np.asarray(spec.dr_dz_t(z))[0]
        flow = np.asarray(spec.q_t(w)) + np.asarray(spec.r_t(z))
        drift = (
            float(dq @ np.asarray(spec.f_t(w)))
            + float(dr @ flow)
            + (c.alpha + c.alpha_e) * float(flow[0])
            - c.alpha_e * c.alpha * (c.bound - float(state.z[0]))
        )
        authority = float(dq @ np.asarray(spec.g_t(w)))
        assert -drift - authority * dec.u_raw >= -1e-9
