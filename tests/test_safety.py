"""Controller correctness: closed-form identities, QP cross-checks, margins."""

import dataclasses
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from episafe import safety
from episafe.engine import make_input_fn
from episafe.models import (
    MODELS,
    SeirParams,
    SirParams,
    build_model,
    steered,
)
from episafe.safety import (
    MULTIPLICATIVE,
    OUTLET,
    ControlDecision,
    SafetyConstraint,
    barrier_value,
    combined_control,
    extended_barrier_value,
    multiplicative_control,
    outlet_control,
    validate_initial_condition,
)

from conftest import (
    SIHRD_US,
    SIR_US,
    dense_linear_spec,
    sample_sihrd_states,
    sample_sir_states,
)
from oracles import (
    clamp01,
    closed_form_death_control,
    closed_form_hospitalization_control,
    closed_form_infection_control,
    numpy_margins,
    qp_oracle,
    reference_model,
    reference_solver,
)

ALPHA_I = 0.02  # gamma/10 for the SIR fit
ALPHA_HD = (0.14 + 0.03 + 0.01) / 10.0  # shared outlet margin gain
ALPHA_H_E = 0.14 / 10.0  # hospital outflow / 10


def i_bound(bound=2e5, alpha=ALPHA_I, direction="upper"):
    return SafetyConstraint(MULTIPLICATIVE, 1, bound, alpha, direction=direction, name="I")


def h_bound(bound=4e4):
    return SafetyConstraint(OUTLET, 0, bound, ALPHA_HD, alpha_e=ALPHA_H_E, name="H")


def d_bound(bound=4e5):
    return SafetyConstraint(OUTLET, 2, bound, ALPHA_HD, alpha_e=ALPHA_HD, name="D")


def random_cases(sir_spec, sihrd_spec):
    """600 (spec, state, constraints) cases: random SIR and SIHRD states,
    each with one constraint of random bound, gains and direction on every
    compartment."""
    rng = np.random.default_rng(717)
    cases = [(sir_spec, s) for s in sample_sir_states(sir_spec, 300, 718)]
    cases += [(sihrd_spec, s) for s in sample_sihrd_states(sihrd_spec, 300, 719)]
    for spec, state in cases:
        cons = [
            SafetyConstraint(
                kind, j, float(rng.uniform(0.001, 0.6)) * spec.params.N,
                float(rng.uniform(1e-3, 1.0)),
                alpha_e=float(rng.uniform(1e-3, 1.0)) if kind == OUTLET else None,
                direction=("upper", "lower")[int(rng.integers(2))],
            )
            for kind, size in ((MULTIPLICATIVE, spec.n), (OUTLET, spec.m))
            for j in range(size)
        ]
        yield spec, state, cons


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

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError) as err:
            SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 0.02, direction="up")
        assert str(err.value) == "unknown direction 'up'"

    @pytest.mark.parametrize("alpha", [0.0, -0.02, math.nan])
    def test_rejects_non_positive_alpha(self, alpha):
        with pytest.raises(ValueError, match="^alpha must be strictly positive$"):
            SafetyConstraint(MULTIPLICATIVE, 1, 2e5, alpha)

    @pytest.mark.parametrize(
        "name", ["cap,I", ",", "cap\nI", "cap\r", "cap\x0bI", "cap#1", " I ", "I\t", " "]
    )
    def test_rejects_comma_or_line_break_in_name(self, name):
        # the name heads a CSV column, so it may not split the header, and
        # the scenario format cuts a line at '#' and strips each value, so
        # it would come back changed, or as 'name =', which does not parse
        message = (
            f"name {name!r} must not contain a comma, '#' or a line break,"
            " nor start or end with whitespace"
        )
        with pytest.raises(ValueError) as err:
            SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 0.02, name=name)
        assert str(err.value) == message

    @pytest.mark.parametrize("index", [-1, 1.5, "1"])
    def test_rejects_an_index_that_is_not_a_non_negative_integer(self, index):
        # a float index would build, then fail at every use as a list index
        with pytest.raises(ValueError, match="^compartment index must be a non-negative integer$"):
            SafetyConstraint(MULTIPLICATIVE, index, 2e5, 0.02)

    def test_index_accepts_numpy_integers(self):
        assert SafetyConstraint(MULTIPLICATIVE, np.int64(1), 2e5, 0.02).index == 1

    def test_label_needs_its_position(self):
        # an unnamed constraint is labelled by its place in its set
        c = SafetyConstraint(OUTLET, 0, 1e4, 0.1, alpha_e=0.1)
        assert c.label(3) == "c3_z0"
        assert dataclasses.replace(c, name="H").label(3) == "H"
        with pytest.raises(TypeError):
            c.label()

    def test_index_range_check(self):
        # position is a compartment's entry in the flat state, for every
        # compartment of each catalogue model that takes a constraint; one
        # past the end of either block is refused with its block's size
        for model, (rates, table) in MODELS.items():
            spec = build_model(rates(**{p: 1e6 if p == "N" else 0.1 for p in table.params}))
            for label in steered(table):
                kind, block = (MULTIPLICATIVE, table.w) if label in table.w else (OUTLET, table.z)
                c = SafetyConstraint(kind, block.index(label), 1e4, 0.1, alpha_e=0.1)
                assert c.position(spec) == spec.labels.index(label), (model, label)
            for kind, size in ((MULTIPLICATIVE, spec.n), (OUTLET, spec.m)):
                c = SafetyConstraint(kind, size, 1e4, 0.1, alpha_e=0.1)
                message = (
                    f"{kind} index {size} out of range for model {model!r} ({size} compartments)"
                )
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    c.position(spec)


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
    def test_rejects_a_multiplicative_constraint(self, sir_spec):
        state = sir_spec.state([26e6, 1e5, 6.9e6])
        with pytest.raises(ValueError, match="^constraint is not an outlet constraint$"):
            outlet_control(sir_spec, i_bound(), state)

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

    @pytest.mark.parametrize("kind", ["sir", "seir", "sihrd"])
    def test_exact_against_the_hand_written_outflow(self, kind):
        # h_e = s*(-(q_j + r_j) + alpha*(bound - z_j)) with q and r of the
        # hand-written model, bit for bit: on random states, each
        # compartment in turn +-0.0, NaN, +-inf and subnormal, and bounds
        # finite, inf and equal to z_j
        spec = {
            "sir": build_model(SIR_US),
            "seir": build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2)),
            "sihrd": build_model(SIHRD_US),
        }[kind]
        model = reference_model(spec)
        rng = np.random.default_rng(808)
        N, size = spec.params.N, spec.n + spec.m
        states = [rng.uniform(0.0, N, size).tolist() for _ in range(40)]
        for k in range(size):
            for value in (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324):
                x = rng.uniform(0.0, N, size).tolist()
                x[k] = value
                states.append(x)

        def want(c, x):
            w, z = x[: spec.n], x[spec.n :]
            outflow = model["q_t"](w)[c.index] + model["r_t"](z)[c.index]
            return c.sign * (-outflow + c.alpha * (c.bound - z[c.index]))

        def check(cons, rows):
            flat = [v for x in rows for v in x]
            extended = zip(*safety._margins(spec, cons, flat, extended=True))
            for x, row in zip(rows, extended):
                assert [v.hex() for v in row] == [want(c, x).hex() for c in cons], x
                if not any(v < 0.0 for v in x):  # a state ModelState accepts
                    state = spec.state(x)
                    got = [extended_barrier_value(spec, c, state).hex() for c in cons]
                    assert got == [want(c, x).hex() for c in cons], x

        def outlet(j, bound, direction):
            return SafetyConstraint(OUTLET, j, bound, 0.3, alpha_e=0.2, direction=direction)

        directions = ("upper", "lower")
        bounds = (0.01 * N, math.inf)
        check(tuple(outlet(j, b, d) for j in range(spec.m) for b in bounds for d in directions),
              states)
        for x in states:  # bound equal to z_j
            for j, zj in enumerate(x[spec.n :]):
                if 0.0 < zj < math.inf:
                    check(tuple(outlet(j, zj, d) for d in directions), [x])


class TestValidateInitialCondition:
    def test_multiplicative_pass_and_fail(self, sir_spec):
        ok = validate_initial_condition(sir_spec, [i_bound()], sir_spec.state([1e6, 1e5, 0]))
        assert ok.ok
        bad = validate_initial_condition(sir_spec, [i_bound()], sir_spec.state([1e6, 3e5, 0]))
        assert not bad.ok and [c.margin for c in bad.checks if not c.ok] == [-1e5]

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

    def test_margins_match_scalar_forms(self, sir_spec, sihrd_spec):
        # the report's margins come from the list evaluator; they must
        # carry the bits of barrier_value and extended_barrier_value
        for spec, state, cons in random_cases(sir_spec, sihrd_spec):
            report = validate_initial_condition(spec, cons, state)
            for c, check in zip(cons, report.checks):
                assert type(check.margin) is float
                assert check.margin.hex() == barrier_value(c, state).hex()
                if c.kind == OUTLET:
                    want = extended_barrier_value(spec, c, state)
                    assert check.extended_margin.hex() == want.hex()
                    assert check.ok == (check.margin >= 0.0 and want >= 0.0)
                else:
                    assert check.extended_margin is None
                    assert check.ok == (check.margin >= 0.0)

    def test_infinite_margins_match_scalar_forms(self, sihrd_spec):
        # inf - inf is NaN in both forms, and the list form warns no more
        # than the scalar one (warnings fail the run)
        state = sihrd_spec.state([1e6, math.inf, math.inf, 0.0, 0.0])
        cons = (
            SafetyConstraint(MULTIPLICATIVE, 1, math.inf, 0.1),
            h_bound(math.inf),
            SafetyConstraint(OUTLET, 2, 1e4, 0.1, alpha_e=0.2, direction="lower"),
        )
        report = validate_initial_condition(sihrd_spec, cons, state)
        assert [check.margin.hex() for check in report.checks] == [
            barrier_value(c, state).hex() for c in cons
        ]
        assert [check.extended_margin.hex() for check in report.checks[1:]] == [
            extended_barrier_value(sihrd_spec, c, state).hex() for c in cons[1:]
        ]
        assert math.isnan(report.checks[0].margin) and not report.ok

    def test_flat_and_state_reports_match_the_matrix_margins(self, sir_spec, sihrd_spec):
        # simulate passes its flat list; a caller may pass a ModelState.
        # Either way the report carries the bits the matrix formulas of
        # oracles.numpy_margins give on the one-row matrix, and raises no
        # warning: also where entries near 1e308 or inf and inf bounds make
        # margins of inf, -inf and NaN
        rng = np.random.default_rng(734)
        seen = set()
        specs = (
            sir_spec,
            build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2)),
            sihrd_spec,
            dense_linear_spec(rng),
        )
        for case in range(800):
            spec = specs[case % len(specs)]
            N, size = spec.params.N, spec.n + spec.m
            x = (rng.uniform(0.0, 1.0, size=size) * N).tolist()
            if case % 3 == 0:
                for i in rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False):
                    x[i] = math.inf if rng.random() < 0.2 else float(rng.uniform(0.5, 1.79)) * 1e308
            cons = []
            for _ in range(int(rng.integers(1, 5))):
                kind = (MULTIPLICATIVE, OUTLET)[int(rng.integers(2))]
                bound = float(rng.uniform(0.001, 0.6)) * N
                cons.append(SafetyConstraint(
                    kind, int(rng.integers(spec.n if kind == MULTIPLICATIVE else spec.m)),
                    math.inf if rng.random() < 0.3 else bound,
                    float(rng.uniform(1e-3, 1.0)),
                    alpha_e=float(rng.uniform(1e-3, 1.0)) if kind == OUTLET else None,
                    direction=("upper", "lower")[int(rng.integers(2))],
                ))
            [barriers], [extended] = numpy_margins(spec, cons, [x])
            want = [
                (c.label(k), h.hex(), None if c.kind != OUTLET else he.hex(),
                 h >= 0.0 and (c.kind != OUTLET or he >= 0.0))
                for k, (c, h, he) in enumerate(zip(cons, barriers.tolist(), extended.tolist()))
            ]
            seen.update(v for _, h, he, _ in want for v in (h, he) if v in ("inf", "-inf", "nan"))
            for state in (x, spec.state(x)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    report = validate_initial_condition(spec, cons, state)
                got = [
                    (check.label, check.margin.hex(),
                     None if check.extended_margin is None else check.extended_margin.hex(),
                     check.ok)
                    for check in report.checks
                ]
                assert got == want, (spec.kind, x, cons)
        assert seen == {"inf", "-inf", "nan"}

    def test_numpy_scalars_give_the_float_report(self, sihrd_spec):
        # a list of numpy float64 scalars: the transmission term overflows
        # to inf with no numpy warning, and the report is the one of the
        # Python floats, which fails on h_e
        x = [np.float64(1.7e308), np.float64(1.7e308), 1e4, 1e4, 1e3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_initial_condition(sihrd_spec, [h_bound()], x)
        want = validate_initial_condition(sihrd_spec, [h_bound()], [*map(float, x)])
        assert report == want
        assert not report.ok and report.checks[0].margin > 0.0


class TestSignAssumption:
    """The paper's max composition assumes every control coefficient is
    negative.  The QP kernel is exact whether that holds or fails."""

    def test_holds_for_infection_bound(self, sir_spec):
        state = sir_spec.state([1e6, 1e3, 0])
        assert reference_model(sir_spec)["g_t"](state.w.tolist())[1] < 0.0
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
        assert reference_model(sir_spec)["g_t"](state.w.tolist())[1] == 0.0
        dec = assert_oracle_agrees(sir_spec, [i_bound()], state)
        assert dec.u_raw == 0.0

    def test_upper_bound_on_susceptibles_fails(self, sir_spec):
        # a cap on S: the input raises S, so it bounds u from above
        c = SafetyConstraint(MULTIPLICATIVE, 0, 30e6, 0.02)
        state = sir_spec.state([1e6, 1e3, 0.0])
        assert reference_model(sir_spec)["g_t"](state.w.tolist())[0] > 0.0
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
        assert dec == ControlDecision(0.0, 0.0, True, None)

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

    def test_flat_list_gives_the_bits_of_the_state(self, sir_spec, sihrd_spec):
        # the plant loop hands the law its flat [w; z] list; every public
        # control function must decide exactly as on the ModelState
        def key(dec):
            return dec.u_raw.hex(), dec.u.hex(), dec.feasible, dec.active_constraint

        for spec, state, cons in random_cases(sir_spec, sihrd_spec):
            x = spec.flat(state)
            calls = [lambda s: combined_control(spec, cons, s)]
            for c in cons:
                control = multiplicative_control if c.kind == MULTIPLICATIVE else outlet_control
                calls.append(lambda s, c=c, control=control: control(spec, c, s))
            for call in calls:
                assert key(call(x)) == key(call(state))

    @pytest.mark.parametrize("bad", [
        [math.nan, 1e5, 1e6],
        [1e7, -math.inf, 1e6],  # -1e-9 * inf makes the population floor -inf
        [1e7, 1e5, math.inf],
        [math.inf, 1e5, -math.inf],  # the sum is NaN
    ])
    def test_non_finite_state_is_refused(self, sir_spec, bad):
        # a state holding NaN or an infinity is no state to rest at
        message = f"^{re.escape(f'state must be finite, got {bad}')}$"
        for call in (
            lambda x: combined_control(sir_spec, [i_bound()], x),
            lambda x: combined_control(sir_spec, [], x),
            lambda x: multiplicative_control(sir_spec, i_bound(), x),
            lambda x: combined_control(sir_spec, [i_bound()], sir_spec.state(x)),
        ):
            with pytest.raises(ValueError, match=message):
                call(list(bad))

    def test_non_finite_sihrd_state_is_refused_by_outlet_control(self, sihrd_spec):
        with pytest.raises(ValueError, match="^state must be finite, got "):
            outlet_control(sihrd_spec, h_bound(), [1e6, math.nan, 10.0, 0.0, 0.0])

    def test_finite_state_whose_sum_overflows_is_decided(self, sir_spec):
        # only the fast check's sum overflows; every entry is finite
        x = [1.5e308, 1.5e308, 0.0]
        assert math.isinf(sum(x))
        dec = combined_control(sir_spec, [i_bound()], x)
        assert dec == combined_control(sir_spec, [i_bound()], sir_spec.state(x))

    def test_decision_is_an_immutable_named_tuple(self, sir_spec):
        dec = combined_control(sir_spec, [i_bound()], sir_spec.state([32.9e6, 1e5, 0.0]))
        assert ControlDecision._fields == ("u_raw", "u", "feasible", "active_constraint")
        with pytest.raises(AttributeError):
            dec.u = 0.5
        assert dec._replace(u=0.5) == ControlDecision(dec.u_raw, 0.5, dec.feasible, 0)

    def test_concurrent_callers_get_the_serial_bits(self, sir_spec, sihrd_spec):
        # every caller shares the memo's last-used slot: threads interleaving
        # two specs and two constraint sets on each must still each get the
        # law of their own request
        s_floor = SafetyConstraint(MULTIPLICATIVE, 0, 1e5, 0.3, direction="lower")
        requests = [
            (spec, cons, spec.flat(state))
            for spec, sets, states in (
                (sir_spec, ((i_bound(),), (i_bound(), s_floor)),
                 sample_sir_states(sir_spec, 25, 5)),
                (sihrd_spec, ((h_bound(),), (h_bound(), d_bound())),
                 sample_sihrd_states(sihrd_spec, 25, 6)),
            )
            for cons in sets
            for state in states
        ]

        def key(dec):
            return dec.u_raw.hex(), dec.u.hex(), dec.feasible, dec.active_constraint

        want = [key(combined_control(*request)) for request in requests]
        orders = [np.random.default_rng(seed).permutation(len(requests)) for seed in range(4)]
        got = [[] for _ in orders]

        def work(order, out):
            for _ in range(20):
                out.extend((i, key(combined_control(*requests[i]))) for i in order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=args) for args in zip(orders, got)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in got:
            assert len(out) == 20 * len(requests)
            assert all(k == want[i] for i, k in out)


class TestRepeatRequest:
    """combined_control's repeat path: a second request with the same spec
    and constraint tuple objects runs the state check generated for the
    state's length.  It must refuse what the first request refuses, with
    the same message, and decide as solve does on the checked state."""

    @staticmethod
    def spec(kind):
        if kind == "dense":
            return dense_linear_spec(np.random.default_rng(31))
        return {
            "sir": lambda: build_model(SIR_US),
            "seir": lambda: build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2)),
            "sihrd": lambda: build_model(SIHRD_US),
        }[kind]()

    @staticmethod
    def constraints(spec):
        """A fresh tuple, so its first request misses the last-used slot."""
        N = spec.params.N
        return (
            SafetyConstraint(MULTIPLICATIVE, 1, 0.01 * N, 0.02),
            SafetyConstraint(OUTLET, 0, 0.4 * N, 0.1, alpha_e=0.2, direction="lower"),
        )

    @staticmethod
    def refusal(spec, cons, state):
        with pytest.raises(ValueError) as err:
            combined_control(spec, cons, state)
        return str(err.value)

    @pytest.mark.parametrize("kind", ["sir", "seir", "sihrd", "dense"])
    def test_repeat_refuses_as_the_first_request(self, kind):
        spec = self.spec(kind)
        size = spec.n + spec.m
        good = [0.8 * spec.params.N] + [1e5] * (size - 1)
        below = [-544.0462618039367, 1522.7801795513326, 21.26608225260417]
        other = build_model(SIHRD_US if kind == "sir" else SIR_US)
        floor = "negative population -544.046 in state (floor -2.08809e-06)"
        cases = [
            (good[:-1], f"state has {size - 1} entries, model has {size}"),
            (good + [1.0], f"state has {size + 1} entries, model has {size}"),
            (tuple(good[:-1]), f"state has {size - 1} entries, model has {size}"),
            (below + [0.0] * (size - 3), floor),
            (tuple(below + [0.0] * (size - 3)), floor),
            (other.state([1e5] * (other.n + other.m)),
             f"state dimensions ({other.n}, {other.m}) do not match model ({spec.n}, {spec.m})"),
        ]
        for bad in (
            [math.nan, 1e5, 1e6],
            [1e7, -math.inf, 1e6],
            [1e7, 1e5, math.inf],
            [math.inf, 1e5, -math.inf],
        ):
            x = bad + [1e5] * (size - 3)
            cases.append((x, f"state must be finite, got {x}"))
            cases.append((tuple(x), f"state must be finite, got {tuple(x)}"))
            # a numpy row is refused as its list, with no warning on the
            # way: +inf and -inf would make numpy's sum warn
            cases.append((np.array(x), f"state must be finite, got {x}"))
        for state, message in cases:
            cons = self.constraints(spec)
            first = self.refusal(spec, cons, state)
            combined_control(spec, cons, good)  # fills the slot
            assert safety._last[0] is spec and safety._last[1] is cons
            assert self.refusal(spec, cons, state) == first == message

    def test_first_request_names_the_constraint_before_the_state(self):
        # the constraints are checked against the model as solve is built,
        # before the state reaches the one state check
        spec = build_model(SIR_US)
        cons = (SafetyConstraint(MULTIPLICATIVE, 5, 1e4, 0.1),)
        message = "multiplicative index 5 out of range for model 'sir' (2 compartments)"
        assert self.refusal(spec, cons, [1e5, 1e5]) == message

    def test_request_without_constraints_checks_its_state(self):
        # the first request and its repeat refuse alike, then rest at u = 0
        spec, cons = build_model(SIR_US), ()
        x = [math.nan, 1e5, 1e6]
        for _ in range(2):
            assert self.refusal(spec, cons, x) == f"state must be finite, got {x}"
            assert safety._last[0] is spec and safety._last[1] is cons
        assert combined_control(spec, cons, [1e7, 1e5, 1e6]) == (0.0, 0.0, True, None)

    @pytest.mark.parametrize("kind", ["sir", "seir", "sihrd", "dense"])
    def test_repeat_decides_as_solve(self, kind):
        def key(dec):
            return dec.u_raw.hex(), dec.u.hex(), dec.feasible, dec.active_constraint

        spec = self.spec(kind)
        cons = self.constraints(spec)
        solve = safety._solver(spec, cons)
        rng = np.random.default_rng(32)
        N, size = spec.params.N, spec.n + spec.m
        for k in range(100):
            x = [float(rng.uniform(0.05, 1.0)) * N]
            x += rng.uniform(0.0, 0.02 * N, size=size - 1).tolist()
            if k % 7 == 0:
                x[spec.labels.index("I")] = 0.0
            if k % 5 == 0:
                x[-1] = -1e-3  # negative, but above the population floor
            for state in (x, tuple(x), np.array([x, x])[1], spec.state(x)):
                want = key(solve(spec.flat(state)))
                assert key(combined_control(spec, cons, state)) == want, (state, cons)
                assert safety._last[1] is cons
                assert key(combined_control(spec, cons, state)) == want, (state, cons)


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


def solved(d):
    """A decision of the generated solve in the order of
    oracles.reference_solver: (u_raw, active, feasible)."""
    return d.u_raw, d.active_constraint, d.feasible


class TestUnrolledOutletTerms:
    """The solve of safety._solver takes its outlet dot products unrolled;
    they must give the bits of the left-to-right loop in
    oracles.reference_solver."""

    @staticmethod
    def random_case(rng, spec, k):
        """A state (I = 0 at every seventh k) and a random subset of caps
        and floors on every outlet compartment, sometimes with a cap on I."""
        N = spec.params.N
        x = [float(rng.uniform(0.05, 1.0)) * N]
        x += rng.uniform(0.0, 0.01 * N, size=spec.n + spec.m - 1).tolist()
        i = spec.labels.index("I")
        if k % 7 == 0:
            x[i] = 0.0
        w, z = x[: spec.n], x[spec.n :]
        cons = []
        for j in range(spec.m):
            upper = bool(rng.integers(2))
            scale = rng.uniform(1.0, 3.0) if upper else rng.uniform(0.3, 1.0)
            cons.append(SafetyConstraint(
                OUTLET, j, z[j] * float(scale) + 1.0, float(rng.uniform(1e-3, 0.5)),
                alpha_e=float(rng.uniform(1e-3, 0.5)), direction="upper" if upper else "lower",
            ))
        if k % 3 == 0:
            cons.append(SafetyConstraint(
                MULTIPLICATIVE, i, max(w[i], 1.0) * float(rng.uniform(0.8, 3.0)),
                float(rng.uniform(1e-3, 1.0)),
            ))
        rng.shuffle(cons)
        return w, z, tuple(cons[: rng.integers(1, len(cons) + 1)])

    def test_solver_matches_sum_reference(self, sihrd_spec):
        rng = np.random.default_rng(515)
        specs = (
            build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2)),
            sihrd_spec,
            dense_linear_spec(rng),
        )
        outcomes = set()
        for k in range(3000):
            spec = specs[k % 3]
            w, z, cons = self.random_case(rng, spec, k)
            got = solved(safety._solver(spec, cons)(w + z))
            want = reference_solver(spec, cons)(w, z)
            assert (got[0].hex(), got[1:]) == (want[0].hex(), want[1:]), (spec.kind, w, z, cons)
            outcomes.add((spec.kind, got[0] > 0.0, got[2]))
        # raised, resting and infeasible decisions all occur on both models
        # that have authority over an outlet
        for kind in ("sihrd", "dense"):
            assert {(kind, True, True), (kind, False, True), (kind, True, False)} <= outcomes


class TestGeneratedKernels:
    """The law's one entry point, solve, that safety generates per shape of
    constraint set, bit for bit against oracles.reference_solver: behind
    the public control functions, and behind the rollout law of
    engine.make_input_fn."""

    @staticmethod
    def cases(count, seed):
        """(spec, x, constraints) over SIR, SEIR, SIHRD and the dense model:
        I = 0 at every seventh state and a NaN compartment at every
        thirteenth; random caps and floors on both blocks, a duplicated
        first constraint (an exact tie) at every fifth case and a bound of
        inf at every eleventh."""
        rng = np.random.default_rng(seed)
        specs = (
            build_model(SIR_US),
            build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2)),
            build_model(SIHRD_US),
            dense_linear_spec(rng),
        )
        for k in range(count):
            spec = specs[k % 4]
            N = spec.params.N
            x = [float(rng.uniform(0.05, 1.0)) * N]
            x += rng.uniform(0.0, 0.01 * N, size=spec.n + spec.m - 1).tolist()
            if k % 7 == 0:
                x[spec.labels.index("I")] = 0.0
            cons = []
            blocks = ((MULTIPLICATIVE, spec.n, x[: spec.n]), (OUTLET, spec.m, x[spec.n :]))
            for kind, size, block in blocks:
                for j in range(size):
                    if rng.integers(3) == 0:
                        continue
                    upper = bool(rng.integers(2))
                    scale = rng.uniform(1.0, 3.0) if upper else rng.uniform(0.3, 1.0)
                    cons.append(SafetyConstraint(
                        kind, j, max(block[j], 1.0) * float(scale),
                        float(rng.uniform(1e-3, 0.5)),
                        alpha_e=float(rng.uniform(1e-3, 0.5)) if kind == OUTLET else None,
                        direction="upper" if upper else "lower",
                    ))
            if not cons:
                cons.append(SafetyConstraint(MULTIPLICATIVE, 1, x[1] + 1.0, 0.02))
            rng.shuffle(cons)
            cons = cons[: rng.integers(1, len(cons) + 1)]
            if k % 5 == 0:
                cons.append(cons[0])
            if k % 11 == 0:
                cons[-1] = dataclasses.replace(cons[-1], bound=math.inf)
            if k % 13 == 0:
                x[int(rng.integers(len(x)))] = math.nan
            yield spec, x, tuple(cons)

    def test_solve_matches_reference(self):
        outcomes = set()
        for spec, x, cons in self.cases(1500, 616):
            w, z = x[: spec.n], x[spec.n :]
            got = solved(safety._solver(spec, cons)(x))
            want = reference_solver(spec, cons)(w, z)
            assert (got[0].hex(), got[1:]) == (want[0].hex(), want[1:]), (spec.kind, x, cons)
            outcomes.add((spec.kind, got[0] > 0.0, got[2]))
            if len(cons) > 1 and cons[-1] == cons[0] and got[0] > 0.0:
                outcomes.add((spec.kind, "tie", got[1]))
        # raised, resting and infeasible decisions on every model
        for kind in ("sir", "seir", "sihrd", "dense"):
            assert {(kind, True, True), (kind, False, True), (kind, True, False)} <= outcomes
        assert ("sihrd", "tie", 0) in outcomes and ("dense", "tie", 0) in outcomes

    def test_solve_returns_the_clamped_decision(self):
        # solve is the whole decision: u is clamp(u_raw, 0, 1) to the bit,
        # on the NaN states and inf bounds of the cases too
        for spec, x, cons in self.cases(1500, 619):
            d = safety._solver(spec, cons)(x)
            assert type(d) is ControlDecision, (spec.kind, x, cons)
            assert d.u.hex() == clamp01(d.u_raw).hex(), (spec.kind, x, cons)

    def test_rollout_law_matches_reference(self):
        for spec, x, cons in self.cases(1500, 617):
            got = make_input_fn(spec, cons)(0, x)
            want = clamp01(reference_solver(spec, cons)(x[: spec.n], x[spec.n :])[0])
            assert got.hex() == want.hex(), (spec.kind, x, cons)

    def test_infinite_compartments_match_reference(self):
        # An inf compartment makes some products with a 0.0 Jacobian entry
        # NaN; the law keeps every such product, as the reference does.
        rng = np.random.default_rng(618)
        specs = (
            build_model(SIR_US),
            build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2)),
            build_model(SIHRD_US),
            dense_linear_spec(rng),
        )
        for spec in specs:
            N, size = spec.params.N, spec.n + spec.m
            singles = [
                SafetyConstraint(
                    kind, j, 0.02 * N, 0.1, alpha_e=0.2 if kind == OUTLET else None,
                    direction=direction,
                )
                for kind, count in ((MULTIPLICATIVE, spec.n), (OUTLET, spec.m))
                for j in range(count)
                for direction in ("upper", "lower")
            ]
            sets = [(c,) for c in singles] + [tuple(singles)]
            for k in range(size):
                for no_infected in (False, True):
                    x = [float(rng.uniform(0.5, 1.0)) * N]
                    x += rng.uniform(0.0, 0.01 * N, size=size - 1).tolist()
                    if no_infected:
                        x[spec.labels.index("I")] = 0.0
                    x[k] = math.inf
                    w, z = x[: spec.n], x[spec.n :]
                    for cons in sets:
                        d = safety._solver(spec, cons)(x)
                        got, want = solved(d), reference_solver(spec, cons)(w, z)
                        assert (got[0].hex(), got[1:]) == (want[0].hex(), want[1:]), (x, cons)
                        assert d.u.hex() == clamp01(want[0]).hex(), (x, cons)

    def test_same_shape_shares_one_factory(self, sir_spec):
        other = build_model(SirParams(beta0=0.4, gamma=0.1, N=1e6))
        s_floor = SafetyConstraint(MULTIPLICATIVE, 0, 1e5, 0.3, direction="lower")
        a = (i_bound(), s_floor)
        b = (
            i_bound(bound=5e3, alpha=0.5, direction="lower"),
            dataclasses.replace(s_floor, bound=math.inf),
        )
        solve_a = safety._solver(sir_spec, a)
        solve_b = safety._solver(other, b)
        assert solve_a.__code__ is solve_b.__code__
        # each factory call binds its own spec and constants
        x = [4e5, 2e5, 4e5]
        assert solved(solve_a(x)) == reference_solver(sir_spec, a)(x[:2], x[2:])
        assert solved(solve_b(x)) == reference_solver(other, b)(x[:2], x[2:])
        assert solve_a(x) != solve_b(x)
        # another order of the same constraints is another shape
        assert safety._solver(sir_spec, a[::-1]).__code__ is not solve_a.__code__


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
    spec = build_model(SIR_US)
    state = spec.state([s_frac * 33e6, i_frac * 33e6, 0.0])
    c = SafetyConstraint(MULTIPLICATIVE, 1, bound, alpha, name="I")
    dec = multiplicative_control(spec, c, state)
    assert dec.u_raw >= 0.0
    assert dec.u == min(max(dec.u_raw, 0.0), 1.0)
    assert dec.feasible == (dec.u_raw <= 1.0)
    # u_raw = 0 exactly when the open loop already satisfies the condition
    fi = reference_model(spec)["f_t"](state.w.tolist())[1]
    drift = fi - alpha * (bound - float(state.w[1]))
    assert (dec.u_raw == 0.0) == (-drift >= 0.0)


@given(sane_sir)
def test_safety_condition_certified_pointwise(params):
    s_frac, i_frac, bound, alpha = params
    spec = build_model(SIR_US)
    state = spec.state([s_frac * 33e6, i_frac * 33e6, 0.0])
    c = SafetyConstraint(MULTIPLICATIVE, 1, bound, alpha, name="I")
    dec = multiplicative_control(spec, c, state)
    if dec.feasible:
        # recompute the condition from the hand-written model
        model = reference_model(spec)
        fi = model["f_t"](state.w.tolist())[1]
        gi = model["g_t"](state.w.tolist())[1]
        drift = fi - alpha * (bound - float(state.w[1]))
        assert -drift - gi * dec.u_raw >= -1e-9


@given(sane_sir)
def test_stronger_decay_gain_never_raises_demand(params):
    s_frac, i_frac, bound, alpha = params
    spec = build_model(SIR_US)
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
    spec = build_model(SIHRD_US)
    N = SIHRD_US.N
    state = spec.state([0.8 * N, i_frac * N, h_frac * 0.02 * N, 0.0, 0.0])
    c = h_bound()
    dec = outlet_control(spec, c, state)
    if dec.feasible:
        w, z = state.w.tolist(), state.z.tolist()
        model = reference_model(spec)
        dq = np.asarray(model["dq_dw"])[0]
        dr = np.asarray(model["dr_dz"])[0]
        flow = np.asarray(model["q_t"](w)) + np.asarray(model["r_t"](z))
        drift = (
            float(dq @ np.asarray(model["f_t"](w)))
            + float(dr @ flow)
            + (c.alpha + c.alpha_e) * float(flow[0])
            - c.alpha_e * c.alpha * (c.bound - float(state.z[0]))
        )
        authority = float(dq @ np.asarray(model["g_t"](w)))
        assert -drift - authority * dec.u_raw >= -1e-9
