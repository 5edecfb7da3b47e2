"""Acceptance gate: one test per release criterion, at stated tolerances.

Each test prints one PASS/FAIL line (visible with pytest -s; the -v test
status line mirrors it).  Expensive runs are cached in-module so later
criteria can reuse them without re-simulating.
"""

import dataclasses
import time

import numpy as np

from episafe.delay import PredictorConfig, predict_state, prediction_error
from episafe.models import build_model
from episafe.runner import export_trajectory, import_trajectory
from episafe.safety import (
    MULTIPLICATIVE,
    OUTLET,
    SafetyConstraint,
    combined_control,
    multiplicative_control,
    outlet_control,
)
from episafe.scenarios import load_preset, parse_scenario, write_scenario
from episafe.sim import Scenario, simulate

from conftest import SIHRD_US, SIR_US, central_difference_jacobian, outlet_rows
from oracles import (
    closed_form_death_control,
    closed_form_hospitalization_control,
    closed_form_infection_control,
    qp_oracle,
)

GRID_STEP = 1e-4

_cache: dict[str, object] = {}


def _cached(key, builder):
    if key not in _cache:
        _cache[key] = builder()
    return _cache[key]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _rel_ok(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _sane_sir_states(spec, count, seed):
    rng = np.random.default_rng(seed)
    N = spec.params.N
    S = rng.uniform(0.05 * N, N, count)
    I = rng.uniform(1e-5 * N, 0.5 * N, count)
    R = rng.uniform(0.0, 0.5 * N, count)
    return np.column_stack([S, I, R])


def _sane_sihrd_states(spec, count, seed):
    rng = np.random.default_rng(seed)
    N = spec.params.N
    S = rng.uniform(0.05 * N, N, count)
    I = rng.uniform(1e-5 * N, 0.5 * N, count)
    H = rng.uniform(0.0, 0.02 * N, count)
    R = rng.uniform(0.0, 0.5 * N, count)
    D = rng.uniform(0.0, 0.05 * N, count)
    return np.column_stack([S, I, H, R, D])


def test_criterion_1_controller_identity(sir_spec, sihrd_spec):
    """Generic controllers coincide with the per-model closed forms."""
    t0 = time.perf_counter()
    count = 10_000
    a_hd = (0.14 + 0.03 + 0.01) / 10.0
    i_con = SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 0.02, name="I")
    h_con = SafetyConstraint(OUTLET, 0, 4e4, a_hd, alpha_e=0.014, name="H")
    d_con = SafetyConstraint(OUTLET, 2, 4e5, a_hd, alpha_e=a_hd, name="D")

    worst = 0.0
    for row in _sane_sir_states(sir_spec, count, seed=101):
        state = sir_spec.state(row)
        got = multiplicative_control(sir_spec, i_con, state).u_raw
        want = closed_form_infection_control(SIR_US, row[0], row[1], 2e5, 0.02)
        assert _rel_ok(got, want), (row, got, want)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))

    for row in _sane_sihrd_states(sihrd_spec, count, seed=102):
        state = sihrd_spec.state(row)
        got_h = outlet_control(sihrd_spec, h_con, state).u_raw
        want_h = closed_form_hospitalization_control(
            SIHRD_US, row[0], row[1], row[2], 4e4, a_hd, 0.014
        )
        assert _rel_ok(got_h, want_h), (row, got_h, want_h)
        got_d = outlet_control(sihrd_spec, d_con, state).u_raw
        want_d = closed_form_death_control(
            SIHRD_US, row[0], row[1], row[4], 4e5, a_hd, a_hd
        )
        assert _rel_ok(got_d, want_d), (row, got_d, want_d)
        worst = max(
            worst,
            abs(got_h - want_h) / max(1.0, abs(want_h)),
            abs(got_d - want_d) / max(1.0, abs(want_d)),
        )

    elapsed = time.perf_counter() - t0
    _report(
        1,
        "controller-identity",
        elapsed < 5.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def _qp_agrees(spec, constraints, state) -> tuple[bool, float]:
    """The grid finds no feasible point exactly when the decision is
    infeasible, and otherwise lies within one grid step of u_raw."""
    decision = combined_control(spec, constraints, state)
    u_star = qp_oracle(spec, constraints, state, GRID_STEP)
    if u_star is None or not decision.feasible:
        return (u_star is None) == (not decision.feasible), 0.0
    gap = abs(u_star - decision.u_raw)
    return gap <= GRID_STEP + 1e-12, gap


def _mixed_sir_constraints(rng, row, k):
    """Caps and floors on S and I near the state.  Caps on I and floors on
    S bound u from below, floors on I and caps on S bound it from above."""
    S, I = row[0], max(row[1], 1e3)
    cap_i = SafetyConstraint(
        MULTIPLICATIVE, 1, I * float(rng.uniform(0.8, 3.0)),
        float(rng.uniform(1e-3, 1.0)), name="I",
    )
    floor_i = SafetyConstraint(
        MULTIPLICATIVE, 1, I * float(rng.uniform(0.3, 1.2)),
        float(rng.uniform(1e-3, 1.0)), direction="lower", name="I_floor",
    )
    cap_s = SafetyConstraint(
        MULTIPLICATIVE, 0, S * float(rng.uniform(0.9, 2.0)),
        float(rng.uniform(1e-3, 1.0)), name="S",
    )
    floor_s = SafetyConstraint(
        MULTIPLICATIVE, 0, S * float(rng.uniform(0.5, 1.1)),
        float(rng.uniform(1e-3, 1.0)), direction="lower", name="S_floor",
    )
    sets = ([cap_i, floor_i], [cap_i, cap_s], [floor_s, cap_i], [floor_i, floor_s])
    return sets[k % 4]


def test_criterion_2_qp_oracle_equivalence(sir_spec, sihrd_spec):
    """Closed forms match the brute-force min-norm grid search."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    worst = 0.0

    for row in _sane_sir_states(sir_spec, 3500, seed=201):
        con = SafetyConstraint(
            MULTIPLICATIVE, 1,
            bound=float(rng.uniform(1e4, 5e5)),
            alpha=float(rng.uniform(1e-3, 1.0)),
            name="I",
        )
        ok, gap = _qp_agrees(sir_spec, [con], sir_spec.state(row))
        assert ok, (row, con, gap)
        worst = max(worst, gap)
        checked += 1

    for k, row in enumerate(_sane_sihrd_states(sihrd_spec, 3500, seed=203)):
        if k % 2 == 0:
            con = SafetyConstraint(
                OUTLET, 0, float(rng.uniform(5e3, 2e5)),
                float(rng.uniform(1e-3, 0.5)),
                alpha_e=float(rng.uniform(1e-3, 0.5)), name="H",
            )
        else:
            con = SafetyConstraint(
                OUTLET, 2, float(rng.uniform(5e4, 8e5)),
                float(rng.uniform(1e-3, 0.5)),
                alpha_e=float(rng.uniform(1e-3, 0.5)), name="D",
            )
        ok, gap = _qp_agrees(sihrd_spec, [con], sihrd_spec.state(row))
        assert ok, (row, con, gap)
        worst = max(worst, gap)
        checked += 1

    a_hd = 0.018
    h_con = SafetyConstraint(OUTLET, 0, 4e4, a_hd, alpha_e=0.014, name="H")
    d_con = SafetyConstraint(OUTLET, 2, 4e5, a_hd, alpha_e=a_hd, name="D")
    i_con = SafetyConstraint(MULTIPLICATIVE, 1, 2e5, 0.018, name="I")
    for k, row in enumerate(_sane_sihrd_states(sihrd_spec, 3000, seed=204)):
        cons = [h_con, d_con] if k % 3 else [h_con, d_con, i_con]
        ok, gap = _qp_agrees(sihrd_spec, cons, sihrd_spec.state(row))
        assert ok, (row, len(cons), gap)
        worst = max(worst, gap)
        checked += 1

    # mixed-sign sets, and every fifth state with I = 0 (no authority)
    infeasible = 0
    for k, row in enumerate(_sane_sir_states(sir_spec, 2000, seed=205)):
        if k % 5 == 0:
            row[1] = 0.0
        state = sir_spec.state(row)
        cons = _mixed_sir_constraints(rng, row, k)
        ok, gap = _qp_agrees(sir_spec, cons, state)
        assert ok, (row, cons, gap)
        worst = max(worst, gap)
        infeasible += not combined_control(sir_spec, cons, state).feasible
        checked += 1
    for k, row in enumerate(_sane_sihrd_states(sihrd_spec, 500, seed=206)):
        row[1] = 0.0
        if k % 2:
            row[2] = 0.0  # an empty ward: the outlet conditions hold at u = 0
        ok, gap = _qp_agrees(sihrd_spec, [h_con, d_con, i_con], sihrd_spec.state(row))
        assert ok, (row, gap)
        checked += 1

    elapsed = time.perf_counter() - t0
    _report(
        2,
        "qp-oracle-equivalence",
        checked == 12_500 and elapsed < 60.0,
        f"{checked} cases ({infeasible} mixed-sign infeasible), "
        f"worst gap {worst:.2e}, {elapsed:.2f}s",
    )


def _fig2_run():
    scenario = load_preset("sir_fig2")
    t0 = time.perf_counter()
    traj = simulate(scenario)
    return scenario, traj, time.perf_counter() - t0


def test_criterion_3_infection_cap_reproduction():
    """US-fitted SIR preset: cap held, intervention winds down to zero."""
    scenario, traj, elapsed = _cached("fig2", _fig2_run)
    i_max = scenario.constraints[0].bound
    peak = float(traj.states[:, 1].max())
    u_end = float(traj.u[-1])
    S_end, I_end = traj.states[-1, 0], traj.states[-1, 1]
    p = scenario.spec.params
    # open-loop margin decay rate at the end: negative means the bound no
    # longer needs intervention
    phi_end = (
        p.beta0 * S_end * I_end / p.N - p.gamma * I_end - 0.02 * (i_max - I_end)
    )
    ok = (
        traj.initial_report is not None
        and traj.initial_report.ok
        and peak <= i_max * (1.0 + 1e-6)
        and u_end < 1e-3
        and phi_end < 0.0
        and elapsed < 5.0
    )
    _report(
        3,
        "infection-cap-reproduction",
        ok,
        f"peak I {peak:.1f} <= {i_max:.0f}, u_end {u_end:.2e}, "
        f"phi_end {phi_end:.1f}, {elapsed:.2f}s",
    )


def _fig3_run():
    scenario = load_preset("sihrd_fig3")
    t0 = time.perf_counter()
    traj = simulate(scenario)
    return scenario, traj, time.perf_counter() - t0


def test_criterion_4_hospital_death_cap_reproduction():
    """US-fitted SIHRD preset: joint hospital and death caps hold."""
    scenario, traj, elapsed = _cached("fig3", _fig3_run)
    bounds = {c.name: c.bound for c in scenario.constraints}
    peak_h = float(traj.states[:, 2].max())
    peak_d = float(traj.states[:, 4].max())
    ok = (
        traj.initial_report is not None
        and traj.initial_report.ok
        and peak_h <= bounds["H"] * (1.0 + 1e-6)
        and peak_d <= bounds["D"] * (1.0 + 1e-6)
        and elapsed < 5.0
    )
    _report(
        4,
        "hospital-death-cap-reproduction",
        ok,
        f"peak H {peak_h:.1f} <= {bounds['H']:.0f}, "
        f"peak D {peak_d:.1f} <= {bounds['D']:.0f}, {elapsed:.2f}s",
    )


def _danger_runs():
    delayed_sc = load_preset("sir_delay_danger")
    predictor_sc = dataclasses.replace(delayed_sc, feedback_mode="predictor")
    return delayed_sc, simulate(delayed_sc), simulate(predictor_sc)


def test_criterion_5_delay_danger_demonstration():
    """Raw delayed feedback breaches the cap that forecasting holds."""
    scenario, delayed, predicted = _cached("danger", _danger_runs)
    bound = scenario.constraints[0].bound
    tau_steps = scenario.delay_steps
    growth = float(delayed.states[tau_steps, 1] / delayed.states[0, 1])
    min_h_delayed = float(delayed.barriers.min())
    min_h_predicted = float(predicted.barriers.min())
    ok = (
        growth >= 10.0
        and min_h_delayed < 0.0
        and min_h_predicted >= -1e-6 * bound
    )
    _report(
        5,
        "delay-danger-demonstration",
        ok,
        f"I growth over tau {growth:.1f}x, delayed min h {min_h_delayed:.1f}, "
        f"predictor min h {min_h_predicted:.3g}",
    )


def _issf_runs():
    spec = build_model(SIR_US)
    rng = np.random.default_rng(606)
    runs = []
    deltas = (0.01, 0.05, 0.1)
    for k in range(50):
        delta = deltas[k % 3]
        bound = float(rng.uniform(1e5, 3e5))
        i0 = float(rng.uniform(0.2, 0.8) * bound)
        s0 = float(rng.uniform(0.6, 0.95) * SIR_US.N)
        r0 = max(0.0, min(SIR_US.N - s0 - i0, 0.2 * SIR_US.N))
        sc = Scenario(
            spec=spec,
            state0=spec.state([s0, i0, r0]),
            t_start=0.0,
            t_end=60.0,
            dt=0.1,
            constraints=(
                SafetyConstraint(MULTIPLICATIVE, 1, bound, 0.02, name="I"),
            ),
            disturbance_delta=delta,
            seed=7000 + k,
        )
        runs.append((delta, bound, simulate(sc)))
    return runs


def test_criterion_6_disturbance_robustness():
    """Bounded input disturbance keeps the enlarged margin non-negative.

    Input-to-state safety (Kolathaya & Ames, IEEE L-CSS 2019): under an
    input disturbance bounded by delta, the law keeps the inflated margin
    h + (delta / alpha) * |g| non-negative, where g is the input's authority
    over the capped compartment (beta0 * S * I / N for I in SIR).  The paper
    reads a forecast error epsilon as such a disturbance, delta = c * epsilon
    for a law with Lipschitz constant c.
    """
    runs = _cached("issf", _issf_runs)
    worst_margin = np.inf
    for delta, bound, traj in runs:
        authority = 0.33 * traj.states[:, 0] * traj.states[:, 1] / SIR_US.N
        h = traj.barriers[:, 0]
        h_d = h + (delta / 0.02) * authority
        worst_margin = min(worst_margin, float(h_d.min() / bound))
        assert h_d.min() >= -1e-6 * bound, (delta, bound, h_d.min())
        assert h.min() >= -(delta / 0.02) * authority.max(), (delta, bound)
    _report(
        6,
        "disturbance-robustness",
        len(runs) == 50,
        f"50 runs, worst inflated margin {worst_margin:.3g} of bound",
    )


def test_criterion_7_conservation_and_jacobians(sir_spec, sihrd_spec):
    """Population conserved on every acceptance trajectory; analytic
    Jacobians match central differences."""
    trajectories = []
    for key, builder in (
        ("fig2", _fig2_run),
        ("fig3", _fig3_run),
        ("danger", _danger_runs),
        ("issf", _issf_runs),
    ):
        value = _cached(key, builder)
        if key == "danger":
            trajectories += [value[1], value[2]]
        elif key == "issf":
            trajectories += [traj for _, _, traj in value]
        else:
            trajectories.append(value[1])
    worst_drift = 0.0
    for traj in trajectories:
        N = traj.scenario.spec.params.N
        totals = traj.states.sum(axis=1)
        drift = float(np.max(np.abs(totals - totals[0])) / N)
        assert drift < 1e-7, drift
        worst_drift = max(worst_drift, drift)

    from episafe.models import SeirParams, build_model

    worst_jac = 0.0
    for spec in (
        sir_spec,
        build_model(SeirParams(beta0=0.33, gamma=0.2, N=33e6, sigma=0.2)),
        sihrd_spec,
    ):
        rng = np.random.default_rng(700)
        N = spec.params.N
        for _ in range(100):
            w = rng.uniform(0.0, N, spec.n)
            z = rng.uniform(0.0, N, spec.m)
            # the derivative's outlet rows q(w) + r(z), over w and then z
            for fn, v, analytic in (
                (lambda v: outlet_rows(spec, v, z), w, np.asarray(spec.dq_dw)),
                (lambda v: outlet_rows(spec, w, v), z, np.asarray(spec.dr_dz)),
            ):
                fd = central_difference_jacobian(fn, v)
                scale = max(1.0, float(np.abs(analytic).max()))
                err = float(np.abs(fd - analytic).max() / scale)
                assert err < 1e-6, (spec.kind, err)
                worst_jac = max(worst_jac, err)
    _report(
        7,
        "conservation-and-jacobians",
        True,
        f"{len(trajectories)} trajectories, worst drift {worst_drift:.2e} of N, "
        f"worst Jacobian err {worst_jac:.2e}",
    )


def test_criterion_8_predictor_accuracy():
    """Mismatch-free forecasts land on the true trajectory; composing two
    half-window forecasts equals one full-window forecast."""
    scenario, traj, _ = _cached("fig2", _fig2_run)
    spec = scenario.spec
    N = spec.params.N
    tau = scenario.tau
    steps = scenario.delay_steps
    cfg = PredictorConfig(
        tau=tau, dt_pred=scenario.dt,
        constraints=scenario.constraints,
    )
    worst = 0.0
    # from control_step + D on, each window lies in the controlled phase
    for k in range(scenario.control_step + steps, len(traj), 173):
        measured = traj.state_at(k - steps)
        t_meas = float(traj.times[k - steps])
        predicted = predict_state(spec, measured, cfg, t_measured=t_meas)
        worst = max(worst, prediction_error(predicted, traj.state_at(k)))
    ok_track = worst <= 1e-5 * N

    half = PredictorConfig(
        tau=tau / 2.0,  # 5.5 days: still a multiple of dt
        dt_pred=scenario.dt,
        constraints=scenario.constraints,
    )
    start = traj.state_at(400)
    t0 = float(traj.times[400])
    full = predict_state(spec, start, cfg, t_measured=t0)
    mid = predict_state(spec, start, half, t_measured=t0)
    composed = predict_state(spec, mid, half, t_measured=t0 + half.tau)
    gap = prediction_error(composed, full)
    ok_semigroup = gap <= 1e-5 * N
    _report(
        8,
        "predictor-accuracy",
        ok_track and ok_semigroup,
        f"worst tracking err {worst:.3g}, semigroup gap {gap:.3g} "
        f"(tolerance {1e-5 * N:.0f})",
    )


def test_criterion_9_determinism_and_round_trips(tmp_path):
    """Bit-identical reruns; scenario and trajectory files round-trip."""
    base = load_preset("sir_delay_danger")
    disturbed = dataclasses.replace(base, disturbance_delta=0.05, seed=42)
    rerun_ok = True
    for sc in (base, disturbed):
        a, b = simulate(sc), simulate(sc)
        rerun_ok &= bool(
            np.array_equal(a.states, b.states)
            and np.array_equal(a.disturbances, b.disturbances)
            and a.u_raw.tolist() == b.u_raw.tolist()
        )
        pa = export_trajectory(a, tmp_path / "a.csv")
        pb = export_trajectory(b, tmp_path / "b.csv")
        rerun_ok &= pa.read_bytes() == pb.read_bytes()

    scenario_ok = True
    for name in ("sir_fig2", "sihrd_fig3", "sir_delay_danger"):
        sc = load_preset(name)
        back = parse_scenario(write_scenario(sc, tmp_path / f"{name}.scenario"))
        scenario_ok &= bool(
            back.spec.params == sc.spec.params
            and np.array_equal(back.state0.x, sc.state0.x)
            and back.constraints == sc.constraints
            and (back.t_start, back.t_end, back.dt, back.tau)
            == (sc.t_start, sc.t_end, sc.dt, sc.tau)
            and back.feedback_mode == sc.feedback_mode
            and back.control_start == sc.control_start
            and (back.disturbance_delta, back.seed)
            == (sc.disturbance_delta, sc.seed)
        )

    traj = simulate(dataclasses.replace(disturbed, t_end=10.0))
    path = export_trajectory(traj, tmp_path / "rt.csv")
    back = import_trajectory(path, traj.scenario)
    worst = 0.0
    for a, b in (
        (back.times, traj.times),
        (back.states, traj.states),
        (back.barriers, traj.barriers),
        (back.u_raw, traj.u_raw),
        (back.u, traj.u),
        (back.disturbances, traj.disturbances),
    ):
        worst = max(worst, float((np.abs(a - b) / np.maximum(1.0, np.abs(b))).max()))
    traj_ok = worst <= 1e-12
    _report(
        9,
        "determinism-and-round-trips",
        rerun_ok and scenario_ok and traj_ok,
        f"worst trajectory round-trip rel err {worst:.2e}",
    )
