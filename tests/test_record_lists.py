"""A run keeps its record in stdlib containers and reads it as numpy arrays
on demand.

The margins, the audit, the peaks and the CSV importer work on the record
without numpy.
They must give what numpy's formulas give on the arrays (tests/oracles.py),
also where Python's min and max differ from numpy's: -0.0 clamps to 0, a
tie goes to the first sample, a NaN in the decay check is its worst value,
and a t cell of NaN, inf or -0.0 is refused with the same text.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from episafe import sim
from episafe.models import SirParams, build_model
from episafe.runner import (
    RunReport,
    TrajectoryFormatError,
    export_trajectory,
    format_report,
    import_trajectory,
    run,
)
from episafe.safety import MULTIPLICATIVE, SafetyConstraint
from episafe.scenarios import load_preset, preset_names
from episafe.sim import MODES, Scenario, Trajectory, safety_audit, simulate
from oracles import numpy_audit, numpy_margins, numpy_off_grid, numpy_peak

SPEC = build_model(SirParams(beta0=0.33, gamma=0.2, N=33e6))


def bits(values) -> list[str]:
    """float.hex of each value: tells -0.0 from 0.0, and names NaN."""
    return [float(v).hex() for v in values]


def audit_bits(report) -> tuple[list, int]:
    return [
        (bits([c.min_margin, c.min_margin_time]), c.violation_count,
         c.decay_check_failures, bits([c.decay_check_worst, c.decay_tolerance]))
        for c in report.constraints
    ], report.infeasible_count


def oracle_bits(traj) -> tuple[list, int]:
    audits, infeasible = numpy_audit(traj)
    return [(bits(a[:2]), a[2], a[3], bits(a[4:])) for a in audits], infeasible


def hand_built(states, constraints, dt=0.1, feasible=None, control_start=0.0) -> Trajectory:
    """A trajectory of SIR states given by hand, with the law at rest."""
    k = len(states)
    sc = Scenario(
        spec=SPEC, state0=SPEC.state([26e6, 1e5, 6.9e6]), t_start=0.0, t_end=(k - 1) * dt,
        dt=dt, constraints=tuple(constraints), control_start=control_start,
    )
    return Trajectory(
        scenario=sc, states=states, u_raw=[0.0] * k, u=[0.0] * k, active=[-1] * k,
        feasible=[True] * k if feasible is None else feasible, disturbances=[0.0] * k,
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("preset", preset_names())
def test_margins_audit_and_peaks_match_numpy_formulas(preset, mode, tmp_path):
    sc = dataclasses.replace(load_preset(preset), feedback_mode=mode)
    simulated = simulate(sc)
    imported = import_trajectory(export_trajectory(simulated, tmp_path / "t.csv"), sc)
    for traj in (simulated, imported):
        barriers, extended = numpy_margins(sc.spec, sc.constraints, traj.states)
        assert traj.barriers.tobytes() == barriers.tobytes()
        assert traj.extended.tobytes() == extended.tobytes()
        assert audit_bits(safety_audit(traj)) == oracle_bits(traj)
        for label in traj.labels:
            assert bits(traj.peak(label)) == bits(numpy_peak(traj, label))


def test_huge_alpha_decay_check_matches_numpy():
    # alpha 1e308: alpha * h overflows to +-inf, and at dt 1e-300 so does
    # (h(t+dt) - h(t)) / dt, so the decay holds inf, -inf and NaN, first
    # and later in the series; numpy's min gives NaN wherever it appears
    rng = np.random.default_rng(36)
    palette = [-1e10, -10.0, -1.0, -0.0, 0.0, 1.0, 2.0, 1e10]
    seen = set()
    for case in range(300):
        bound = (1.0, 1e12)[case % 2]
        dt = (1e-300, 0.1)[case // 2 % 2]
        h = rng.choice(palette, size=int(rng.integers(1, 7))).tolist()
        states = [[26e6, bound - v, 6.9e6] for v in h]
        feasible = (rng.random(len(h)) < 0.8).tolist()
        cons = [SafetyConstraint(MULTIPLICATIVE, 1, bound, 1e308, name="I")]
        traj = hand_built(states, cons, dt=dt, feasible=feasible)
        report = safety_audit(traj)
        assert audit_bits(report) == oracle_bits(traj), (h, bound, dt)
        seen.add(report.constraints[0].decay_check_worst.hex())
        seen.add(report.constraints[0].decay_check_failures > 0)
    assert {"nan", "inf", "-inf", True, False} <= seen


def test_nan_after_the_first_decay_value_is_the_worst():
    # decay values about 1.0e308, inf and NaN: min() alone would say 1.0e308
    traj = hand_built(
        [[26e6, 1e12 - h, 6.9e6] for h in (1.0, 2.0, -10.0, 1e10)],
        [SafetyConstraint(MULTIPLICATIVE, 1, 1e12, 1e308)], dt=1e-300,
    )
    audit = safety_audit(traj).constraints[0]
    assert math.isnan(audit.decay_check_worst)
    assert audit_bits(safety_audit(traj)) == oracle_bits(traj)


@pytest.mark.parametrize("alpha", [5e-324, 0.1, math.inf])
@pytest.mark.parametrize("direction", ["upper", "lower"])
def test_infinite_bound_decay_check_matches_numpy(alpha, direction):
    # an inf bound makes every margin inf or -inf and every decay value NaN;
    # at alpha 5e-324 the tolerance 1e-6 * alpha * bound is NaN too
    cons = [SafetyConstraint(MULTIPLICATIVE, 1, math.inf, alpha, direction=direction)]
    traj = hand_built([[26e6, h, 6.9e6] for h in (1.0, 2.0, 0.5)], cons)
    audit = safety_audit(traj).constraints[0]
    assert math.isnan(audit.decay_check_worst) and audit.decay_check_failures == 0
    assert audit_bits(safety_audit(traj)) == oracle_bits(traj)


def test_tied_margins_report_the_first_sample():
    # h = 4, 2, 2, 3 on I, and 2 throughout on S: the lowest margin first
    # falls at samples 1 and 0; a floor at S itself is -0.0 throughout
    cons = [
        SafetyConstraint(MULTIPLICATIVE, 1, 5.0, 0.1, name="cap"),
        SafetyConstraint(MULTIPLICATIVE, 0, 7.0, 0.1, name="flat"),
        SafetyConstraint(MULTIPLICATIVE, 0, 5.0, 0.1, direction="lower", name="floor"),
    ]
    traj = hand_built([[5.0, 1.0, 0.0], [5.0, 3.0, 0.0], [5.0, 3.0, 0.0], [5.0, 2.0, 0.0]], cons)
    audits = safety_audit(traj).constraints
    assert [c.min_margin_time for c in audits] == [traj.times[1], traj.times[0], traj.times[0]]
    assert audits[2].min_margin.hex() == "-0x0.0p+0"
    assert audit_bits(safety_audit(traj)) == oracle_bits(traj)


def test_peak_of_a_column_of_negative_zeros_prints_0():
    # max(-0.0, 0.0) is -0.0 in Python, and np.maximum gives 0.0: R's peak
    # is 0.0 at t_start, and I's is its first largest value
    traj = hand_built(
        [[5.0, 1.0, -0.0], [5.0, 7.0, -1e-9], [5.0, 7.0, 0.0], [5.0, 3.0, -0.0]],
        [SafetyConstraint(MULTIPLICATIVE, 1, 8.0, 0.1)],
    )
    for label in traj.labels:
        assert bits(traj.peak(label)) == bits(numpy_peak(traj, label))
    assert bits(traj.peak("R")) == bits([0.0, 0.0])
    report = RunReport("zeros", traj.scenario, traj, safety_audit(traj), {}, 0)
    assert "\n  R: 0 at t=0\n" in format_report(report)
    assert "\n  I: 7 at t=0.1\n" in format_report(report)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-0.0", "1e300"])
@pytest.mark.parametrize("sample", [0, 3])
def test_t_cells_off_the_grid_give_the_numpy_rule_text(cell, sample, tmp_path):
    sc = dataclasses.replace(load_preset("sir_delay_danger"), t_end=1.0)
    path = export_trajectory(simulate(sc), tmp_path / "t.csv")
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[sample + 1] = cell + lines[sample + 1][lines[sample + 1].index(","):]
    path.write_text("\n".join(lines), encoding="utf-8")
    times = [float(line.split(",")[0]) for line in lines[1:] if line]
    off = numpy_off_grid(times, sc.t_start, sc.dt)
    if off is None:  # -0.0 at sample 0 is t_start
        assert (cell, sample) == ("-0.0", 0)
        import_trajectory(path, sc)
        return
    message = (
        f"{path}: sample {off} has t = {times[off]!r}, off the scenario's time grid "
        f"(t_start {sc.t_start:g}, dt {sc.dt:g})"
    )
    with pytest.raises(TrajectoryFormatError, match=f"^{re.escape(message)}$"):
        import_trajectory(path, sc)


def test_extended_margins_are_computed_on_first_read(tmp_path, monkeypatch):
    calls = []
    margins = sim._margins
    monkeypatch.setattr(sim, "_margins", lambda *a: calls.append(a[3:]) or margins(*a))
    sc = dataclasses.replace(load_preset("sihrd_fig3"), t_end=20.0)
    traj = run(sc, out_dir=tmp_path).trajectory
    assert calls == [()]  # h, for the audit and the CSV
    extended = traj.extended
    assert calls == [(), (True,)] and traj.extended is extended


def test_series_read_as_cached_read_only_arrays():
    traj = simulate(dataclasses.replace(load_preset("sir_fig2"), t_end=20.0))
    dtypes = dict(
        states=np.float64, u_raw=np.float64, u=np.float64, active=np.int64,
        feasible=np.bool_, disturbances=np.float64, times=np.float64,
        barriers=np.float64, extended=np.float64,
    )
    for name, dtype in dtypes.items():
        arr = getattr(traj, name)
        assert getattr(traj, name) is arr, name
        assert arr.dtype == dtype and len(arr) == len(traj), name
        assert not arr.flags.writeable, name
    state = traj.state_at(3)
    for name in ("w", "z", "x"):
        arr = getattr(state, name)
        assert getattr(state, name) is arr and not arr.flags.writeable, name
    assert state.x.tolist() == state.w.tolist() + state.z.tolist() == traj.states[3].tolist()
