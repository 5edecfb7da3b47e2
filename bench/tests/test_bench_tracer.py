"""Tracer self-checks: exact count identities and self-time arithmetic.

Run with ``python3 -m pytest bench/tests``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from episafe import engine, runner, sim  # noqa: E402
from episafe.scenarios import PRESETS, parse_scenario_text  # noqa: E402


def short(preset: str, mode: str, t_end: float) -> str:
    doc = workloads._Doc(PRESETS[preset])
    doc.set("feedback", "mode", mode)
    doc.set("time", "t_end", t_end)
    return doc.text()


def traced_run(text: str):
    tr = tracer.Tracer()
    tr.install()
    try:
        trajectory = sim.simulate(parse_scenario_text(text))
    finally:
        tr.uninstall()
    return tr, trajectory


# (preset, t_end): sir_fig2 starts control at sample 100 with D = 110, so
# its forecasts cover both k < D and k >= D; sihrd_fig3 has two constraints
# and D = 90 from sample 0.
CASES = [("sir_fig2", 30.0), ("sihrd_fig3", 20.0), ("sir_delay_danger", 30.0)]


@pytest.mark.parametrize("preset,t_end", CASES)
@pytest.mark.parametrize("mode", ["predictor", "instantaneous", "delayed"])
def test_count_identities(preset, t_end, mode):
    text = short(preset, mode, t_end)
    sc = parse_scenario_text(text)
    tr, _ = traced_run(text)
    c = tr.counts

    n = sc.n_steps
    d = sc.delay_steps
    first = int(round((sc.control_start - sc.t_start) / sc.dt))
    controlled = list(range(first, n + 1))
    rollout = sum(min(k, d) for k in controlled) if mode == "predictor" else 0

    assert c["sim.plant_steps"] == n
    assert c["engine.rollout_steps"] == rollout
    assert c["engine.rk4_calls"] == n + rollout
    assert c["models.derivative_calls"] == 4 * c["engine.rk4_calls"]
    assert c["safety.combined_control_calls"] == len(controlled)
    assert c["engine.rollout_steps_expected"] == rollout
    assert c["sim.controlled_samples_expected"] == len(controlled)


def test_preset_rollout_steps_per_plant_step():
    ratios = {}
    for name in ("sir_fig2", "sihrd_fig3"):
        sc = parse_scenario_text(PRESETS[name])
        _, rollout = tracer.expected_counts(sc)
        ratios[name] = rollout / sc.n_steps
    assert round(ratios["sir_fig2"], 1) == 104.2
    assert round(ratios["sihrd_fig3"], 1) == 87.5


def test_span_tree_of_a_predictor_run():
    tr, _ = traced_run(short("sir_fig2", "predictor", 12.0))
    spans = tr.arrays()
    names = [tracer.SPAN_NAMES[i] for i in spans["name"]]
    parent_names = [names[p] if p >= 0 else None for p in spans["parent"]]
    assert names[0] == tracer.SIMULATE and parent_names[0] is None
    for name, parent in zip(names[1:], parent_names[1:]):
        assert parent == tracer.SIMULATE, name
    # rk4 steps inside rollouts are counted but not spanned.
    assert names.count(tracer.RK4) == 120
    assert tr.counts["engine.rk4_calls"] > 120
    assert np.all(spans["end"] >= spans["start"])


def test_uninstall_restores_every_binding():
    before = (sim.simulate, runner.simulate, engine.rk4_flat,
              sim.combined_control, sim.MeasurementBuffer.lookup)
    tr = tracer.Tracer()
    tr.install()
    assert runner.simulate is not before[1]
    assert sim.combined_control is not before[3]
    tr.uninstall()
    after = (sim.simulate, runner.simulate, engine.rk4_flat,
             sim.combined_control, sim.MeasurementBuffer.lookup)
    assert all(a is b for a, b in zip(after, before))


def synthetic_spans():
    # root [0, 10] with children a [1, 4] and b [5, 6]; a has child g [2, 3].
    sim_id = tracer.SPAN_NAMES.index(tracer.SIMULATE)
    rk4_id = tracer.SPAN_NAMES.index(tracer.RK4)
    lookup_id = tracer.SPAN_NAMES.index(tracer.LOOKUP)
    return {
        "name": np.array([sim_id, rk4_id, rk4_id, lookup_id], dtype=np.int32),
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 6.0]),
        "parent": np.array([-1, 0, 1, 0]),
        "run": np.zeros(4, dtype=np.int64),
    }


def test_self_time_arithmetic():
    spans = synthetic_spans()
    assert tracer.self_times(spans).tolist() == [6.0, 2.0, 1.0, 1.0]
    # Excluded children are not subtracted from their parent.
    assert tracer.self_times(spans, exclude=(tracer.LOOKUP,)).tolist() == [7.0, 2.0, 1.0, 1.0]
    assert tracer.summary(spans, tracer.RK4) == (2, 4.0)


def test_merge_offsets_parents_and_sums_counts(tmp_path):
    child = tracer.Tracer()
    child.counts["cases.rows"] = 5
    for key, value in synthetic_spans().items():
        getattr(child, key).extend(value.tolist())
    child.save(tmp_path / "child.npz")

    parent = tracer.Tracer()
    parent.merge(*tracer.load(tmp_path / "child.npz"))
    parent.run_id = 1
    parent.merge(*tracer.load(tmp_path / "child.npz"))
    spans = parent.arrays()
    assert spans["parent"].tolist() == [-1, 0, 1, 0, -1, 4, 5, 4]
    assert spans["run"].tolist() == [0] * 4 + [1] * 4
    assert parent.counts["cases.rows"] == 10
