"""Seeded generator and correctness-gate checks.

Run with ``python3 -m pytest bench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from episafe.scenarios import load_preset, parse_scenario_text, scenario_text  # noqa: E402
from episafe.sim import safety_audit, simulate  # noqa: E402


def flat(cycles):
    return [dataclasses.astuple(op) for ops in cycles for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    a = flat(workloads.build(workload, 7))
    assert a == flat(workloads.build(workload, 7))
    assert a != flat(workloads.build(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_document_parses_with_the_preset_work(workload):
    for ops in workloads.build(workload, 3):
        for op in ops:
            if op.kind == "ingest":
                continue
            sc = parse_scenario_text(op.text)
            base = load_preset(op.preset)
            scale = base.dt / sc.dt
            assert sc.n_steps == round(base.n_steps * scale)
            assert sc.delay_steps == round(base.delay_steps * scale)
            assert sc.control_start == base.control_start
            if op.kind in ("run", "sweep"):
                assert sc.feedback_mode == op.mode


def test_exact_presets_equal_the_bundled_ones():
    ops = [op for ops in workloads.build("predictor_presets", 1) for op in ops if op.exact]
    assert len(ops) == 3
    for op in ops:
        sc = parse_scenario_text(op.text)
        base = dataclasses.replace(load_preset(op.preset), feedback_mode="predictor")
        assert scenario_text(sc) == scenario_text(base)


def test_cases_csv_is_valid_case_data(tmp_path):
    from episafe.cases import ingest_cases

    path = tmp_path / "cases.csv"
    path.write_text(workloads.cases_csv(workloads.random.Random(1), rows=500))
    assert len(ingest_cases(path)) == 500


@pytest.mark.parametrize("seed", range(6))
def test_variants_pass_the_gate(seed):
    """Guaranteed variants hold their caps and sir_delay_danger variants
    still breach under delayed feedback (instantaneous feedback stands in
    for predictor mode: the forecasts are exact in nominal runs)."""
    base = workloads.preset_texts()
    for name in workloads.PRESET_NAMES:
        for mode in ("instantaneous", "delayed"):
            rng = workloads._variant_rng(seed, "test", 1, name)
            op = workloads.Op("run", name, mode, workloads.scenario_text(base[name], mode, rng))
            sc = parse_scenario_text(op.text)
            traj = simulate(sc)
            assert checks.check_run(op, sc, traj, safety_audit(traj), {}) == []


def test_reference_hash_catches_a_changed_result():
    reference = checks.load_reference()
    op = workloads.Op("run", "sir_delay_danger", "delayed", "", exact=True)
    sc = load_preset("sir_delay_danger")
    traj = simulate(sc)
    assert checks.check_run(op, sc, traj, safety_audit(traj), reference) == []
    nudged = dataclasses.replace(sc, tau=19.0)
    traj = simulate(nudged)
    errors = checks.check_run(op, nudged, traj, safety_audit(traj), reference)
    assert any("hash" in e for e in errors)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    pct, value, beyond = run.tail([float(k) for k in range(20)])
    assert (pct, value, beyond) == (50.0, 9.0, 10)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "direct_feedback",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25
