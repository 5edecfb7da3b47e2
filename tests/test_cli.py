"""Command-line interface contract: subcommands, exit codes, determinism."""

import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from episafe.cli import main
from episafe.scenarios import load_preset, write_scenario

CASES_CSV = """\
date,cumulative_confirmed,positivity_rate
2020-03-25,65000,0.04
2020-03-26,70000,0.32
"""


DOCUMENTED_EXIT_CODES = (0, 2, 3, 4)


def sir_doc(initial, feedback, constraints, t_end=30):
    """A small SIR scenario document from initial (S, I, R), the
    ``[feedback]`` body and the ``[constraint]`` bodies."""
    S, I, R = initial
    parts = [
        "schema_version = 1\n\n[model]\nkind = sir\nbeta0 = 0.33\n"
        "gamma = 0.2\nN = 33e6\n",
        f"[initial]\nS = {S!r}\nI = {I!r}\nR = {R!r}\n",
        f"[time]\nt_start = 0\nt_end = {t_end}\ndt = 0.1\n",
        f"[feedback]\n{feedback}\n",
    ]
    parts += [f"[constraint]\n{body}" for body in constraints]
    return "\n".join(parts)


class TestPresets:
    def test_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("sir_fig2", "sihrd_fig3", "sir_delay_danger"):
            assert name in out


class TestSimulate:
    def test_preset_run_ok(self, capsys, tmp_path):
        code = main(["simulate", "sir_delay_danger", "--out", str(tmp_path),
                     "--mode", "predictor"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exit code: 0" in out
        assert (tmp_path / "sir_delay_danger_trajectory.csv").exists()
        assert (tmp_path / "sir_delay_danger_long.csv").exists()

    def test_scenario_file_run(self, tmp_path, capsys):
        import dataclasses

        sc = dataclasses.replace(load_preset("sir_delay_danger"), t_end=5.0)
        path = write_scenario(sc, tmp_path / "small.scenario")
        assert main(["simulate", str(path)]) == 0

    def test_unknown_scenario_is_validation_error(self, capsys):
        assert main(["simulate", "no_such_thing"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_override_is_validation_error(self, capsys):
        # dt that does not divide the horizon
        assert main(["simulate", "sir_delay_danger", "--dt", "0.7"]) == 2

    def test_infeasible_run_exits_4(self, tmp_path, capsys):
        scenario_doc = """\
schema_version = 1

[model]
kind = sir
beta0 = 0.33
gamma = 0.2
N = 33e6

[initial]
S = 32.75e6
I = 1.5e5
R = 1e5

[time]
t_start = 0
t_end = 2
dt = 0.1

[feedback]
mode = delayed
tau = 0

[constraint]
compartment = I
bound = 5e4
alpha = 5.0
"""
        path = tmp_path / "clamped.scenario"
        path.write_text(scenario_doc)
        assert main(["simulate", str(path)]) == 4

    def test_guaranteed_mode_refuses_bad_start(self, tmp_path, capsys):
        # same scenario but claiming instantaneous feedback: refused upfront
        doc = (tmp_path / "clamped.scenario").read_text() if (
            tmp_path / "clamped.scenario"
        ).exists() else None
        scenario_doc = """\
schema_version = 1

[model]
kind = sir
beta0 = 0.33
gamma = 0.2
N = 33e6

[initial]
S = 32.75e6
I = 1.5e5
R = 1e5

[time]
t_start = 0
t_end = 2
dt = 0.1

[feedback]
mode = instantaneous

[constraint]
compartment = I
bound = 5e4
"""
        path = tmp_path / "invalid_start.scenario"
        path.write_text(scenario_doc)
        assert main(["simulate", str(path)]) == 2
        assert "initial condition" in capsys.readouterr().err

    def test_cap_and_floor_on_infected(self, tmp_path):
        # a lower and an upper bound on u at once: solved, not refused
        path = tmp_path / "cap_floor.scenario"
        path.write_text(sir_doc(
            (26e6, 1e5, 6.9e6), "mode = instantaneous",
            ["compartment = I\nbound = 2e5\n",
             "compartment = I\nbound = 5e4\ndirection = lower\nname = I_floor\n"],
        ))
        assert main(["simulate", str(path)]) == 0

    def test_start_without_infected(self, tmp_path):
        # I = 0: the input has no authority and nothing needs doing
        path = tmp_path / "no_infected.scenario"
        path.write_text(sir_doc(
            (26e6, 0.0, 7e6), "mode = predictor\ntau = 1",
            ["compartment = I\nbound = 2e5\n"],
        ))
        assert main(["simulate", str(path)]) == 0

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            code = main([
                "simulate", "sir_delay_danger", "--out", str(tmp_path / sub),
            ])
            assert code == 0
        for name in ("sir_delay_danger_trajectory.csv", "sir_delay_danger_long.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestAudit:
    def test_clean_audit_exits_0(self, tmp_path, capsys):
        assert main(["simulate", "sir_delay_danger", "--mode", "predictor",
                     "--out", str(tmp_path)]) == 0
        traj = tmp_path / "sir_delay_danger_trajectory.csv"
        code = main(["audit", str(traj), "sir_delay_danger", "--mode", "predictor"])
        assert code == 0
        assert "min h" in capsys.readouterr().out

    def test_violation_in_guaranteed_mode_exits_3(self, tmp_path, capsys):
        # delayed run violates; auditing it as an instantaneous (guaranteed)
        # scenario must flag the violation through the exit code
        assert main(["simulate", "sir_delay_danger", "--out", str(tmp_path)]) == 0
        traj = tmp_path / "sir_delay_danger_trajectory.csv"
        code = main(["audit", str(traj), "sir_delay_danger", "--mode", "instantaneous"])
        assert code == 3

    def test_same_code_as_simulate_for_guaranteed_violation(self, tmp_path):
        # a fading epidemic falls through a floor on I that no u in [0, 1]
        # can hold; the guaranteed run is flagged 3 by both commands
        path = tmp_path / "floor.scenario"
        path.write_text(sir_doc(
            (5e6, 1.2e5, 27.88e6), "mode = instantaneous",
            ["compartment = I\nbound = 1e5\ndirection = lower\n"], t_end=10,
        ))
        out = tmp_path / "out"
        simulated = main(["simulate", str(path), "--out", str(out)])
        audited = main(["audit", str(out / "floor_trajectory.csv"), str(path)])
        assert simulated == audited == 3

    def test_missing_file_is_validation_error(self, capsys):
        assert main(["audit", "/nonexistent.csv", "sir_delay_danger"]) == 2


class TestSweep:
    def test_tau_sweep(self, capsys):
        code = main([
            "sweep", "sir_delay_danger", "--param", "tau", "--values", "0,5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("run: sir_delay_danger_tau_") == 2

    def test_violation_outranks_infeasible_run(self, tmp_path, capsys):
        # delta = 0: a guaranteed run falls through a floor on I (code 3);
        # delta > 0 claims no guarantee and only the clamped steps count (4)
        path = tmp_path / "floor.scenario"
        path.write_text(sir_doc(
            (5e6, 1.2e5, 27.88e6), "mode = instantaneous",
            ["compartment = I\nbound = 1e5\ndirection = lower\n"], t_end=10,
        ))
        sweep = ["sweep", str(path), "--param", "delta", "--values"]
        assert main(sweep + ["0"]) == 3
        assert main(sweep + ["0.01"]) == 4
        assert main(sweep + ["0,0.01"]) == 3

    def test_bad_values_list(self, capsys):
        assert main([
            "sweep", "sir_delay_danger", "--param", "tau", "--values", "a,b",
        ]) == 2


class TestIngest:
    def test_ingest_and_scale(self, tmp_path, capsys):
        cases = tmp_path / "cases.csv"
        cases.write_text(CASES_CSV)
        code = main(["ingest", str(cases), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 valid case records" in out
        scaled = (tmp_path / "cases_scaled.csv").read_text().splitlines()
        assert scaled[0] == "date,cumulative_confirmed,positivity_rate,scaled_confirmed"
        # second row inflates by (0.32/0.04)^(1/3) = 2
        assert scaled[2].split(",")[-1] == "140000"
        assert (tmp_path / "cases_scaled.meta.json").exists()

    def test_bad_rows_exit_2(self, tmp_path, capsys):
        cases = tmp_path / "bad.csv"
        cases.write_text(CASES_CSV + "2020-03-27,60000,0.2\n")
        assert main(["ingest", str(cases)]) == 2
        assert "decreases" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "episafe", "presets", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sir_fig2" in proc.stdout


_MODELS = {
    "sir": ("beta0 = 0.33\ngamma = 0.2\nN = 33e6", ("S", "I", "R"), 33e6),
    "sihrd": (
        "beta0 = 0.53\ngamma = 0.14\nN = 15e6\nlam = 0.03\nnu = 0.14\nmu = 0.01",
        ("S", "I", "H", "R", "D"),
        15e6,
    ),
}


@st.composite
def scenario_documents(draw):
    """Bounded scenario documents: SIR or SIHRD, any feedback mode, caps and
    floors on any compartment, starts with I = 0, horizons up to 20 days."""
    kind = draw(st.sampled_from(sorted(_MODELS)))
    params, labels, N = _MODELS[kind]
    I = draw(st.one_of(st.just(0.0), st.floats(1.0, 0.2 * N)))
    rest = [draw(st.floats(0.0, 0.1 * N)) for _ in labels[2:]]
    initial = [N - I - sum(rest), I, *rest]
    dt = draw(st.sampled_from([0.25, 0.5, 1.0]))
    n_steps = draw(st.integers(0, int(20 / dt)))
    lines = [
        "schema_version = 1", "[model]", f"kind = {kind}", params, "[initial]",
        *(f"{lbl} = {v!r}" for lbl, v in zip(labels, initial)),
        "[time]", "t_start = 0", f"t_end = {n_steps * dt!r}", f"dt = {dt!r}",
        f"control_start = {dt * draw(st.integers(0, n_steps))!r}",
        "[feedback]",
        f"mode = {draw(st.sampled_from(['instantaneous', 'delayed', 'predictor']))}",
        f"tau = {dt * draw(st.integers(0, 8))!r}",
    ]
    if draw(st.booleans()):
        lines += ["[disturbance]", "delta = 0.05", f"seed = {draw(st.integers(0, 9))}"]
    for _ in range(draw(st.integers(0, 3))):
        lines += [
            "[constraint]",
            f"compartment = {draw(st.sampled_from(labels))}",
            f"bound = {draw(st.floats(1.0, N))!r}",
            f"direction = {draw(st.sampled_from(['upper', 'lower']))}",
        ]
    return "\n".join(lines) + "\n"


@given(scenario_documents())
def test_generated_scenarios_exit_with_a_documented_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generated.scenario"
        path.write_text(doc)
        assert main(["simulate", str(path)]) in DOCUMENTED_EXIT_CODES
