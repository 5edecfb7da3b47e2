"""Command-line interface contract: subcommands, exit codes, determinism."""

import datetime as dt
import hashlib
import math
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from episafe.cli import main
from episafe.runner import exit_code
from episafe.scenarios import load_preset, write_scenario
from episafe.sim import safety_audit, simulate

CASES_CSV = """\
date,cumulative_confirmed,positivity_rate
2020-03-25,65000,0.04
2020-03-26,70000,0.32
"""


def seeded_cases(rows: int, seed: int) -> str:
    """Daily case data with all four columns, drawn from
    random.Random(seed).random alone, whose sequence Python keeps across
    versions."""
    rng = random.Random(seed)
    day, total = dt.date(2020, 1, 22), 0.0
    lines = ["date,cumulative_confirmed,positivity_rate,mobility_index"]
    for _ in range(rows):
        total += math.floor(5000 * rng.random())
        lines.append(f"{day},{total:.1f},{0.02 + 0.38 * rng.random()!r},{0.2 + rng.random()!r}")
        day += dt.timedelta(days=1)
    return "\n".join(lines) + "\n"


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


def _assert_invalid_choice(captured, command, option, value, choices):
    """argparse's usage error for a value outside an option's choices."""
    assert captured.out == ""
    usage, error = captured.err.split(f"episafe {command}: error: ")
    assert usage.startswith(f"usage: episafe {command} ")
    prefix = f"argument {option}: invalid choice: {value!r} (choose from "
    assert error.startswith(prefix) and error.endswith(")\n")
    listed = error[len(prefix):-2].split(", ")
    assert [c.strip("'") for c in listed] == list(choices)


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

    def test_unwritable_output_directory_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["simulate", "sir_delay_danger", "--out", str(blocker / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_run_too_long_to_allocate_exits_2(self, capsys):
        # 1.9e17 steps: numpy refuses the arrays at once
        assert main(["simulate", "sir_fig2", "--dt", "1e-15"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_comma_in_constraint_name_exits_2(self, tmp_path, capsys):
        # the name would add a column to the trajectory CSV header
        doc = sir_doc(
            (26e6, 1e5, 6.9e6), "mode = instantaneous",
            ["compartment = I\nbound = 2e5\nname = cap,I\n"],
        )
        path = tmp_path / "comma.scenario"
        path.write_text(doc)
        line = doc.splitlines().index("[constraint]") + 1
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {path}:{line}: [constraint] on I: "
            "name 'cap,I' must not contain a comma, '#' or a line break,"
            " nor start or end with whitespace\n"
        )
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "audit"])
    def test_unknown_mode_is_a_usage_error(self, command, capsys):
        args = ["x.csv", "sir_fig2"] if command == "audit" else ["sir_fig2"]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--mode", "bogus"])
        assert exc.value.code == 2
        _assert_invalid_choice(
            capsys.readouterr(), command, "--mode", "bogus",
            ("instantaneous", "delayed", "predictor"),
        )

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

    def test_refused_start_is_one_line(self, tmp_path, capsys):
        # I starts 1e5 over its cap: one line names every constraint
        doc = sir_doc(
            (26e6, 3e5, 6.7e6), "mode = instantaneous",
            ["compartment = I\nbound = 2e5\n", "compartment = R\nbound = 2e7\n"],
        )
        path = tmp_path / "over_cap.scenario"
        path.write_text(doc)
        assert main(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: initial condition fails controller hypotheses: "
            "I: h=-100000 [FAIL]; R: h=1.33e+07, h_e=206000 [ok]\n"
        )

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

    def test_other_time_step_is_validation_error(self, tmp_path, capsys):
        # a file sampled at dt 0.1 audited at dt 0.05 would run the decay
        # check with the wrong step; its time column gives it away
        assert main(["simulate", "sir_delay_danger", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        traj = tmp_path / "sir_delay_danger_trajectory.csv"
        assert main(["audit", str(traj), "sir_delay_danger", "--dt", "0.05"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "time grid" in err

    def test_matching_time_step_audit_unchanged(self, tmp_path, capsys):
        assert main(["simulate", "sir_delay_danger", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        traj = tmp_path / "sir_delay_danger_trajectory.csv"
        code = main(["audit", str(traj), "sir_delay_danger", "--dt", "0.1"])
        out = capsys.readouterr().out
        scenario = load_preset("sir_delay_danger")
        report = safety_audit(simulate(scenario))
        assert code == exit_code(scenario, report)
        assert report.describe() in out
        assert "decay check failures 410 (worst -11887.7," in out


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

    def test_fractional_seeds_exit_2_before_any_run(self, tmp_path, capsys):
        # int() would truncate both to seed 2 and write one file over the other
        assert main([
            "sweep", "sir_delay_danger", "--param", "seed", "--values", "2.7,2.2",
            "--out", str(tmp_path),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a whole number, got 2.2\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_run_too_long_to_allocate_exits_2(self, tmp_path, capsys):
        assert main([
            "sweep", "sir_fig2", "--param", "dt", "--values", "1e-15", "--out", str(tmp_path),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_unknown_parameter_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "sir_fig2", "--param", "beta", "--values", "1"])
        assert exc.value.code == 2
        _assert_invalid_choice(
            capsys.readouterr(), "sweep", "--param", "beta",
            ("tau", "dt", "seed", "delta", "t_end", "control_start"),
        )

    def test_bad_values_list(self, capsys):
        assert main([
            "sweep", "sir_delay_danger", "--param", "tau", "--values", "a,b",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: could not convert string to float: 'a'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("values", [",", " , "])
    def test_empty_values_list(self, values, capsys):
        assert main([
            "sweep", "sir_delay_danger", "--param", "tau", "--values", values,
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no tau values to sweep\n"
        assert captured.out == ""


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

    @pytest.mark.parametrize(
        "text, reason",
        [
            (CASES_CSV.replace(",0.32", ","), "record 1 (2020-03-26) has no positivity_rate"),
            (
                CASES_CSV.replace(",0.32", ",").replace(",0.04", ","),
                "no record has a positivity_rate",
            ),
            ("date,cumulative_confirmed\n2020-03-25,65000\n", "no record has a positivity_rate"),
        ],
        ids=["empty_cell", "empty_column", "no_column"],
    )
    def test_skipped_scaling_names_its_reason(self, tmp_path, capsys, text, reason):
        cases = tmp_path / "cases.csv"
        cases.write_text(text)
        assert main(["ingest", str(cases), "--out", str(tmp_path)]) == 0
        assert f"positivity scaling: skipped ({reason})\n" in capsys.readouterr().out
        header = (tmp_path / "cases_scaled.csv").read_text().splitlines()[0]
        assert header == "date,cumulative_confirmed"

    @pytest.mark.parametrize(
        "blank_row, digests",
        [
            (None, {
                "seeded.csv": "10adf73ba3376f5bd0bfb17a3b9494b0d785b5b857cdfcaf5fa0b923f659614d",
                "seeded_scaled.csv": "4e1fa1f2a3bf75f7dc5ee4ebd637cf1c220aee246b93820b3f8a0338ffdcc370",
                "seeded_scaled.meta.json": "670e495e51916986dcde1eb2c3ae88168d0719ca935c824670b6f5d3f284729c",
            }),
            (1500, {
                "seeded.csv": "0737bce62f1227045433d9bc199d1b57fe10b2e8bf91b46698b312eea5b12b36",
                "seeded_scaled.csv": "d718d7af50fb9e9d92181c486fa207f4502f0d9472af9d22fee35628be26b427",
            }),
        ],
        ids=["scaled", "unscaled"],
    )
    def test_output_bytes_pinned(self, tmp_path, blank_row, digests):
        # sha256 of every file in the directory: the input, then what
        # ingest --out wrote; a blank positivity cell on one row takes the
        # unscaled branch, which writes no metadata
        lines = seeded_cases(3000, seed=7).splitlines()
        if blank_row is not None:
            cells = lines[blank_row].split(",")
            cells[2] = ""
            lines[blank_row] = ",".join(cells)
        cases = tmp_path / "seeded.csv"
        cases.write_text("\n".join(lines) + "\n")
        assert main(["ingest", str(cases), "--out", str(tmp_path)]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert written == digests

    def test_bad_rows_exit_2(self, tmp_path, capsys):
        cases = tmp_path / "bad.csv"
        cases.write_text(CASES_CSV + "2020-03-27,60000,0.2\n")
        assert main(["ingest", str(cases)]) == 2
        assert "decreases" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["nan", "inf"])
    def test_non_finite_count_exits_2(self, tmp_path, capsys, count):
        cases = tmp_path / "bad.csv"
        cases.write_text(CASES_CSV.replace("70000", count))
        assert main(["ingest", str(cases), "--out", str(tmp_path)]) == 2
        assert "bad.csv:3: cumulative_confirmed must be finite" in capsys.readouterr().err
        assert not (tmp_path / "bad_scaled.csv").exists()


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
