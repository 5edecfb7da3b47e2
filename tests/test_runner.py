"""Run orchestration: reports, sweeps, trajectory CSV round-trips."""

import dataclasses

import numpy as np
import pytest

from episafe.runner import (
    TrajectoryFormatError,
    export_trajectory,
    format_report,
    import_trajectory,
    run,
    sweep,
    write_long_table,
)
from episafe.scenarios import load_preset
from episafe.sim import simulate


@pytest.fixture(scope="module")
def danger():
    return load_preset("sir_delay_danger")


@pytest.fixture(scope="module")
def short_run(danger):
    sc = dataclasses.replace(danger, t_end=5.0, feedback_mode="instantaneous", tau=0.0)
    return simulate(sc)


class TestRun:
    def test_report_contents(self, danger):
        sc = dataclasses.replace(danger, t_end=10.0)
        report = run(sc, name="probe")
        assert report.name == "probe"
        assert set(report.peaks) == {"S", "I", "R"}
        assert report.outputs == {}
        text = format_report(report)
        assert "peaks" in text and "audit" in text
        for line in report.initial.describe().splitlines():
            assert f"  {line}" in text

    def test_exit_code_zero_for_clean_guaranteed_run(self, danger):
        sc = dataclasses.replace(danger, feedback_mode="predictor")
        assert run(sc).exit_code == 0

    def test_violation_not_flagged_outside_guaranteed_mode(self, danger):
        # delayed feedback violates, but makes no guarantee: exit 0
        report = run(danger)
        assert report.audit.constraints[0].violation_count > 0
        assert report.exit_code == 0

    def test_infeasibility_flagged(self, sir_spec):
        from episafe.safety import MULTIPLICATIVE, SafetyConstraint
        from episafe.sim import Scenario

        sc = Scenario(
            spec=sir_spec,
            state0=sir_spec.state([32.75e6, 1.5e5, 1e5]),
            t_start=0.0, t_end=2.0, dt=0.1,
            constraints=(SafetyConstraint(MULTIPLICATIVE, 1, 5e4, 5.0, name="I"),),
            feedback_mode="delayed", tau=0.0,
        )
        report = run(sc)
        assert report.audit.infeasible_count > 0
        assert report.exit_code == 4

    def test_output_files_written(self, danger, tmp_path):
        sc = dataclasses.replace(danger, t_end=5.0)
        report = run(sc, name="files", out_dir=tmp_path)
        assert report.outputs["trajectory"].exists()
        assert report.outputs["long"].exists()
        header = report.outputs["long"].read_text().splitlines()[0]
        assert header == "t,series,value"


class TestSweep:
    def test_empty_values(self, danger):
        assert sweep(danger, "tau", []) == []

    def test_rejects_unknown_parameter(self, danger):
        with pytest.raises(ValueError, match="cannot sweep"):
            sweep(danger, "beta0", [0.1])

    def test_overshoot_grows_with_delay(self, danger):
        reports = sweep(danger, "tau", [11.0, 0.0, 5.0])
        taus = [r.scenario.tau for r in reports]
        assert taus == [0.0, 5.0, 11.0]  # sorted before emission
        overshoot = [max(0.0, -r.audit.constraints[0].min_margin) for r in reports]
        assert overshoot[0] <= overshoot[1] <= overshoot[2]
        assert overshoot[2] > 0.0


class TestTrajectoryCsv:
    def test_column_schema(self, short_run, tmp_path):
        path = export_trajectory(short_run, tmp_path / "t.csv")
        header = path.read_text().splitlines()[0].split(",")
        n_state = len(short_run.labels)
        n_cons = len(short_run.scenario.constraints)
        assert len(header) == 1 + n_state + 2 + n_cons + 1
        assert header == ["t", "S", "I", "R", "u_raw", "u", "h_I", "d"]

    def test_one_step_trajectory_two_lines(self, danger, tmp_path):
        sc = dataclasses.replace(
            danger, t_end=0.1, feedback_mode="instantaneous", tau=0.0
        )
        path = export_trajectory(simulate(sc), tmp_path / "one.csv")
        assert len(path.read_text().splitlines()) == 3  # header + 2 samples

    def test_round_trip_relative_error(self, short_run, tmp_path):
        path = export_trajectory(short_run, tmp_path / "rt.csv")
        back = import_trajectory(path, short_run.scenario)
        for a, b in (
            (back.times, short_run.times),
            (back.states, short_run.states),
            (back.barriers, short_run.barriers),
            (back.u_raw, short_run.u_raw),
            (back.u, short_run.u),
            (back.disturbances, short_run.disturbances),
        ):
            err = np.abs(a - b) / np.maximum(1.0, np.abs(b))
            assert err.max() <= 1e-12

    def test_export_bytes_deterministic(self, short_run, tmp_path):
        p1 = export_trajectory(short_run, tmp_path / "a.csv")
        p2 = export_trajectory(short_run, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_import_rejects_header_mismatch(self, short_run, danger, tmp_path):
        path = export_trajectory(short_run, tmp_path / "t.csv")
        other = dataclasses.replace(danger, constraints=())
        with pytest.raises(TrajectoryFormatError, match="header"):
            import_trajectory(path, other)

    def test_long_table_series_complete(self, short_run, tmp_path):
        path = write_long_table(short_run, tmp_path / "long.csv")
        lines = path.read_text().splitlines()
        series = {line.split(",")[1] for line in lines[1:]}
        assert series == {"S", "I", "R", "u_raw", "u", "h_I", "d"}
        assert len(lines) == 1 + len(short_run) * 7
