"""Run orchestration: reports, sweeps, trajectory CSV round-trips."""

import codecs
import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from episafe import runner, sim
from episafe.sim import grid_steps, safety_audit, simulate
from oracles import reference_csv_text, reference_import


@pytest.fixture(scope="module")
def danger():
    return load_preset("sir_delay_danger")


@pytest.fixture(scope="module")
def fig2_lines(tmp_path_factory):
    """sir_fig2 and the lines of its exported trajectory CSV."""
    sc = load_preset("sir_fig2")
    path = export_trajectory(simulate(sc), tmp_path_factory.mktemp("fig2") / "t.csv")
    return sc, path.read_text().split("\n")


@pytest.fixture(scope="module")
def short_run(danger):
    sc = dataclasses.replace(danger, t_end=5.0, feedback_mode="instantaneous", tau=0.0)
    return simulate(sc)


class TestRun:
    def test_report_contents(self, danger):
        sc = dataclasses.replace(danger, t_end=10.0)
        report = run(sc, name="probe")
        assert report.name == "probe"
        assert report.outputs == {}
        text = format_report(report)
        assert "peaks" in text and "audit" in text
        for label in ("S", "I", "R"):
            value, t = report.trajectory.peak(label)
            assert f"  {label}: {value:.6g} at t={t:g}\n" in text
        for line in report.trajectory.initial_report.describe().splitlines():
            assert f"  {line}" in text
        for line in report.audit.describe().splitlines():
            assert f"  {line}\n" in text

    def test_one_margin_pass_per_run_and_per_audit(self, danger, tmp_path, monkeypatch):
        # the Trajectory computes its margins once; simulate, the importer
        # and the audit take them from it
        calls = []
        margins = sim._margins
        monkeypatch.setattr(sim, "_margins", lambda *a: calls.append(a) or margins(*a))
        sc = dataclasses.replace(danger, t_end=10.0)
        report = run(sc, out_dir=tmp_path)
        assert len(calls) == 1
        safety_audit(import_trajectory(report.outputs["trajectory"], sc))
        assert len(calls) == 2

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


def _write(traj, out_dir):
    """The trajectory CSV and long CSV text that runner writes for traj."""
    return (
        export_trajectory(traj, out_dir / "t.csv").read_text(),
        write_long_table(traj, out_dir / "l.csv").read_text(),
    )


class TestFormatOnce:
    """The two writers share the formatted lines of the trajectory last
    written, found by identity."""

    @pytest.fixture(scope="class")
    def other_run(self, short_run):
        return simulate(dataclasses.replace(short_run.scenario, disturbance_delta=0.05, seed=3))

    def test_both_writers_share_one_formatting_pass(self, short_run, tmp_path):
        export_trajectory(short_run, tmp_path / "t.csv")
        lines = runner._lines(short_run)
        write_long_table(short_run, tmp_path / "l.csv")
        assert runner._lines(short_run) is lines

    def test_alternating_trajectories_write_their_own_bytes(self, short_run, other_run, tmp_path):
        assert reference_csv_text(short_run) != reference_csv_text(other_run)
        for k, traj in enumerate((short_run, other_run, short_run)):
            assert _write(traj, tmp_path) == reference_csv_text(traj), k

    def test_replaced_scenario_writes_its_own_columns(self, short_run, tmp_path):
        from episafe.safety import MULTIPLICATIVE, SafetyConstraint

        _write(short_run, tmp_path)
        s_cap = SafetyConstraint(MULTIPLICATIVE, 0, 32e6, 1.0, name="S")
        sc = dataclasses.replace(
            short_run.scenario, constraints=(*short_run.scenario.constraints, s_cap)
        )
        replaced = dataclasses.replace(short_run, scenario=sc)
        wide, long = _write(replaced, tmp_path)
        assert wide.splitlines()[0] == "t,S,I,R,u_raw,u,h_I,h_S,d"
        assert (wide, long) == reference_csv_text(replaced)

    def test_threads_write_the_serial_bytes(self, short_run, other_run, tmp_path):
        serial = {traj: _write(traj, tmp_path) for traj in (short_run, other_run)}
        mismatches = []

        def export_in_turn(k):
            out_dir = tmp_path / f"thread{k}"
            out_dir.mkdir()
            try:
                for j in range(40):
                    traj = (short_run, other_run)[(j + k) % 2]
                    if _write(traj, out_dir) != serial[traj]:
                        mismatches.append((k, j))
            except Exception as exc:  # reported below, not lost in the thread
                mismatches.append((k, exc))

        threads = [threading.Thread(target=export_in_turn, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


class TestSweep:
    def test_empty_values(self, danger):
        with pytest.raises(ValueError, match="^no tau values to sweep$"):
            sweep(danger, "tau", [])

    def test_rejects_unknown_parameter(self, danger):
        with pytest.raises(ValueError, match="cannot sweep"):
            sweep(danger, "beta0", [0.1])

    @pytest.mark.parametrize(
        "parameter, values, message",
        [
            ("seed", [2.7, 2.2], "seed must be a whole number, got 2.2"),
            ("seed", [1, float("inf")], "seed must be a whole number"),
            ("seed", [2, 2.0], "same run name 'probe_seed_2'"),
            ("delta", [0.01, 0.0100000001], "same run name 'probe_delta_0.01'"),
            ("seed", [1, -3], "^seed must be a non-negative integer$"),
        ],
    )
    def test_rejects_values_before_any_run(self, danger, tmp_path, parameter, values, message):
        with pytest.raises(ValueError, match=message):
            sweep(danger, parameter, values, name="probe", out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_whole_float_seed_runs_as_integer(self, danger):
        sc = dataclasses.replace(danger, t_end=1.0)
        reports = sweep(sc, "seed", [3.0, 1])
        assert [r.name for r in reports] == ["sweep_seed_1", "sweep_seed_3"]
        assert [type(r.scenario.seed) for r in reports] == [int, int]

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

    def test_import_rejects_times_off_the_grid(self, short_run, tmp_path):
        path = export_trajectory(short_run, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[0] = repr(float(cells[0]) + 1e-6)
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFormatError, match="sample 2 .* off the scenario's time grid"):
            import_trajectory(path, short_run.scenario)
        cells[0] = "nan"  # printed as a float, not as numpy's repr
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFormatError, match="sample 2 has t = nan, off"):
            import_trajectory(path, short_run.scenario)
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TrajectoryFormatError, match="samples, but the scenario's time grid"):
            import_trajectory(path, short_run.scenario)

    @pytest.mark.parametrize(
        "row, message",
        [
            (lambda line: line + ",0", "line 4: expected 8 fields, got 9$"),
            (lambda line: "  ", "line 4: expected 8 fields, got 1$"),
            (
                lambda line: line.replace(",", ",x", 1),
                "line 4: bad numeric cell: could not convert string to float: 'x",
            ),
        ],
        ids=["extra field", "whitespace row", "bad cell"],
    )
    def test_import_names_the_line_of_a_bad_row(self, short_run, tmp_path, row, message):
        path = export_trajectory(short_run, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        lines[3] = row(lines[3])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFormatError, match=message):
            import_trajectory(path, short_run.scenario)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_import_refuses_a_non_finite_state_cell(self, short_run, tmp_path, cell):
        # a NaN margin would hide a breach from the audit's worst margin;
        # after a blank line, the cell is named by the line that holds it
        path = export_trajectory(short_run, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = cell
        lines[3] = ",".join(cells)
        lines.insert(2, "")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFormatError, match=f"line 5: I = {cell} is not finite$"):
            import_trajectory(path, short_run.scenario)

    @pytest.mark.parametrize("column", ["u_raw", "u", "d"])
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_import_refuses_a_non_finite_input_cell(self, short_run, tmp_path, column, cell):
        # a NaN u_raw would read as an infeasible step, a clamping event
        path = export_trajectory(short_run, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[lines[0].split(",").index(column)] = cell
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFormatError, match=f"line 4: {column} = {cell} is not finite$"):
            import_trajectory(path, short_run.scenario)

    def test_import_puts_an_infinite_time_off_the_grid(self, short_run, tmp_path):
        path = export_trajectory(short_run, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        lines[3] = "inf" + lines[3][lines[3].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFormatError, match="sample 2 has t = inf, off"):
            import_trajectory(path, short_run.scenario)

    def test_import_reads_no_h_cell(self, short_run, tmp_path):
        # the margins come from the states, so a NaN h cell is not refused
        path = export_trajectory(short_run, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[-2] = "nan"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        back = import_trajectory(path, short_run.scenario)
        assert np.isfinite(back.barriers).all()

    def test_import_counts_only_line_breaks(self, short_run, tmp_path):
        # a form feed closing line 3 ends no line: the extra field on line 5
        # is named as line 5
        path = export_trajectory(short_run, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        lines[2] += "\x0c"
        lines[4] += ",0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFormatError, match="line 5: expected 8 fields, got 9$"):
            import_trajectory(path, short_run.scenario)

    def test_import_names_an_undecodable_file(self, short_run, tmp_path):
        path = export_trajectory(short_run, tmp_path / "t.csv")
        path.write_bytes(path.read_bytes().replace(b",", b"\xff,", 1))
        with pytest.raises(TrajectoryFormatError) as err:
            import_trajectory(path, short_run.scenario)
        assert str(err.value).startswith(f"{path}: cannot read trajectory: 'utf-8' codec")

    def test_import_names_a_missing_file_once(self, short_run, tmp_path):
        path = tmp_path / "missing.csv"
        with pytest.raises(TrajectoryFormatError) as err:
            import_trajectory(path, short_run.scenario)
        assert str(err.value).startswith(f"{path}: cannot read trajectory: ")
        assert str(err.value).count(str(path)) == 1

    def test_import_drops_a_byte_order_mark(self, short_run, tmp_path):
        plain = export_trajectory(short_run, tmp_path / "t.csv")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        got = import_trajectory(marked, short_run.scenario)
        want = import_trajectory(plain, short_run.scenario)
        assert list(got.rows()) == list(want.rows())
        assert got.feasible.tolist() == want.feasible.tolist()
        assert safety_audit(got).describe() == safety_audit(want).describe()

    def test_import_names_the_first_faulty_line(self, short_run, tmp_path):
        # a nan state cell on line 5 and a non-number on line 10: the lines
        # are checked in one pass, so the earlier one is named
        path = export_trajectory(short_run, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        for number, cell in ((5, "nan"), (10, "x")):
            cells = lines[number - 1].split(",")
            cells[2] = cell
            lines[number - 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFormatError, match="line 5: I = nan is not finite$"):
            import_trajectory(path, short_run.scenario)

    def test_import_accepts_finite_cells_whose_sum_overflows(self, short_run, tmp_path):
        path = export_trajectory(short_run, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1:3] = ["1e308", "1e308"]
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        traj = import_trajectory(path, short_run.scenario)
        assert traj.state_at(2).x.tolist()[:2] == [1e308, 1e308]

    def test_import_names_an_empty_file(self, short_run, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(TrajectoryFormatError) as exc:
            import_trajectory(path, short_run.scenario)
        assert str(exc.value) == f"{path}: empty trajectory file"

    def test_import_time_check_matches_grid_steps(self, short_run, tmp_path):
        # the importer checks every row at once; grid_steps, row by row, is
        # the reference
        sc = short_run.scenario
        path = export_trajectory(short_run, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        rng = np.random.default_rng(44)
        outcomes = set()
        for _ in range(40):
            k = int(rng.integers(len(short_run)))
            cells = lines[1 + k].split(",")
            t = float(cells[0]) + float(rng.uniform(-2.0, 2.0)) * 1e-9 * max(1, k) * sc.dt
            cells[0] = repr(t)
            path.write_text("\n".join(lines[: 1 + k] + [",".join(cells)] + lines[2 + k :]) + "\n")
            on_grid = grid_steps(t - sc.t_start, sc.dt) == k
            try:
                import_trajectory(path, sc)
                accepted = True
            except TrajectoryFormatError:
                accepted = False
            assert accepted == on_grid, (k, t)
            outcomes.add(on_grid)
        assert outcomes == {True, False}

    def test_run_without_constraints_round_trips(self, tmp_path):
        # no h column: each row is the state, u_raw, u and d
        sc = dataclasses.replace(load_preset("sir_fig2"), constraints=())
        traj = simulate(sc)
        path = export_trajectory(traj, tmp_path / "free.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "t,S,I,R,u_raw,u,d"
        assert len(lines) == sc.n_steps + 2
        back = import_trajectory(path, sc)
        for name in ("u_raw", "u", "disturbances"):
            assert getattr(back, name).tobytes() == getattr(traj, name).tobytes()
        np.testing.assert_allclose(back.states, traj.states, rtol=1e-12, atol=0.0)
        assert export_trajectory(back, tmp_path / "again.csv").read_bytes() == path.read_bytes()

    @settings(max_examples=200)
    @given(data=st.data())
    def test_import_agrees_with_the_line_by_line_reader(self, fig2_lines, tmp_path_factory, data):
        # one random edit to a data line of an exported sir_fig2 CSV: the
        # importer raises the reference's fault, or returns its series
        sc, lines = fig2_lines
        lines = list(lines)
        last = len(lines) - 2  # lines[-1] is the empty tail after the final line break
        number = data.draw(st.integers(1, last), label="line")
        line = lines[number]
        edit = data.draw(st.sampled_from(
            ["drop comma", "add comma", "cell", "blank", "spaces", "swap"]
        ), label="edit")
        if edit == "drop comma":
            at = data.draw(st.sampled_from([i for i, c in enumerate(line) if c == ","]))
            lines[number] = line[:at] + line[at + 1 :]
        elif edit == "add comma":
            at = data.draw(st.integers(0, len(line)))
            lines[number] = line[:at] + "," + line[at:]
        elif edit == "cell":
            cells = line.split(",")
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(
                st.sampled_from(["x", "nan", "inf", "-inf", ""])
            )
            lines[number] = ",".join(cells)
        elif edit == "blank":
            lines[number] = ""
        elif edit == "spaces":
            lines[number] = " " * data.draw(st.integers(1, 3))
        else:
            other = data.draw(st.integers(1, last))
            lines[number], lines[other] = lines[other], line
        path = tmp_path_factory.mktemp("edited") / "t.csv"
        path.write_text("\n".join(lines))
        try:
            want = reference_import(path, sc)
        except TrajectoryFormatError as exc:
            with pytest.raises(TrajectoryFormatError) as got:
                import_trajectory(path, sc)
            assert str(got.value) == str(exc)
            return
        got = import_trajectory(path, sc)
        _, states, u_raw, u, d = want
        assert got.states.tobytes() == np.array(states, dtype=float).tobytes()
        for series, values in ((got.u_raw, u_raw), (got.u, u), (got.disturbances, d)):
            assert series.tobytes() == np.array(values, dtype=float).tobytes()

    def test_long_table_series_complete(self, short_run, tmp_path):
        path = write_long_table(short_run, tmp_path / "long.csv")
        lines = path.read_text().splitlines()
        series = {line.split(",")[1] for line in lines[1:]}
        assert series == {"S", "I", "R", "u_raw", "u", "h_I", "d"}
        assert len(lines) == 1 + len(short_run) * 7

    def test_long_table_reshapes_trajectory_csv(self, danger, tmp_path):
        # a constraint name with braces must come through the row template
        # verbatim
        cap = dataclasses.replace(danger.constraints[0], name="{I} cap {0}")
        sc = dataclasses.replace(
            danger, t_end=5.0, feedback_mode="instantaneous", tau=0.0, constraints=(cap,)
        )
        traj = simulate(sc)
        header, *rows = export_trajectory(traj, tmp_path / "t.csv").read_text().splitlines()
        names = header.split(",")[1:]
        assert "h_{I} cap {0}" in names
        want = ["t,series,value"]
        for row in rows:
            t, *values = row.split(",")
            want += [f"{t},{name},{value}" for name, value in zip(names, values)]
        got = write_long_table(traj, tmp_path / "long.csv").read_text()
        assert got == "\n".join(want) + "\n"
