"""Run orchestration: simulate, audit, emit CSV outputs, parameter sweeps.

Trajectory CSV schema: one row per step with columns
``t,<compartments...>,u_raw,u,<h per constraint...>,d``.  Values are
written with 15 significant digits so a round trip through the file
reproduces them to better than 1e-12 relative, and identical runs produce
identical bytes.  A long-format companion table (t, series, value) serves
plotting tools directly.
"""

from __future__ import annotations

import dataclasses
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .safety import InitialConditionReport
from .sim import (
    AuditReport,
    Scenario,
    Trajectory,
    _margin_series,
    safety_audit,
    simulate,
)

__all__ = [
    "EXIT_OK",
    "EXIT_VALIDATION",
    "EXIT_VIOLATION",
    "EXIT_INFEASIBLE",
    "RunReport",
    "TrajectoryFormatError",
    "SWEEP_PARAMETERS",
    "exit_code",
    "worst_exit_code",
    "run",
    "sweep",
    "export_trajectory",
    "import_trajectory",
    "write_long_table",
    "format_report",
]

SWEEP_PARAMETERS = ("tau", "dt", "seed", "delta", "t_end", "control_start")

# Margin dips beyond this fraction of the bound count as real violations for
# exit-code purposes; smaller dips are integration dust.
VIOLATION_TOL = 1e-6

# Process exit codes of every command that runs or audits a trajectory.
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3
EXIT_INFEASIBLE = 4

# Outcomes of a run, most severe first: a cap violation outranks a clamped
# (infeasible) step, within one run and across the runs of a sweep.
_SEVERITY = (EXIT_VIOLATION, EXIT_INFEASIBLE, EXIT_OK)


class TrajectoryFormatError(ValueError):
    pass


_fmt = "{:.15g}".format


@dataclass(frozen=True)
class RunReport:
    """Everything a caller needs to judge one run."""

    name: str
    scenario: Scenario
    trajectory: Trajectory
    audit: AuditReport
    initial: InitialConditionReport | None
    peaks: dict[str, tuple[float, float]]
    outputs: dict[str, Path]
    exit_code: int


def worst_exit_code(codes: Iterable[int]) -> int:
    """The most severe of several run outcomes: EXIT_VIOLATION, then
    EXIT_INFEASIBLE, then EXIT_OK (also for no codes at all)."""
    return min(codes, key=_SEVERITY.index, default=EXIT_OK)


def exit_code(scenario: Scenario, audit: AuditReport) -> int:
    """EXIT_VIOLATION when a guaranteed-mode run dips below a bound by more
    than VIOLATION_TOL of it, EXIT_INFEASIBLE when any step's QP was
    infeasible, the more severe of the two when both apply (see
    worst_exit_code), else EXIT_OK."""
    violated = scenario.guaranteed and any(
        audit_c.min_margin < -VIOLATION_TOL * c.bound
        for c, audit_c in zip(scenario.constraints, audit.constraints)
    )
    return worst_exit_code((
        EXIT_VIOLATION if violated else EXIT_OK,
        EXIT_INFEASIBLE if audit.infeasible_count > 0 else EXIT_OK,
    ))


def run(
    scenario: Scenario,
    name: str = "run",
    out_dir: str | Path | None = None,
) -> RunReport:
    """Simulate, audit, and (optionally) write the output files."""
    trajectory = simulate(scenario)
    audit = safety_audit(trajectory)
    peaks = {lbl: trajectory.peak(lbl) for lbl in trajectory.labels}
    outputs: dict[str, Path] = {}
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        traj_path = out_dir / f"{name}_trajectory.csv"
        export_trajectory(trajectory, traj_path)
        long_path = out_dir / f"{name}_long.csv"
        write_long_table(trajectory, long_path)
        outputs = {"trajectory": traj_path, "long": long_path}
    return RunReport(
        name=name,
        scenario=scenario,
        trajectory=trajectory,
        audit=audit,
        initial=trajectory.initial_report,
        peaks=peaks,
        outputs=outputs,
        exit_code=exit_code(scenario, audit),
    )


def sweep(
    scenario: Scenario,
    parameter: str,
    values: Sequence[float],
    name: str = "sweep",
    out_dir: str | Path | None = None,
) -> list[RunReport]:
    """Run the scenario once per value of one declared parameter.

    Reports come back sorted by parameter value, so aggregation order does
    not depend on the order values were given in.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"cannot sweep {parameter!r}; supported: {', '.join(SWEEP_PARAMETERS)}"
        )
    field = {"delta": "disturbance_delta"}.get(parameter, parameter)
    reports = []
    for value in sorted(values):
        cast = int(value) if parameter == "seed" else float(value)
        variant = dataclasses.replace(scenario, **{field: cast})
        label = f"{name}_{parameter}_{cast:g}" if parameter != "seed" else f"{name}_{parameter}_{cast}"
        reports.append(run(variant, name=label, out_dir=out_dir))
    return reports


def _columns(scenario: Scenario) -> list[str]:
    """Trajectory CSV header: t, then the series of the rows _rows gives."""
    return [
        "t",
        *scenario.spec.labels,
        "u_raw",
        "u",
        *(f"h_{c.label(k)}" for k, c in enumerate(scenario.constraints)),
        "d",
    ]


def _rows(trajectory: Trajectory) -> list[list[float]]:
    """One list of floats per sample, in _columns order."""
    return np.column_stack((
        trajectory.times, trajectory.states, trajectory.u_raw, trajectory.u,
        trajectory.barriers, trajectory.disturbances,
    )).tolist()


def export_trajectory(trajectory: Trajectory, path: str | Path) -> Path:
    """Write the trajectory CSV (see module docstring for the schema)."""
    buf = io.StringIO()
    buf.write(",".join(_columns(trajectory.scenario)) + "\n")
    for row in _rows(trajectory):
        buf.write(",".join(map(_fmt, row)) + "\n")
    path = Path(path)
    path.write_text(buf.getvalue())
    return path


def import_trajectory(path: str | Path, scenario: Scenario) -> Trajectory:
    """Rebuild a Trajectory from an exported CSV and its scenario.

    u_raw and u come from their columns; the active constraint is not part
    of the file format and comes back as -1 at every step.  feasible is
    rebuilt as u_raw <= 1.  That is exact while no constraint bounds u from
    above (such as a floor on I or a cap on S); the file does not record
    other infeasible steps.  extended is recomputed from the states.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise TrajectoryFormatError(f"cannot read trajectory: {exc}") from exc
    if not lines:
        raise TrajectoryFormatError(f"{path}: empty trajectory file")
    expected = _columns(scenario)
    header = lines[0].split(",")
    if header != expected:
        raise TrajectoryFormatError(
            f"{path}: header {','.join(header)!r} does not match scenario "
            f"(expected {','.join(expected)!r})"
        )
    try:
        data = np.array(
            [list(map(float, line.split(","))) for line in lines[1:] if line],
        )
    except ValueError as exc:
        raise TrajectoryFormatError(f"{path}: bad numeric cell: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(expected):
        raise TrajectoryFormatError(f"{path}: malformed data block {data.shape}")
    n_state = len(scenario.spec.labels)
    n_c = len(scenario.constraints)
    times = data[:, 0]
    states = data[:, 1 : 1 + n_state]
    u_raw = data[:, 1 + n_state]
    u = data[:, 2 + n_state]
    barriers = data[:, 3 + n_state : 3 + n_state + n_c]
    dists = data[:, -1]
    _, extended = _margin_series(scenario.spec, scenario.constraints, states)
    return Trajectory(
        scenario=scenario,
        times=times,
        states=states,
        u_raw=u_raw,
        u=u,
        active=np.full(data.shape[0], -1),
        feasible=u_raw <= 1.0,
        barriers=barriers,
        extended=extended,
        disturbances=dists,
        initial_report=None,
    )


def write_long_table(trajectory: Trajectory, path: str | Path) -> Path:
    """Plot-ready long-format table: one (t, series, value) row per sample
    and series."""
    names = _columns(trajectory.scenario)[1:]
    buf = io.StringIO()
    buf.write("t,series,value\n")
    for t, *values in _rows(trajectory):
        t = _fmt(t)
        for name, value in zip(names, values):
            buf.write(f"{t},{name},{_fmt(value)}\n")
    path = Path(path)
    path.write_text(buf.getvalue())
    return path


def format_report(report: RunReport) -> str:
    """Human-readable run summary (deterministic)."""
    sc = report.scenario
    lines = [
        f"run: {report.name}",
        f"model: {sc.spec.kind}  mode: {sc.feedback_mode}  "
        f"tau: {sc.tau:g}  dt: {sc.dt:g}  horizon: [{sc.t_start:g}, {sc.t_end:g}]",
        f"disturbance delta: {sc.disturbance_delta:g}  seed: {sc.seed}",
    ]
    if report.initial is not None:
        status = "pass" if report.initial.ok else "FAIL"
        lines.append(f"initial-condition checks: {status}")
        lines.extend(f"  {line}" for line in report.initial.describe().splitlines())
    lines.append("peaks (clamped at zero):")
    for lbl, (value, t) in report.peaks.items():
        lines.append(f"  {lbl}: {value:.6g} at t={t:g}")
    lines.append("audit:")
    for c in report.audit.constraints:
        lines.append(
            f"  {c.label}: min h={c.min_margin:.6g} at t={c.min_margin_time:g}, "
            f"violations={c.violation_count}"
        )
    lines.append(f"  input clamping events: {report.audit.infeasible_count}")
    for kind, p in sorted(report.outputs.items()):
        lines.append(f"wrote {kind}: {p}")
    lines.append(f"exit code: {report.exit_code}")
    return "\n".join(lines)
