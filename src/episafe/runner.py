"""Run orchestration: simulate, audit, emit CSV outputs, parameter sweeps.

Trajectory CSV schema: one row per step with columns
``t,<compartments...>,u_raw,u,<h per constraint...>,d``.  Values are
written with 15 significant digits so a round trip through the file
reproduces them to better than 1e-12 relative, and identical runs produce
identical bytes.  A long-format companion table (t, series, value) serves
plotting tools directly.  Both files hold the same numbers, so each
sample is formatted once, as one line of the trajectory CSV, and the long
table is cut from those lines.  The lines of the last trajectory written are
kept until another trajectory is written.  The writers and the importer
work on the series a Trajectory keeps and load no numpy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
import math
from pathlib import Path
from typing import Iterable, Sequence

from .contract import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VIOLATION,
    SWEEP_PARAMETERS,
    LocatedError,
    read_text,
)
from .scenarios import SETTINGS
from .sim import (
    AuditReport,
    Scenario,
    Trajectory,
    grid_steps,
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

# Margin dips beyond this fraction of the bound count as real violations for
# exit-code purposes; smaller dips are integration dust.
VIOLATION_TOL = 1e-6

# Outcomes of a run, most severe first: a cap violation outranks a clamped
# (infeasible) step, within one run and across the runs of a sweep.
_SEVERITY = (EXIT_VIOLATION, EXIT_INFEASIBLE, EXIT_OK)


class TrajectoryFormatError(LocatedError):
    pass


@dataclass(frozen=True)
class RunReport:
    """Everything a caller needs to judge one run."""

    name: str
    scenario: Scenario
    trajectory: Trajectory
    audit: AuditReport
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
    not depend on the order values were given in.  Before any run, an empty
    list of values, a value of an integer setting that is not a whole
    number, and two values that give the same run name are rejected
    (ValueError).
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"cannot sweep {parameter!r}; supported: {', '.join(SWEEP_PARAMETERS)}"
        )
    values = sorted(values)
    if not values:
        raise ValueError(f"no {parameter} values to sweep")
    setting = next(s for s in SETTINGS if s.key == parameter)
    variants = {}
    for value in values:
        if setting.type is int and not float(value).is_integer():
            raise ValueError(f"{parameter} must be a whole number, got {value!r}")
        cast = setting.type(value)
        label = f"{name}_{parameter}_{cast:g}" if setting.type is float else f"{name}_{parameter}_{cast}"
        if label in variants:
            raise ValueError(f"two {parameter} values give the same run name {label!r}")
        variants[label] = dataclasses.replace(scenario, **{setting.field: cast})
    return [run(variant, name=label, out_dir=out_dir) for label, variant in variants.items()]


def _columns(scenario: Scenario) -> list[str]:
    """Trajectory CSV header: the name of each value of a Trajectory.rows()
    tuple."""
    return [
        "t",
        *scenario.spec.labels,
        "u_raw",
        "u",
        *(f"h_{c.label(k)}" for k, c in enumerate(scenario.constraints)),
        "d",
    ]


@lru_cache(maxsize=1)
def _lines(trajectory: Trajectory) -> list[str]:
    """One CSV line per sample, "t,<series...>\\n": its Trajectory.rows()
    tuple, every value to 15 significant digits.  The two writers of one
    trajectory share one formatting pass: the lines are kept for the
    trajectory last asked for, which hashes by identity."""
    template = ",".join(["%.15g"] * len(_columns(trajectory.scenario))) + "\n"
    return [template % row for row in trajectory.rows()]


def export_trajectory(trajectory: Trajectory, path: str | Path) -> Path:
    """Write the trajectory CSV (see module docstring for the schema)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(_columns(trajectory.scenario)) + "\n")
        fh.writelines(_lines(trajectory))
    return path


def import_trajectory(path: str | Path, scenario: Scenario) -> Trajectory:
    """Rebuild a Trajectory from an exported CSV and its scenario.

    states, u_raw, u and d come from their columns; the active constraint
    is not part of the file format and comes back as -1 at every step.
    feasible is rebuilt as u_raw <= 1.  That is exact while no constraint
    bounds u from above (such as a floor on I or a cap on S); the file does
    not record other infeasible steps.  The h columns are written for
    readers and not read back: the Trajectory computes its margins from
    the states, and its times from the scenario.  The header must match
    the scenario's, h columns included.  One pass reads the data lines and
    checks each as it is read, so the first faulty line is named: a line
    that is not one number per column by its number, a state, u_raw, u or
    d cell that is not finite, which would hide a breach or fake a
    clamping event, by its line and column.  The file must then hold one
    row per sample of the scenario's time grid, and grid_steps must map
    each t - t_start to its sample's step number (TrajectoryFormatError
    otherwise), so that the audit's decay check uses the file's own step.
    A file that cannot be read or is not UTF-8 is named by its path, and a
    leading byte-order mark is dropped (see contract.read_text).
    """
    path = Path(path)
    origin = str(path)
    # not splitlines: a form feed ends no line
    lines = read_text(path, "trajectory", TrajectoryFormatError).split("\n")
    if lines == [""]:
        raise TrajectoryFormatError("empty trajectory file", origin)
    expected = _columns(scenario)
    header = lines[0].split(",")
    if header != expected:
        raise TrajectoryFormatError(
            f"header {','.join(header)!r} does not match scenario "
            f"(expected {','.join(expected)!r})", origin
        )
    width, n_state = len(expected), len(scenario.spec.labels)
    read = [*range(1, 3 + n_state), width - 1]  # the states, u_raw, u and d
    times, states, u_raw, u, d = [], [], [], [], []
    for number, line in enumerate(lines[1:], 2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise TrajectoryFormatError(
                f"line {number}: expected {width} fields, got {len(cells)}", origin
            )
        try:
            row = list(map(float, cells))
        except ValueError as exc:
            raise TrajectoryFormatError(f"line {number}: bad numeric cell: {exc}", origin) from None
        # a finite sum has only finite entries
        if not math.isfinite(sum(row[1 : 3 + n_state]) + row[-1]):
            for j in read:
                if not math.isfinite(row[j]):  # the first, named by its column
                    raise TrajectoryFormatError(
                        f"line {number}: {expected[j]} = {row[j]} is not finite", origin
                    )
        times.append(row[0])
        states.append(row[1 : 1 + n_state])
        u_raw.append(row[1 + n_state])
        u.append(row[2 + n_state])
        d.append(row[-1])
    n_rows = scenario.n_steps + 1
    if len(times) != n_rows:
        raise TrajectoryFormatError(
            f"{len(times)} samples, but the scenario's time grid "
            f"(t_start {scenario.t_start:g}, t_end {scenario.t_end:g}, dt "
            f"{scenario.dt:g}) has {n_rows}", origin
        )
    for k, t in enumerate(times):
        if grid_steps(t - scenario.t_start, scenario.dt) != k:
            raise TrajectoryFormatError(
                f"sample {k} has t = {t!r}, off the scenario's "
                f"time grid (t_start {scenario.t_start:g}, dt {scenario.dt:g})", origin
            )
    return Trajectory(
        scenario=scenario,
        states=states,
        u_raw=u_raw,
        u=u,
        active=[-1] * n_rows,
        feasible=[v <= 1.0 for v in u_raw],
        disturbances=d,
    )


def write_long_table(trajectory: Trajectory, path: str | Path) -> Path:
    """Plot-ready long-format table: one (t, series, value) row per sample
    and series."""
    # One template fills a sample's rows: "{0},S,{1}\n{0},I,{2}\n..."
    fill = "".join(
        f"{{0}},{name.replace('{', '{{').replace('}', '}}')},{{{k}}}\n"
        for k, name in enumerate(_columns(trajectory.scenario)[1:], 1)
    ).format
    # a line's cells are numbers, and no number holds a comma
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("t,series,value\n")
        fh.writelines(fill(*line[:-1].split(",")) for line in _lines(trajectory))
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
    initial = report.trajectory.initial_report
    if initial is not None:
        status = "pass" if initial.ok else "FAIL"
        lines.append(f"initial-condition checks: {status}")
        lines.extend(f"  {line}" for line in initial.describe().splitlines())
    lines.append("peaks (clamped at zero):")
    for lbl in report.trajectory.labels:
        value, t = report.trajectory.peak(lbl)
        lines.append(f"  {lbl}: {value:.6g} at t={t:g}")
    lines.append("audit:")
    lines.extend(f"  {line}" for line in report.audit.describe().splitlines())
    for kind, p in sorted(report.outputs.items()):
        lines.append(f"wrote {kind}: {p}")
    lines.append(f"exit code: {report.exit_code}")
    return "\n".join(lines)
