"""Command-line interface.

Subcommands:
  simulate <scenario>                  run a scenario (preset name or file)
  audit <trajectory.csv> <scenario>    re-audit an exported trajectory
  sweep <scenario> --param P --values  run a one-parameter family
  ingest <cases.csv>                   validate (and scale) recorded cases
  presets list                         show bundled scenarios

Exit codes (runner.exit_code): 0 success, 2 validation error, 3 safety
violation detected in a guaranteed-mode run, 4 the min-norm QP was
infeasible at some step and the input was clamped.  A sweep exits with the
most severe code of its runs (runner.worst_exit_code: 3, then 4, then 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .cases import CaseDataError, ingest_cases, scale_cases
from .runner import (
    EXIT_OK,
    EXIT_VALIDATION,
    SWEEP_PARAMETERS,
    TrajectoryFormatError,
    exit_code,
    format_report,
    import_trajectory,
    run,
    sweep,
    worst_exit_code,
    write_long_table,
)
from .scenarios import ScenarioParseError, preset_names, preset_note, resolve_scenario
from .sim import SimulationError, safety_audit

__all__ = ["main", "entry"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="episafe",
        description="Safety-critical intervention policies for epidemic models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", metavar="DIR", help="directory for output files")
        p.add_argument("--dt", type=float, help="override the time step (days)")
        p.add_argument("--seed", type=int, help="override the disturbance seed")
        p.add_argument(
            "--mode",
            choices=("instantaneous", "delayed", "predictor"),
            help="override the feedback mode",
        )

    p_sim = sub.add_parser("simulate", help="run a scenario and audit it")
    p_sim.add_argument("scenario", help="preset name or scenario file path")
    add_common(p_sim)

    p_audit = sub.add_parser("audit", help="audit an exported trajectory")
    p_audit.add_argument("trajectory", help="trajectory CSV path")
    p_audit.add_argument("scenario", help="preset name or scenario file path")
    add_common(p_audit)

    p_sweep = sub.add_parser("sweep", help="run a one-parameter scenario family")
    p_sweep.add_argument("scenario", help="preset name or scenario file path")
    p_sweep.add_argument(
        "--param", required=True, choices=SWEEP_PARAMETERS, help="parameter to vary"
    )
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated parameter values"
    )
    add_common(p_sweep)

    p_ingest = sub.add_parser("ingest", help="validate and scale recorded case data")
    p_ingest.add_argument("cases", help="case-data CSV path")
    p_ingest.add_argument("--out", metavar="DIR", help="directory for output files")

    p_presets = sub.add_parser("presets", help="bundled scenario presets")
    p_presets.add_argument("action", choices=("list",))
    return parser


def _apply_overrides(scenario, args):
    overrides = {}
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mode is not None:
        overrides["feedback_mode"] = args.mode
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    return scenario


def _cmd_simulate(args) -> int:
    name, scenario = resolve_scenario(args.scenario)
    scenario = _apply_overrides(scenario, args)
    report = run(scenario, name=name, out_dir=args.out)
    print(format_report(report))
    return report.exit_code


def _cmd_audit(args) -> int:
    name, scenario = resolve_scenario(args.scenario)
    scenario = _apply_overrides(scenario, args)
    trajectory = import_trajectory(args.trajectory, scenario)
    audit = safety_audit(trajectory)
    print(f"audit of {args.trajectory} against {name}:")
    print(audit.describe())
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        long_path = write_long_table(trajectory, out_dir / f"{name}_audit_long.csv")
        print(f"wrote long: {long_path}")
    return exit_code(scenario, audit)


def _cmd_sweep(args) -> int:
    name, scenario = resolve_scenario(args.scenario)
    scenario = _apply_overrides(scenario, args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print(f"cannot parse --values {args.values!r}", file=sys.stderr)
        return EXIT_VALIDATION
    reports = sweep(scenario, args.param, values, name=name, out_dir=args.out)
    for report in reports:
        print(format_report(report))
        print()
    return worst_exit_code(r.exit_code for r in reports)


def _cmd_ingest(args) -> int:
    records = ingest_cases(args.cases)
    print(f"{len(records)} valid case records "
          f"({records[0].date} .. {records[-1].date})")
    have_positivity = all(r.positivity_rate is not None for r in records)
    scaled = scale_cases(records) if have_positivity else None
    if scaled is not None:
        print(
            f"positivity scaling: exponent {scaled.exponent:g}, "
            f"reference {scaled.reference_positivity:g}"
        )
    else:
        print("positivity scaling: skipped (no positivity_rate column)")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = Path(args.cases).stem
        out_csv = out_dir / f"{stem}_scaled.csv"
        with out_csv.open("w") as fh:
            if scaled is not None:
                fh.write("date,cumulative_confirmed,positivity_rate,scaled_confirmed\n")
                for r in scaled.records:
                    fh.write(
                        f"{r.date.isoformat()},{r.cumulative_confirmed:.15g},"
                        f"{r.positivity_rate:.15g},{r.scaled_confirmed:.15g}\n"
                    )
            else:
                fh.write("date,cumulative_confirmed\n")
                for rec in records:
                    fh.write(f"{rec.date.isoformat()},{rec.cumulative_confirmed:.15g}\n")
        print(f"wrote {out_csv}")
        if scaled is not None:
            meta_path = out_dir / f"{stem}_scaled.meta.json"
            meta_path.write_text(json.dumps(scaled.metadata(), indent=2, sort_keys=True) + "\n")
            print(f"wrote {meta_path}")
    return EXIT_OK


def _cmd_presets(args) -> int:
    for name in preset_names():
        print(f"{name}: {preset_note(name)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "audit": _cmd_audit,
        "sweep": _cmd_sweep,
        "ingest": _cmd_ingest,
        "presets": _cmd_presets,
    }
    try:
        return handlers[args.command](args)
    except (
        ScenarioParseError,
        CaseDataError,
        TrajectoryFormatError,
        ValueError,
        SimulationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
