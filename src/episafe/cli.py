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

Each command imports the modules it runs when it runs, so parsing the
arguments loads no numerical code.  No command loads numpy but a
``simulate`` or ``sweep`` of a disturbed scenario, which draws its input
offsets with numpy's generator.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from operator import attrgetter
from pathlib import Path

from .contract import EXIT_OK, EXIT_VALIDATION, MODES, SWEEP_PARAMETERS, SimulationError

__all__ = ["main", "entry"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="episafe",
        description="Safety-critical intervention policies for epidemic models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
        p.add_argument("--out", metavar="DIR", help="directory for output files")
        p.add_argument("--dt", type=float, help="override the time step (days)")
        if seed:
            p.add_argument("--seed", type=int, help="override the disturbance seed")
        p.add_argument(
            "--mode",
            choices=MODES,
            help="override the feedback mode",
        )

    p_sim = sub.add_parser("simulate", help="run a scenario and audit it")
    p_sim.add_argument("scenario", help="preset name or scenario file path")
    add_common(p_sim)

    p_audit = sub.add_parser("audit", help="audit an exported trajectory")
    p_audit.add_argument("trajectory", help="trajectory CSV path")
    p_audit.add_argument("scenario", help="preset name or scenario file path")
    add_common(p_audit, seed=False)  # d comes from the file: no draw to seed

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


def _scenario(args):
    """(name, scenario) for the preset or file args.scenario, with each
    setting given as --dt, --seed (not taken by audit) or --mode."""
    from .scenarios import SETTINGS, resolve_scenario

    name, scenario = resolve_scenario(args.scenario)
    overrides = {
        s.field: getattr(args, s.key)
        for s in SETTINGS
        if s.key in ("dt", "seed", "mode") and getattr(args, s.key, None) is not None
    }
    return name, dataclasses.replace(scenario, **overrides) if overrides else scenario


def _cmd_simulate(args) -> int:
    from .runner import format_report, run

    name, scenario = _scenario(args)
    report = run(scenario, name=name, out_dir=args.out)
    print(format_report(report))
    return report.exit_code


def _cmd_audit(args) -> int:
    from .runner import exit_code, import_trajectory, write_long_table
    from .sim import safety_audit

    name, scenario = _scenario(args)
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
    from .runner import format_report, sweep, worst_exit_code

    name, scenario = _scenario(args)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    reports = sweep(scenario, args.param, values, name=name, out_dir=args.out)
    for report in reports:
        print(format_report(report))
        print()
    return worst_exit_code(r.exit_code for r in reports)


def _cmd_ingest(args) -> int:
    from .cases import EXPONENT, CaseDataError, ingest_cases, scale_cases

    records = ingest_cases(args.cases)
    print(f"{len(records)} valid case records "
          f"({records[0].date} .. {records[-1].date})")
    try:
        scaled = scale_cases(records)
    except CaseDataError as exc:
        scaled = None
        print(f"positivity scaling: skipped ({exc})")
    else:
        print(f"positivity scaling: exponent {EXPONENT:g}, "
              f"reference {scaled.reference_positivity:g}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = Path(args.cases).stem
        out_csv = out_dir / f"{stem}_scaled.csv"
        # a date prints as its ISO-8601 form
        dates = map(attrgetter("date"), records)
        counts = map(attrgetter("cumulative_confirmed"), records)
        with out_csv.open("w", encoding="utf-8") as fh:
            if scaled is not None:
                fh.write("date,cumulative_confirmed,positivity_rate,scaled_confirmed\n")
                rates = map(attrgetter("positivity_rate"), records)
                rows = zip(dates, counts, rates, scaled.scaled)
                fh.writelines(map("%s,%.15g,%.15g,%.15g\n".__mod__, rows))
            else:
                fh.write("date,cumulative_confirmed\n")
                fh.writelines(map("%s,%.15g\n".__mod__, zip(dates, counts)))
        print(f"wrote {out_csv}")
        if scaled is not None:
            meta_path = out_dir / f"{stem}_scaled.meta.json"
            meta = json.dumps(scaled.metadata(), indent=2, sort_keys=True) + "\n"
            meta_path.write_text(meta, encoding="utf-8")
            print(f"wrote {meta_path}")
    return EXIT_OK


def _cmd_presets(args) -> int:
    from .scenarios import preset_names, preset_note

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
    # scenario, case-data and trajectory-file errors are ValueErrors; an
    # output directory that cannot be made or written is an OSError;
    # simulate refuses a run too long for the machine's memory with a
    # SimulationError, but a run that passes its lower bound may still
    # exhaust memory, a MemoryError
    except (ValueError, SimulationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    # a report line the terminal's encoding cannot show must not turn a
    # finished run into an error; stdout is None when the stream is closed
    if sys.stdout is not None:
        sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(main())


if __name__ == "__main__":
    entry()
