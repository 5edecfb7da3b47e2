#!/usr/bin/env python3
"""Infection-cap experiment on the US-fitted SIR model.

Runs the bundled sir_fig2 scenario (cap 200k infected, 11-day measurement
delay compensated by forecast feedback) next to two counterfactuals: no
intervention at all, and raw delayed feedback without forecasting.  Prints
a comparison table and optionally writes the trajectory CSVs.
"""

from __future__ import annotations

import argparse
import dataclasses

from episafe.runner import run
from episafe.scenarios import load_preset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", help="directory for trajectory/long CSVs")
    args = parser.parse_args()

    base = load_preset("sir_fig2")
    variants = {
        "forecast feedback": base,
        "delayed feedback": dataclasses.replace(base, feedback_mode="delayed"),
        "no intervention": dataclasses.replace(base, constraints=()),
    }
    bound = base.constraints[0].bound

    print(f"infection cap {bound:,.0f}, delay tau = {base.tau:g} days")
    print(f"{'variant':<20} {'peak I':>12} {'at day':>8} {'peak u':>8} {'violations':>11}")
    for name, scenario in variants.items():
        report = run(scenario, name=name.replace(" ", "_"), out_dir=args.out)
        peak, t_peak = report.trajectory.peak("I")
        peak_u = float(report.trajectory.u.max())
        violations = (
            report.audit.constraints[0].violation_count
            if report.audit.constraints
            else "-"
        )
        print(f"{name:<20} {peak:>12,.0f} {t_peak:>8.1f} {peak_u:>8.3f} {violations!s:>11}")


if __name__ == "__main__":
    main()
