"""Correctness checks applied to every operation of a benchmark run.

- Exact presets: the sha256 of the ``states``, ``u_raw`` and ``u`` arrays
  must equal the one recorded on the seed commit (``reference_hashes.json``,
  3 presets x 3 modes).  Hashing arrays instead of CSV bytes keeps the check
  valid when the CSV gains columns.
- Guaranteed runs (instantaneous or predictor feedback, no disturbance) hold
  every cap within ``VIOLATION_TOL`` x bound.
- ``sir_delay_danger`` under raw delayed feedback breaches its cap.
- CLI commands exit with the code the in-process run predicts, which must
  be one of the documented ones, and the exported CSV re-imports to within
  1e-12 relative of the in-process trajectory.

Each check returns a list of failure messages; an empty list is a pass.

Run as a script to recompute the reference hashes on the current commit:
``python3 bench/checks.py --write-reference``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_hashes.json"
DOCUMENTED_EXIT_CODES = (0, 2, 3, 4)
ROUND_TRIP_RTOL = 1e-12


def trajectory_hash(trajectory) -> str:
    """sha256 over the states, u_raw and u arrays (float64, little endian,
    C order), each prefixed by its shape."""
    h = hashlib.sha256()
    for arr in (trajectory.states, trajectory.u_raw, trajectory.u):
        a = np.ascontiguousarray(arr, dtype="<f8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_FILE.read_text())["hashes"]


def reference_key(preset: str, mode: str) -> str:
    return f"{preset}/{mode}"


def _guaranteed(scenario) -> bool:
    return scenario.feedback_mode in ("instantaneous", "predictor") and (
        scenario.disturbance_delta == 0.0
    )


def check_run(op, scenario, trajectory, audit, reference: dict[str, str]) -> list[str]:
    """Checks on one in-process scenario run."""
    from episafe.runner import VIOLATION_TOL

    errors = []
    if op.exact:
        want = reference.get(reference_key(op.preset, scenario.feedback_mode))
        got = trajectory_hash(trajectory)
        if want != got:
            errors.append(f"{op.label}: array hash {got[:16]} != reference {str(want)[:16]}")
    if not np.all(np.isfinite(trajectory.states)):
        errors.append(f"{op.label}: non-finite state")
    margins = [(c.bound, a.min_margin) for c, a in zip(scenario.constraints, audit.constraints)]
    if _guaranteed(scenario):
        for bound, h in margins:
            if h < -VIOLATION_TOL * bound:
                errors.append(f"{op.label}: guaranteed run breached a cap (min h {h:.6g})")
    if (
        op.preset == "sir_delay_danger"
        and scenario.feedback_mode == "delayed"
        and scenario.disturbance_delta == 0.0
        and not any(h < 0.0 for _, h in margins)
    ):
        errors.append(f"{op.label}: delayed feedback did not breach the cap")
    return errors


def check_sweep(op, reports) -> list[str]:
    errors = []
    if len(reports) != len(op.sweep_values):
        errors.append(f"{op.label}: {len(reports)} reports for {len(op.sweep_values)} values")
    for r in reports:
        if r.exit_code not in DOCUMENTED_EXIT_CODES:
            errors.append(f"{op.label}: undocumented exit code {r.exit_code}")
        if not np.all(np.isfinite(r.trajectory.states)):
            errors.append(f"{op.label}: non-finite state in {r.name}")
    return errors


def _rel_close(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape:
        return False
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return bool(np.all(np.abs(a - b) <= ROUND_TRIP_RTOL * scale))


def check_round_trip(label: str, csv_path: Path, reference_run) -> list[str]:
    """The CLI's trajectory CSV re-imports to the in-process trajectory."""
    from episafe.runner import import_trajectory

    ref = reference_run.trajectory
    imported = import_trajectory(csv_path, ref.scenario)
    errors = []
    for name in ("states", "u_raw", "u"):
        if not _rel_close(np.asarray(getattr(imported, name)), np.asarray(getattr(ref, name))):
            errors.append(f"{label}: {name} of {csv_path.name} differs from the in-process run")
    return errors


def check_exit(label: str, got: int, expected: int) -> list[str]:
    if got not in DOCUMENTED_EXIT_CODES:
        return [f"{label}: undocumented exit code {got}"]
    if got != expected:
        return [f"{label}: exit code {got}, expected {expected}"]
    return []


def check_ingest(label: str, stdout: str, cases_text: str, scaled_csv: Path) -> list[str]:
    """Row count and the last scaled value, against an independent
    computation of the documented scaling formula."""
    rows = [line.split(",") for line in cases_text.splitlines()[1:] if line]
    errors = []
    if not stdout.startswith(f"{len(rows)} valid case records"):
        errors.append(f"{label}: expected {len(rows)} records, got {stdout.splitlines()[:1]}")
    out = scaled_csv.read_text().splitlines()
    if len(out) != len(rows) + 1:
        errors.append(f"{label}: scaled CSV has {len(out) - 1} rows, expected {len(rows)}")
        return errors
    reference = min(float(r[2]) for r in rows)
    cum, pos = float(rows[-1][1]), float(rows[-1][2])
    want = cum * (pos / reference) ** (1.0 / 3.0)
    got = float(out[-1].split(",")[3])
    if abs(got - want) > 1e-9 * abs(want):
        errors.append(f"{label}: last scaled value {got!r}, expected {want!r}")
    return errors


def write_reference() -> None:
    """Recompute the hashes of the 3 presets x 3 modes on this commit."""
    import dataclasses

    from episafe.scenarios import load_preset
    from episafe.sim import MODES, simulate

    from record import git_state
    from workloads import PRESET_NAMES

    hashes = {}
    for name in PRESET_NAMES:
        base = load_preset(name)
        for mode in MODES:
            traj = simulate(dataclasses.replace(base, feedback_mode=mode))
            hashes[reference_key(name, mode)] = trajectory_hash(traj)
            print(reference_key(name, mode), hashes[reference_key(name, mode)], flush=True)
    doc = {
        "what": "sha256 of states, u_raw and u per preset and feedback mode (see checks.trajectory_hash)",
        "commit": git_state(HERE.parent)[0],
        "hashes": hashes,
    }
    REFERENCE_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: python3 bench/checks.py --write-reference")
    sys.path.insert(0, str(HERE.parent / "src"))
    write_reference()
