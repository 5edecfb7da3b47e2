"""The bytes a run writes, pinned: trajectory CSV, long CSV and report text.

golden_bytes.json holds the sha256 of each output for every preset in every
feedback mode at the preset's time step.  A change to the writers that
changes one byte fails here.  Regenerate (only when an output format changes
on purpose) with ``PYTHONPATH=src python tests/test_golden_bytes.py``.

The writers are also checked against an independent one that formats each
cell with ``"{:.15g}".format``, on a trajectory that holds the awkward
floats: NaN, both infinities, negative zero, the smallest subnormal, 1e16
and 0.1 + 0.2.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from episafe.runner import export_trajectory, format_report, run, write_long_table
from episafe.scenarios import load_preset, preset_names
from episafe.sim import MODES, Trajectory
from oracles import reference_csv_text

GOLDEN = Path(__file__).with_name("golden_bytes.json")


def output_digests(preset: str, mode: str, out_dir: Path) -> dict[str, str]:
    """sha256 of the trajectory CSV, the long CSV and the report text of
    one preset run in one feedback mode."""
    scenario = dataclasses.replace(load_preset(preset), feedback_mode=mode)
    report = run(scenario, name=preset)
    files = {
        "trajectory": export_trajectory(report.trajectory, out_dir / "t.csv").read_bytes(),
        "long": write_long_table(report.trajectory, out_dir / "l.csv").read_bytes(),
        "report": format_report(report).encode(),
    }
    return {kind: hashlib.sha256(data).hexdigest() for kind, data in files.items()}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("preset", preset_names())
def test_output_bytes_match_golden(preset, mode, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert output_digests(preset, mode, tmp_path) == golden[preset][mode]


def test_writers_match_independent_formatter(tmp_path):
    awkward = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2, 1.0 / 3.0]
    sc = dataclasses.replace(load_preset("sihrd_fig3"), t_end=0.7)
    n = sc.n_steps + 1
    rng = np.random.default_rng(16)
    states = rng.choice(awkward, size=(n, len(sc.spec.labels)))
    states[:, 0] = awkward  # every value at least once
    traj = Trajectory(
        scenario=sc,
        states=states,
        u_raw=np.array(awkward[::-1]),
        u=rng.choice(awkward, size=n),
        active=np.full(n, -1),
        feasible=np.ones(n, dtype=bool),
        disturbances=np.array(awkward[3:] + awkward[:3]),
    )
    wide, long = reference_csv_text(traj)
    for cell in ("nan", "inf", "-inf", "-0", "4.94065645841247e-324", "1e+16", "0.3"):
        assert f",{cell}," in wide
    assert export_trajectory(traj, tmp_path / "t.csv").read_text() == wide
    assert write_long_table(traj, tmp_path / "l.csv").read_text() == long


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {
            preset: {mode: output_digests(preset, mode, Path(tmp)) for mode in MODES}
            for preset in preset_names()
        }
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
