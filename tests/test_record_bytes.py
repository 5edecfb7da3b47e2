"""The record a run keeps, pinned series by series, dtype and shape included.

record_bytes.json holds, for each run below, the sha256 of every series
simulate records: states, u_raw, u, active, feasible and disturbances.
bench/reference_hashes.json pins only states, u_raw and u of the preset
runs, and golden_bytes.json the files a run writes, which hold neither
active nor feasible; no other pin covers a disturbed run.  The runs are
every preset in every feedback mode, a run without constraints, one whose
controller starts at t_end, one without a step, and disturbed runs, one of
them with offsets large enough that u + d leaves [0, 1] on both sides.
Regenerate (only when the record changes on purpose) with
``PYTHONPATH=src python tests/test_record_bytes.py``.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from episafe.scenarios import load_preset, preset_names
from episafe.sim import MODES, simulate

PINNED = Path(__file__).with_name("record_bytes.json")
SERIES = ("states", "u_raw", "u", "active", "feasible", "disturbances")


def pinned_runs() -> dict:
    """Run name -> scenario."""
    runs = {
        f"{preset}/{mode}": dataclasses.replace(load_preset(preset), feedback_mode=mode)
        for preset in preset_names()
        for mode in MODES
    }
    fig2, fig3 = load_preset("sir_fig2"), load_preset("sihrd_fig3")
    runs["sir_fig2/no_constraints"] = dataclasses.replace(fig2, constraints=())
    runs["sir_fig2/control_start_at_t_end"] = dataclasses.replace(fig2, control_start=fig2.t_end)
    runs["sihrd_fig3/no_steps"] = dataclasses.replace(fig3, t_end=fig3.t_start)
    runs["sir_fig2/disturbed_0.1"] = dataclasses.replace(fig2, disturbance_delta=0.1, seed=5)
    runs["sihrd_fig3/disturbed_0.1"] = dataclasses.replace(fig3, disturbance_delta=0.1, seed=5)
    runs["sir_delay_danger/disturbed_0.9"] = dataclasses.replace(
        load_preset("sir_delay_danger"), disturbance_delta=0.9, seed=5
    )
    return runs


def series_digests(traj) -> dict[str, str]:
    """sha256 of each recorded series: its dtype, its shape, then its bytes
    in C order."""
    digests = {}
    for name in SERIES:
        arr = np.ascontiguousarray(getattr(traj, name))
        h = hashlib.sha256(f"{arr.dtype.str} {arr.shape}".encode())
        h.update(arr.tobytes())
        digests[name] = h.hexdigest()
    return digests


@pytest.mark.parametrize("name", list(pinned_runs()))
def test_record_matches_pinned(name):
    pinned = json.loads(PINNED.read_text())
    assert series_digests(simulate(pinned_runs()[name])) == pinned[name]


def test_record_dtypes():
    traj = simulate(pinned_runs()["sir_fig2/disturbed_0.1"])
    assert [getattr(traj, name).dtype for name in SERIES] == [
        np.float64, np.float64, np.float64, np.int64, np.bool_, np.float64,
    ]


def test_large_offsets_clamp_on_both_sides():
    # the pinned run at delta 0.9 applies clamp(u + d) below 0 and above 1
    traj = simulate(pinned_runs()["sir_delay_danger/disturbed_0.9"])
    applied = traj.u + traj.disturbances
    assert applied.min() < 0.0 and applied.max() > 1.0


def test_edge_runs_record_rest_decisions():
    runs = pinned_runs()
    rest = simulate(runs["sir_fig2/no_constraints"])
    assert not rest.u_raw.any() and rest.feasible.all() and (rest.active == -1).all()
    late = simulate(runs["sir_fig2/control_start_at_t_end"])
    assert (late.active[:-1] == -1).all() and late.active[-1] == 0
    assert len(simulate(runs["sihrd_fig3/no_steps"])) == 1


if __name__ == "__main__":
    digests = {name: series_digests(simulate(sc)) for name, sc in pinned_runs().items()}
    PINNED.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {PINNED}\n")
