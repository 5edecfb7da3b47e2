"""The experiment scripts run end to end and write their CSVs."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, runs",
    [
        ("run_infection_cap_experiment.py", ("forecast_feedback", "delayed_feedback", "no_intervention")),
        ("run_hospital_death_cap_experiment.py", ("hospital_death_caps", "uncontrolled")),
    ],
)
def test_script_writes_its_csvs(script, runs, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script, "--out", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert capsys.readouterr().out
    for name in runs:
        for kind in ("trajectory", "long"):
            assert (tmp_path / f"{name}_{kind}.csv").stat().st_size > 0
