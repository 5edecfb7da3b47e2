"""The package re-exports lazily, and each CLI command imports what it runs."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import episafe

SRC = Path(episafe.__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parents[1] / "bench"

# the package's public names, by the submodule that defines or re-exports them
PUBLIC = {
    "delay": (
        "PredictorConfig", "estimate_lipschitz", "issf_inflated_barrier",
        "predict_state", "prediction_error",
    ),
    "models": (
        "FormulaTable", "ModelSpec", "ModelState", "SeirParams", "SihrdParams",
        "SirParams", "build_seir", "build_sihrd", "build_sir",
    ),
    "safety": (
        "MULTIPLICATIVE", "OUTLET", "ControlDecision", "SafetyConstraint",
        "barrier_value", "combined_control", "extended_barrier_value",
        "multiplicative_control", "outlet_control", "qp_oracle",
        "validate_initial_condition",
    ),
    "sim": (
        "AuditReport", "InitialConditionError", "IntegrationError",
        "MeasurementBuffer", "Scenario", "SimulationError", "Trajectory",
        "safety_audit", "simulate",
    ),
}


def _loaded_after(code: str) -> list[str]:
    """The episafe submodules and numpy loaded by a fresh interpreter after
    running code."""
    probe = (
        f"{code}\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.startswith(('episafe.', 'numpy'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    assert _loaded_after("import episafe") == []


def test_ingest_loads_no_numpy(tmp_path):
    cases = tmp_path / "cases.csv"
    cases.write_text("date,cumulative_confirmed\n2020-03-25,65000\n2020-03-26,70000\n")
    loaded = _loaded_after(
        f"import episafe.cli\nassert episafe.cli.main(['ingest', {str(cases)!r}]) == 0"
    )
    assert "numpy" not in loaded
    assert "episafe.cases" in loaded


def test_public_names_resolve_to_their_module_objects():
    assert sorted(episafe.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"episafe.{module}")
        for name in names:
            assert getattr(episafe, name) is getattr(mod, name), name
    assert set(episafe.__all__) <= set(dir(episafe))
    # looked up on every access, never bound in the package
    assert not set(episafe.__all__) & set(vars(episafe))


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'episafe' has no attribute 'simulated'"):
        episafe.simulated


def test_tracer_leaves_no_wrapper_behind(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    original = episafe.sim.simulate
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped = episafe.simulate
        assert wrapped is not original and wrapped.__wrapped__ is original
    finally:
        tr.uninstall()
    assert episafe.simulate is episafe.sim.simulate is original
    assert "simulate" not in vars(episafe)
