"""Safety-critical active intervention policies for compartmental epidemic
models: guaranteed population bounds via min-norm barrier controllers, with
measurement-delay compensation by forecast feedback.

The names below are re-exported lazily: ``episafe.simulate`` imports
``episafe.sim`` on first use, so ``import episafe`` loads no submodule and
no numpy.  Each access looks the name up in its module again; nothing is
bound here, so a binding patched in the submodule shows through.
"""

import importlib

_EXPORTS = {
    "delay": (
        "PredictorConfig",
        "predict_state",
        "prediction_error",
    ),
    "models": (
        "FormulaTable",
        "ModelSpec",
        "ModelState",
        "SeirParams",
        "SihrdParams",
        "SirParams",
        "build_model",
    ),
    "safety": (
        "MULTIPLICATIVE",
        "OUTLET",
        "ControlDecision",
        "SafetyConstraint",
        "barrier_value",
        "combined_control",
        "extended_barrier_value",
        "multiplicative_control",
        "outlet_control",
        "validate_initial_condition",
    ),
    "sim": (
        "AuditReport",
        "InitialConditionError",
        "IntegrationError",
        "MeasurementBuffer",
        "Scenario",
        "SimulationError",
        "Trajectory",
        "safety_audit",
        "simulate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
