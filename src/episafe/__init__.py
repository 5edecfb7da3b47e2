"""Safety-critical active intervention policies for compartmental epidemic
models: guaranteed population bounds via min-norm barrier controllers, with
measurement-delay compensation by forecast feedback."""

from .delay import (
    IssfBound,
    PredictorConfig,
    estimate_lipschitz,
    input_disturbance,
    issf_inflated_barrier,
    predict_state,
    prediction_error,
)
from .models import (
    ModelSpec,
    ModelState,
    SeirParams,
    SihrdParams,
    SirParams,
    build_seir,
    build_sihrd,
    build_sir,
    eval_dynamics,
    eval_jacobians,
)
from .safety import (
    MULTIPLICATIVE,
    OUTLET,
    ControlDecision,
    SafetyConstraint,
    barrier_value,
    closed_form_death_control,
    closed_form_hospitalization_control,
    closed_form_infection_control,
    combined_control,
    extended_barrier_value,
    multiplicative_control,
    outlet_control,
    qp_oracle,
    validate_initial_condition,
)
from .sim import (
    AuditReport,
    InitialConditionError,
    IntegrationError,
    MeasurementBuffer,
    Scenario,
    SimulationError,
    Trajectory,
    rk4_step,
    safety_audit,
    simulate,
)

__version__ = "0.1.0"
