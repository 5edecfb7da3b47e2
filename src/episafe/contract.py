"""The names the command line shares with the library, without numpy.

The CLI's parser offers MODES and SWEEP_PARAMETERS as choices, its commands
return the EXIT_* codes and its error handler catches SimulationError.
They are defined here, on the standard library alone, so that parsing
arguments and running ``ingest`` load no numerical module.  ``sim`` and
``runner`` re-export them.
"""

__all__ = [
    "MODES",
    "SWEEP_PARAMETERS",
    "EXIT_OK",
    "EXIT_VALIDATION",
    "EXIT_VIOLATION",
    "EXIT_INFEASIBLE",
    "SimulationError",
]

# the scenario feedback modes: the true current state, a measurement delayed
# by tau, or a forecast computed from that delayed measurement
MODES = ("instantaneous", "delayed", "predictor")

# the keys of scenarios.SETTINGS a sweep may vary
SWEEP_PARAMETERS = ("tau", "dt", "seed", "delta", "t_end", "control_start")

# Process exit codes of every command that runs or audits a trajectory.
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3
EXIT_INFEASIBLE = 4


class SimulationError(RuntimeError):
    pass
