"""The names the command line shares with the library, without numpy.

The CLI's parser offers MODES and SWEEP_PARAMETERS as choices, its commands
return the EXIT_* codes and its error handler catches SimulationError.
Every input file, a scenario, a trajectory or case data, is read by
read_text, and each of its faults is a LocatedError, a ValueError that
prints as "origin:line: message".  They are defined here, on the standard
library alone, so that parsing arguments and running ``ingest`` load no
numerical module.  ``sim`` and ``runner`` re-export the modes, sweep
parameters, exit codes and SimulationError.
"""

from __future__ import annotations

from pathlib import Path

__all__ = [
    "MODES",
    "SWEEP_PARAMETERS",
    "EXIT_OK",
    "EXIT_VALIDATION",
    "EXIT_VIOLATION",
    "EXIT_INFEASIBLE",
    "SimulationError",
    "LocatedError",
    "read_text",
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


class LocatedError(ValueError):
    """A fault in an input, printed as "origin:line: message", without the
    line when it has none, and as the message alone without an origin."""

    def __init__(self, message: str, origin: str = "", line: int | None = None):
        where = origin if line is None else f"{origin}:{line}"
        super().__init__(f"{where}: {message}" if where else message)
        self.origin = origin
        self.line = line


def read_text(path: Path, what: str, error: type[LocatedError]) -> str:
    """The text of the UTF-8 file at path, without the byte-order mark that
    some editors and spreadsheet exports begin it with.  A file that cannot
    be read or is not UTF-8 raises error("cannot read <what>: <reason>")
    located at the path."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise error(f"cannot read {what}: {reason}", str(path)) from exc
