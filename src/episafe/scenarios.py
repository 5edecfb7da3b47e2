"""Scenario files: a versioned plain-text key/value format with sections.

The format is line-oriented: ``key = value`` pairs grouped under
``[section]`` headers, ``#`` comments, blank lines ignored.  Sections are
``[model]``, ``[initial]``, ``[time]``, ``[feedback]``, optional
``[disturbance]``, and one ``[constraint]`` section per population bound.
A top-level ``schema_version = 1`` line is mandatory.  Unknown sections or
keys are rejected with file:line diagnostics, as are values violating the
scenario invariants.

Constraints name compartments by label; the parser resolves the label to
the multiplicative or outlet block of the chosen model.  Margin gains
default to one tenth of I's removal rate when omitted (see
default_gains).
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import NamedTuple

from .models import MODELS, ModelSpec, build_model, steered
from .safety import MULTIPLICATIVE, OUTLET, SafetyConstraint
from .sim import Scenario

__all__ = [
    "SCHEMA_VERSION",
    "SETTINGS",
    "ScenarioParseError",
    "parse_scenario",
    "parse_scenario_text",
    "write_scenario",
    "scenario_text",
    "default_gains",
    "PRESETS",
    "preset_names",
    "load_preset",
    "resolve_scenario",
]

SCHEMA_VERSION = 1

# the default of a setting the file must give
_REQUIRED = object()


class Setting(NamedTuple):
    section: str
    key: str
    field: str
    type: type
    default: object


# The scalar settings in file order: the file's [section] and key, the
# Scenario field each sets, its type (float, int or str) and its default.  A
# section with a _REQUIRED key must be present; the writer leaves out a
# section whose values are all defaults.
SETTINGS = (
    Setting("time", "t_start", "t_start", float, _REQUIRED),
    Setting("time", "t_end", "t_end", float, _REQUIRED),
    Setting("time", "dt", "dt", float, _REQUIRED),
    Setting("time", "control_start", "control_start", float, None),
    Setting("feedback", "mode", "feedback_mode", str, _REQUIRED),
    Setting("feedback", "tau", "tau", float, 0.0),
    Setting("disturbance", "delta", "disturbance_delta", float, 0.0),
    Setting("disturbance", "seed", "seed", int, 0),
)
_SETTING_SECTIONS = {
    name: tuple(s for s in SETTINGS if s.section == name)
    for name in dict.fromkeys(s.section for s in SETTINGS)
}
_REQUIRED_SECTIONS = ("model", "initial") + tuple(
    name for name, rows in _SETTING_SECTIONS.items() if any(s.default is _REQUIRED for s in rows)
)
_CONSTRAINT_KEYS = {"compartment", "bound", "alpha", "alpha_e", "direction", "name"}


class ScenarioParseError(ValueError):
    def __init__(self, message: str, origin: str = "", line: int | None = None):
        where = origin if line is None else f"{origin}:{line}"
        super().__init__(f"{where}: {message}" if where else message)
        self.origin = origin
        self.line = line


class _Section:
    """One parsed section: raw values plus the line each key came from."""

    def __init__(self, name: str, lineno: int):
        self.name = name
        self.lineno = lineno
        self.values: dict[str, str] = {}
        self.lines: dict[str, int] = {}


def default_gains(spec: ModelSpec, kind: str, index: int) -> tuple[float, float | None]:
    """Margin decay gains used when a constraint omits them.

    alpha is one tenth of the total rate at which the outlet compartments
    drain the multiplicative block, the sum of the dq/dw entries: I's
    removal rate in every bundled model, whichever compartment is capped.
    Outlet constraints also get alpha_e, one tenth of their own outflow
    rate (-dr/dz on the diagonal), or alpha for a compartment without one.
    """
    total = 0.0
    for row in spec.dq_dw:
        for rate in row:
            total = total + rate
    alpha = total / 10.0
    if kind == MULTIPLICATIVE:
        return alpha, None
    own_rate = -spec.dr_dz[index][index]
    return alpha, own_rate / 10.0 if own_rate > 0.0 else alpha


def _value(sec: _Section, key: str, origin: str, type_: type = float):
    """The value of key as type_: float (finite), int or str."""
    raw = sec.values[key]
    if type_ is str:
        return raw
    try:
        v = type_(raw)
    except ValueError:
        noun = "a number" if type_ is float else "an integer"
        raise ScenarioParseError(
            f"key {key!r}: cannot parse {raw!r} as {noun}", origin, sec.lines.get(key)
        ) from None
    if type_ is float and not math.isfinite(v):
        raise ScenarioParseError(f"key {key!r}: non-finite value", origin, sec.lines.get(key))
    return v


def _check_keys(sec: _Section, allowed: set[str], origin: str) -> None:
    where = f"[{sec.name}]" if sec.name else "top-level"
    for key in sec.values:
        if key not in allowed:
            raise ScenarioParseError(
                f"unknown {where} key {key!r}", origin, sec.lines.get(key)
            )


def _build_model(sec: _Section, origin: str) -> ModelSpec:
    kind = sec.values.get("kind")
    if kind is None:
        raise ScenarioParseError("[model] section needs a 'kind'", origin, sec.lineno)
    if kind not in MODELS:
        raise ScenarioParseError(
            f"unknown model kind {kind!r} (choose from {sorted(MODELS)})",
            origin,
            sec.lines.get("kind"),
        )
    rates, table = MODELS[kind]
    missing = [k for k in table.params if k not in sec.values]
    if missing:
        raise ScenarioParseError(
            f"[model] missing parameter(s) {missing}", origin, sec.lineno
        )
    _check_keys(sec, set(table.params) | {"kind"}, origin)
    params = {k: _value(sec, k, origin) for k in table.params}
    try:
        return build_model(kind, rates(**params))
    except ValueError as exc:
        raise ScenarioParseError(str(exc), origin, sec.lineno) from exc


def _build_constraint(spec: ModelSpec, sec: _Section, origin: str) -> SafetyConstraint:
    _check_keys(sec, _CONSTRAINT_KEYS, origin)
    label = sec.values.get("compartment")
    if label is None:
        raise ScenarioParseError("[constraint] needs a 'compartment'", origin, sec.lineno)
    if label not in spec.labels:
        raise ScenarioParseError(
            f"unknown compartment {label!r} for model {spec.kind!r}",
            origin,
            sec.lines.get("compartment"),
        )
    if "bound" not in sec.values:
        raise ScenarioParseError(
            f"[constraint] on {label}: missing 'bound'", origin, sec.lineno
        )
    acted_on = steered(spec.formulas)
    if label not in acted_on:
        raise ScenarioParseError(
            f"the input has no authority over {label} in the {spec.kind} model "
            f"(bound {' or '.join(acted_on)} instead)",
            origin,
            sec.lines.get("compartment"),
        )
    pos = spec.labels.index(label)
    kind = MULTIPLICATIVE if pos < spec.n else OUTLET
    index = pos if pos < spec.n else pos - spec.n
    d_alpha, d_alpha_e = default_gains(spec, kind, index)
    alpha = _value(sec, "alpha", origin) if "alpha" in sec.values else d_alpha
    alpha_e = _value(sec, "alpha_e", origin) if "alpha_e" in sec.values else d_alpha_e
    try:
        return SafetyConstraint(
            kind=kind,
            index=index,
            bound=_value(sec, "bound", origin),
            alpha=alpha,
            alpha_e=alpha_e if kind == OUTLET else None,
            direction=sec.values.get("direction", "upper"),
            name=sec.values.get("name", label),
        )
    except ValueError as exc:
        raise ScenarioParseError(
            f"[constraint] on {label}: {exc}", origin, sec.lineno
        ) from exc


def _settings(named: dict[str, _Section], origin: str) -> dict[str, object]:
    """SETTINGS by Scenario field.  Per section: check the keys, then look
    for the required ones, then parse.  An absent section requires none."""
    values = {}
    for section, rows in _SETTING_SECTIONS.items():
        sec = named.get(section, _Section(section, 0))
        _check_keys(sec, {s.key for s in rows}, origin)
        for s in rows:
            if s.default is _REQUIRED and s.key not in sec.values:
                raise ScenarioParseError(f"[{section}] missing {s.key!r}", origin, sec.lineno)
        for s in rows:
            values[s.field] = (
                _value(sec, s.key, origin, s.type) if s.key in sec.values else s.default
            )
    return values


def parse_scenario_text(text: str, origin: str = "<string>") -> Scenario:
    """Parse and fully validate a scenario document."""
    known = {"model", "initial", "constraint", *_SETTING_SECTIONS}
    top = _Section("", 0)
    sections: list[_Section] = [top]
    # lines end at \n, \r\n or \r alone, not at a form feed or U+2028 as in splitlines
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in known:
                raise ScenarioParseError(f"unknown section [{name}]", origin, lineno)
            if name != "constraint" and any(s.name == name for s in sections):
                raise ScenarioParseError(f"duplicate section [{name}]", origin, lineno)
            sections.append(_Section(name, lineno))
            continue
        if "=" not in line:
            raise ScenarioParseError(
                f"expected 'key = value', got {line!r}", origin, lineno
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ScenarioParseError(f"malformed assignment {line!r}", origin, lineno)
        sec = sections[-1]
        if key in sec.values:
            raise ScenarioParseError(f"duplicate key {key!r}", origin, lineno)
        sec.values[key] = value
        sec.lines[key] = lineno

    _check_keys(top, {"schema_version"}, origin)
    if "schema_version" not in top.values:
        raise ScenarioParseError("missing mandatory 'schema_version'", origin)
    version = _value(top, "schema_version", origin, int)
    if version != SCHEMA_VERSION:
        raise ScenarioParseError(
            f"schema_version {version} not supported (expected {SCHEMA_VERSION})",
            origin,
            top.lines.get("schema_version"),
        )

    named = {s.name: s for s in sections if s.name != "constraint"}
    for required in _REQUIRED_SECTIONS:
        if required not in named:
            raise ScenarioParseError(f"missing section [{required}]", origin)

    spec = _build_model(named["model"], origin)

    init = named["initial"]
    _check_keys(init, set(spec.labels), origin)
    missing = [lbl for lbl in spec.labels if lbl not in init.values]
    if missing:
        raise ScenarioParseError(
            f"[initial] missing compartment(s) {missing}", origin, init.lineno
        )
    try:
        state0 = spec.state([_value(init, lbl, origin) for lbl in spec.labels])
    except ValueError as exc:
        raise ScenarioParseError(f"[initial]: {exc}", origin, init.lineno) from exc

    settings = _settings(named, origin)
    constraints = tuple(
        _build_constraint(spec, s, origin) for s in sections if s.name == "constraint"
    )

    try:
        return Scenario(spec=spec, state0=state0, constraints=constraints, **settings)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), origin) from exc


def parse_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file; raises ScenarioParseError with file:line
    context on any problem."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise ScenarioParseError(f"cannot read scenario: {reason}", str(path)) from exc
    if not text.strip():
        raise ScenarioParseError("empty scenario file", str(path))
    return parse_scenario_text(text, origin=str(path))


def _fmt(v: float) -> str:
    return repr(float(v))


def scenario_text(scenario: Scenario) -> str:
    """Serialize a scenario to the canonical document form."""
    spec = scenario.spec
    lines = [f"schema_version = {SCHEMA_VERSION}", "", "[model]", f"kind = {spec.kind}"]
    lines += [f"{key} = {_fmt(value)}" for key, value in zip(spec.formulas.params, spec.values)]
    lines += ["", "[initial]"]
    lines += [f"{lbl} = {_fmt(value)}" for lbl, value in zip(spec.labels, scenario.state0.x)]
    for section, settings in _SETTING_SECTIONS.items():
        rows = [(s, getattr(scenario, s.field)) for s in settings]
        if section in _REQUIRED_SECTIONS or any(v != s.default for s, v in rows):
            lines += ["", f"[{section}]"]
            lines += [f"{s.key} = {_fmt(v) if s.type is float else v}" for s, v in rows]
    for c in scenario.constraints:
        pos = c.index if c.kind == MULTIPLICATIVE else spec.n + c.index
        lines += [
            "",
            "[constraint]",
            f"compartment = {spec.labels[pos]}",
            f"bound = {_fmt(c.bound)}",
            f"alpha = {_fmt(c.alpha)}",
        ]
        if c.kind == OUTLET:
            lines.append(f"alpha_e = {_fmt(c.alpha_e)}")
        if c.direction != "upper":
            lines.append(f"direction = {c.direction}")
        if c.name and c.name != spec.labels[pos]:
            lines.append(f"name = {c.name}")
    return "\n".join(lines) + "\n"


def write_scenario(scenario: Scenario, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(scenario_text(scenario))
    return path


# -- bundled presets ----------------------------------------------------------

PRESETS: dict[str, str] = {
    # US-fitted SIR, infection cap 200k, 11-day measurement delay compensated
    # by forecast feedback; control engages after a 10-day open-loop lead-in.
    "sir_fig2": """\
schema_version = 1

[model]
kind = sir
beta0 = 0.33
gamma = 0.2
N = 33e6

[initial]
S = 26e6
I = 1e5
R = 6.9e6

[time]
t_start = 0
t_end = 190
dt = 0.1
control_start = 10

[feedback]
mode = predictor
tau = 11

[constraint]
compartment = I
bound = 2e5
alpha = 0.02
""",
    # US-fitted SIHRD, hospital-load and death-toll caps enforced jointly,
    # 9-day delay compensated by forecast feedback.
    "sihrd_fig3": """\
schema_version = 1

[model]
kind = sihrd
beta0 = 0.53
gamma = 0.14
N = 15e6
lam = 0.03
nu = 0.14
mu = 0.01

[initial]
S = 14951000
I = 15000
H = 3000
R = 30000
D = 1000

[time]
t_start = 0
t_end = 160
dt = 0.1

[feedback]
mode = predictor
tau = 9

[constraint]
compartment = H
bound = 4e4
alpha = 0.018
alpha_e = 0.014

[constraint]
compartment = D
bound = 4e5
alpha = 0.018
alpha_e = 0.018
""",
    # Fast-growth regime where feeding back the raw 20-day-old measurement
    # breaches the cap while forecast feedback holds it.
    "sir_delay_danger": """\
schema_version = 1

[model]
kind = sir
beta0 = 0.33
gamma = 0.2
N = 33e6

[initial]
S = 32.9e6
I = 2000
R = 97998

[time]
t_start = 0
t_end = 60
dt = 0.1

[feedback]
mode = delayed
tau = 20

[constraint]
compartment = I
bound = 5e4
alpha = 0.02
""",
}

_PRESET_NOTES = {
    "sir_fig2": "SIR infection cap, predictor feedback over an 11-day delay",
    "sihrd_fig3": "SIHRD joint hospital/death caps, predictor feedback, 9-day delay",
    "sir_delay_danger": "delayed feedback breaching a cap that prediction holds",
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset_note(name: str) -> str:
    return _PRESET_NOTES.get(name, "")


def load_preset(name: str) -> Scenario:
    if name not in PRESETS:
        raise ScenarioParseError(
            f"unknown preset {name!r} (available: {', '.join(preset_names())})"
        )
    return parse_scenario_text(PRESETS[name], origin=f"<preset:{name}>")


def resolve_scenario(ref: str) -> tuple[str, Scenario]:
    """Resolve a CLI scenario reference: preset name or file path.

    Returns (name, scenario) where name is a short identifier for output
    file naming.
    """
    if ref in PRESETS:
        return ref, load_preset(ref)
    path = Path(ref)
    if path.exists():
        return path.stem, parse_scenario(path)
    raise ScenarioParseError(
        f"{ref!r} is neither a preset ({', '.join(preset_names())}) nor a file"
    )
