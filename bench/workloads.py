"""Seeded inputs for the benchmark workloads.

Every workload is a list of operations built from the bundled presets
(``sir_fig2``, ``sihrd_fig3``, ``sir_delay_danger``).  Variants perturb a
preset's beta0, its initial I (taking the difference from S, so N is
unchanged) and its population bounds.  The horizon, the step and the delay
are never touched, so every variant of a preset costs the same number of
plant steps and rollout steps as the preset itself.

The program under test receives only text: scenario documents for the
in-process workloads, scenario and case-data files for ``cli_io``.  The
generator uses ``random.Random`` seeded from the workload seed, so a seed
gives byte-identical inputs on every machine and Python version.
"""

from __future__ import annotations

import datetime as dt
import random
from dataclasses import dataclass

PRESET_NAMES = ("sir_fig2", "sihrd_fig3", "sir_delay_danger")
WORKLOADS = ("predictor_presets", "direct_feedback", "cli_io")

# Relative perturbation half-widths.  Chosen so that every variant starts
# inside its safe set, every guaranteed run holds its caps, and every
# sir_delay_danger variant still breaches its cap under raw delayed feedback
# (the generator tests check all three over many seeds).
BETA_SPREAD = 0.01
I0_SPREAD = 0.05
BOUND_SPREAD = 0.02

DELTA_RANGE = (0.01, 0.1)  # disturbance bound for disturbed runs
CLI_DT = 0.02  # finer step for cli_io: 3k to 9.5k trajectory rows
CASE_ROWS = 20000  # rows of generated case data per cases.csv
TAU_SWEEP = (5.0, 10.0, 15.0, 20.0)

# Variant sets per workload; set 0 of the in-process workloads is the exact
# presets, whose results are checked against the recorded hashes.
VARIANT_SETS = {"predictor_presets": 3, "direct_feedback": 4, "cli_io": 1}


@dataclass(frozen=True)
class Op:
    """One unit of work: a scenario run, a sweep call or a CLI command.

    kind is "run" (parse -> simulate -> safety_audit), "sweep"
    (parse -> runner.sweep) or one of the CLI subcommands "simulate",
    "audit", "ingest".  exact marks an unperturbed preset, whose arrays
    have a recorded hash.  file names the generated input of a CLI op.
    """

    kind: str
    preset: str
    mode: str
    text: str
    exact: bool = False
    sweep_param: str = ""
    sweep_values: tuple = ()
    file: str = ""

    @property
    def label(self) -> str:
        tag = "exact" if self.exact else "variant"
        return f"{self.kind}:{self.preset}:{self.mode}:{tag}"


class _Doc:
    """Minimal editor for the scenario format: sections of key = value."""

    def __init__(self, text: str):
        self.sections: list[tuple[str, list[list[str]]]] = [("", [])]
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                self.sections.append((line[1:-1].strip(), []))
            else:
                key, value = (p.strip() for p in line.split("=", 1))
                self.sections[-1][1].append([key, value])

    def _find(self, section: str, nth: int) -> list[list[str]]:
        hits = [entries for name, entries in self.sections if name == section]
        if nth >= len(hits):
            self.sections.append((section, []))
            return self.sections[-1][1]
        return hits[nth]

    def count(self, section: str) -> int:
        return sum(1 for name, _ in self.sections if name == section)

    def get(self, section: str, key: str, nth: int = 0) -> str | None:
        for k, v in self._find(section, nth):
            if k == key:
                return v
        return None

    def set(self, section: str, key: str, value, nth: int = 0) -> None:
        text = repr(float(value)) if isinstance(value, float) else str(value)
        entries = self._find(section, nth)
        for entry in entries:
            if entry[0] == key:
                entry[1] = text
                return
        entries.append([key, text])

    def text(self) -> str:
        out: list[str] = []
        for name, entries in self.sections:
            if name:
                out.append(f"\n[{name}]")
            out.extend(f"{k} = {v}" for k, v in entries)
        return "\n".join(out).lstrip("\n") + "\n"


def preset_texts() -> dict[str, str]:
    """The bundled preset documents, as the library ships them."""
    from episafe.scenarios import PRESETS

    return {name: PRESETS[name] for name in PRESET_NAMES}


def scenario_text(
    base: str,
    mode: str,
    rng: random.Random | None = None,
    dt_override: float | None = None,
    delta: float = 0.0,
    dist_seed: int = 0,
) -> str:
    """A preset document in the given feedback mode; perturbed when rng is
    given, disturbed when delta > 0."""
    doc = _Doc(base)
    doc.set("feedback", "mode", mode)
    if dt_override is not None:
        doc.set("time", "dt", dt_override)
    if rng is not None:
        beta = float(doc.get("model", "beta0")) * rng.uniform(1 - BETA_SPREAD, 1 + BETA_SPREAD)
        doc.set("model", "beta0", beta)
        i0 = float(doc.get("initial", "I"))
        s0 = float(doc.get("initial", "S"))
        i_new = i0 * rng.uniform(1 - I0_SPREAD, 1 + I0_SPREAD)
        doc.set("initial", "I", i_new)
        doc.set("initial", "S", s0 - (i_new - i0))
        for k in range(doc.count("constraint")):
            bound = float(doc.get("constraint", "bound", k))
            doc.set("constraint", "bound", bound * rng.uniform(1 - BOUND_SPREAD, 1 + BOUND_SPREAD), k)
    if delta > 0.0:
        doc.set("disturbance", "delta", delta)
        doc.set("disturbance", "seed", dist_seed)
    return doc.text()


def cases_csv(rng: random.Random, rows: int = CASE_ROWS) -> str:
    """Synthetic daily surveillance data: strictly increasing dates,
    non-decreasing cumulative counts, positivity in (0, 1] and a mobility
    column."""
    day = dt.date(1990, 1, 1)
    total = 1000.0
    lines = ["date,cumulative_confirmed,positivity_rate,mobility_index"]
    for _ in range(rows):
        total += float(rng.randrange(0, 5000))
        positivity = rng.uniform(0.02, 0.4)
        mobility = rng.uniform(0.2, 1.2)
        lines.append(f"{day.isoformat()},{total:.1f},{positivity!r},{mobility!r}")
        day += dt.timedelta(days=1)
    return "\n".join(lines) + "\n"


def _variant_rng(seed: int, workload: str, vset: int, preset: str) -> random.Random:
    return random.Random(f"{seed}:{workload}:{vset}:{preset}")


def _preset_set(workload: str, seed: int, vset: int, mode: str, dt_override=None):
    """(preset, text, exact) for the three presets in one variant set."""
    base = preset_texts()
    out = []
    for name in PRESET_NAMES:
        exact = vset == 0 and dt_override is None
        rng = None if exact else _variant_rng(seed, workload, vset, name)
        out.append((name, scenario_text(base[name], mode, rng, dt_override), exact))
    return out


def predictor_presets(seed: int) -> list[list[Op]]:
    cycles = []
    for vset in range(VARIANT_SETS["predictor_presets"]):
        cycles.append([
            Op("run", name, "predictor", text, exact)
            for name, text, exact in _preset_set("predictor_presets", seed, vset, "predictor")
        ])
    return cycles


def direct_feedback(seed: int) -> list[list[Op]]:
    base = preset_texts()
    cycles = []
    for vset in range(VARIANT_SETS["direct_feedback"]):
        ops = []
        for mode in ("instantaneous", "delayed"):
            ops += [
                Op("run", name, mode, text, exact)
                for name, text, exact in _preset_set("direct_feedback", seed, vset, mode)
            ]
        rng = random.Random(f"{seed}:direct_feedback:{vset}:disturbance")
        for name in ("sir_fig2", "sihrd_fig3"):
            text = scenario_text(
                base[name], "instantaneous", rng,
                delta=rng.uniform(*DELTA_RANGE), dist_seed=rng.randrange(1 << 30),
            )
            ops.append(Op("run", name, "instantaneous", text))
        danger = scenario_text(base["sir_delay_danger"], "delayed", rng)
        ops.append(Op("sweep", "sir_delay_danger", "delayed", danger,
                      sweep_param="tau", sweep_values=TAU_SWEEP))
        disturbed = scenario_text(
            base["sir_delay_danger"], "instantaneous", rng,
            delta=rng.uniform(*DELTA_RANGE), dist_seed=0,
        )
        seeds = tuple(float(rng.randrange(1 << 30)) for _ in range(4))
        ops.append(Op("sweep", "sir_delay_danger", "instantaneous", disturbed,
                      sweep_param="seed", sweep_values=seeds))
        cycles.append(ops)
    return cycles


def cli_io(seed: int) -> list[list[Op]]:
    """Per cycle: for each preset, simulate in instantaneous and delayed
    mode with --out, audit the instantaneous CSV; then ingest one cases
    file.  File names are relative to the run's work directory."""
    cycles = []
    for vset in range(VARIANT_SETS["cli_io"]):
        ops = []
        for name, text, _ in _preset_set("cli_io", seed, vset, "instantaneous", CLI_DT):
            file = f"{name}_v{vset}.scenario"
            for mode in ("instantaneous", "delayed"):
                ops.append(Op("simulate", name, mode, text, file=file))
            ops.append(Op("audit", name, "instantaneous", text, file=file))
        rng = random.Random(f"{seed}:cli_io:{vset}:cases")
        ops.append(Op("ingest", "", "", cases_csv(rng), file=f"cases_v{vset}.csv"))
        cycles.append(ops)
    return cycles


BUILDERS = {
    "predictor_presets": predictor_presets,
    "direct_feedback": direct_feedback,
    "cli_io": cli_io,
}


def build(workload: str, seed: int) -> list[list[Op]]:
    """The workload's cycles of operations for this seed.  A run repeats
    the cycles in order; it only stops between cycles, so every run does
    the same mix of work."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return BUILDERS[workload](seed)


def scenario_documents(cycles: list[list[Op]]) -> list[str]:
    """Distinct scenario documents of a workload, in first-use order."""
    seen: dict[str, None] = {}
    for ops in cycles:
        for op in ops:
            if op.kind != "ingest":
                seen.setdefault(op.text, None)
    return list(seen)
