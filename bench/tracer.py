"""Spans and counters recorded from outside the program.

The tracer replaces public functions of ``episafe`` with wrappers, from the
benchmark's own files, and puts the originals back on ``uninstall``.  A
function is replaced under every name that refers to it in a loaded
``episafe`` module, so ``from .sim import simulate`` bindings are covered
too.  Nothing in the package is edited.

Each span records name, start, end, parent span and run id (the operation
it belongs to).  Spans are kept in flat arrays in memory and saved when the
run ends.  ``rk4_flat`` calls made inside a rollout are counted, not
spanned: a run makes hundreds of thousands of them, and the enclosing
rollout span already covers their time.  Per-call costs of such kernels
come from isolated loops (see ``probes.py``).
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

SIMULATE = "sim.simulate"
AUDIT = "sim.safety_audit"
ROLLOUT = "engine.closed_loop_rollout"
RK4 = "engine.rk4_flat"
CONTROL = "safety.combined_control"
LOOKUP = "sim.MeasurementBuffer.lookup"
PARSE = "scenarios.parse_scenario_text"
EXPORT = "runner.export_trajectory"
LONG_TABLE = "runner.write_long_table"
IMPORT = "runner.import_trajectory"
INGEST = "cases.ingest_cases"
SPAN_NAMES = (SIMULATE, AUDIT, ROLLOUT, RK4, CONTROL, LOOKUP, PARSE, EXPORT, LONG_TABLE, IMPORT, INGEST)

COUNTERS = (
    "sim.plant_steps",
    "sim.controlled_samples_expected",
    "engine.rollout_steps",
    "engine.rollout_steps_expected",
    "engine.rk4_calls",
    "models.derivative_calls",
    "safety.combined_control_calls",
    "runner.bytes_written",
    "cases.rows",
)


def expected_counts(scenario) -> tuple[int, int]:
    """(controlled samples, rollout steps) that simulate must perform,
    derived from the scenario alone: the law runs once per sample from
    control_start on, and in predictor mode sample k rolls the closed loop
    forward min(k, D) steps from the delayed measurement."""
    n = scenario.n_steps
    first = int(round((scenario.control_start - scenario.t_start) / scenario.dt))
    controlled = n + 1 - first if scenario.constraints else 0
    rollout = 0
    if scenario.constraints and scenario.feedback_mode == "predictor":
        d = scenario.delay_steps
        rollout = sum(min(k, d) for k in range(first, n + 1))
    return controlled, rollout


class Tracer:
    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def spanned(self, name: str, fn, on_call=None, on_result=None):
        """Wrap fn so that each call records a span named name."""
        name_id = SPAN_NAMES.index(name)

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "") or ""
            if not (modname == "episafe" or modname.startswith("episafe.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        from episafe import cases, engine, runner, safety, scenarios, sim

        c = self.counts
        rollout_id = SPAN_NAMES.index(ROLLOUT)

        def on_simulate(scenario, *args, **kwargs):
            controlled, rollout = expected_counts(scenario)
            c["sim.plant_steps"] += scenario.n_steps
            c["sim.controlled_samples_expected"] += controlled
            c["engine.rollout_steps_expected"] += rollout

        def on_rollout(spec, x0, t0, n_steps, *args, **kwargs):
            c["engine.rollout_steps"] += n_steps

        def on_control(*args, **kwargs):
            c["safety.combined_control_calls"] += 1

        def on_written(path):
            c["runner.bytes_written"] += Path(path).stat().st_size

        def on_ingest(records):
            c["cases.rows"] += len(records)

        rk4 = engine.rk4_flat
        rk4_span = self.spanned(RK4, rk4)

        def counted_rk4(deriv, x, u, dt):
            c["engine.rk4_calls"] += 1

            def counted_deriv(xx, uu):
                c["models.derivative_calls"] += 1
                return deriv(xx, uu)

            stack = self._stack
            if stack and self.name[stack[-1]] == rollout_id:
                return rk4(counted_deriv, x, u, dt)
            return rk4_span(counted_deriv, x, u, dt)

        counted_rk4.__wrapped__ = rk4

        self._replace(sim.simulate, self.spanned(SIMULATE, sim.simulate, on_call=on_simulate))
        self._replace(sim.safety_audit, self.spanned(AUDIT, sim.safety_audit))
        self._replace(
            engine.closed_loop_rollout,
            self.spanned(ROLLOUT, engine.closed_loop_rollout, on_call=on_rollout),
        )
        self._replace(rk4, counted_rk4)
        self._replace(
            safety.combined_control,
            self.spanned(CONTROL, safety.combined_control, on_call=on_control),
        )
        self._replace(scenarios.parse_scenario_text, self.spanned(PARSE, scenarios.parse_scenario_text))
        self._replace(
            runner.export_trajectory,
            self.spanned(EXPORT, runner.export_trajectory, on_result=on_written),
        )
        self._replace(
            runner.write_long_table,
            self.spanned(LONG_TABLE, runner.write_long_table, on_result=on_written),
        )
        self._replace(runner.import_trajectory, self.spanned(IMPORT, runner.import_trajectory))
        self._replace(cases.ingest_cases, self.spanned(INGEST, cases.ingest_cases, on_result=on_ingest))

        lookup = sim.MeasurementBuffer.lookup
        sim.MeasurementBuffer.lookup = self.spanned(LOOKUP, lookup)
        self._undo.append((sim.MeasurementBuffer, "lookup", lookup))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int64).copy(),
        }

    def merge(self, spans: dict[str, np.ndarray], counts: dict[str, int]) -> None:
        """Append spans and counts recorded by another process (a traced
        CLI child) under the current run id."""
        offset = len(self.name)
        self.name.extend(spans["name"].astype(np.int32).tolist())
        self.start.extend(spans["start"].tolist())
        self.end.extend(spans["end"].tolist())
        parents = spans["parent"]
        self.parent.extend(np.where(parents >= 0, parents + offset, -1).tolist())
        self.run.extend([self.run_id] * len(parents))
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + int(value)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        counts = np.array([self.counts[k] for k in COUNTERS], dtype=np.int64)
        np.savez(path, names=np.array(SPAN_NAMES), counters=np.array(COUNTERS),
                 counts=counts, **self.arrays())


def load(path: Path) -> tuple[dict[str, np.ndarray], dict[str, int]]:
    with np.load(path) as data:
        if tuple(data["names"]) != SPAN_NAMES:
            raise ValueError(f"{path}: span names differ from this tracer's")
        spans = {k: data[k] for k in ("name", "start", "end", "parent", "run")}
        counts = dict(zip(data["counters"].tolist(), data["counts"].tolist()))
    return spans, counts


def self_times(spans: dict[str, np.ndarray], exclude: tuple[str, ...] = ()) -> np.ndarray:
    """Per span: its duration minus the time its direct children cover.

    Children of one span run one after another on a single thread, so the
    covered time is the sum of their durations.  Children named in exclude
    are not subtracted."""
    duration = spans["end"] - spans["start"]
    out = duration.copy()
    parent = spans["parent"]
    mask = parent >= 0
    if exclude:
        ids = [SPAN_NAMES.index(n) for n in exclude]
        mask &= ~np.isin(spans["name"], ids)
    np.subtract.at(out, parent[mask], duration[mask])
    return out


def summary(spans: dict[str, np.ndarray], name: str) -> tuple[int, float]:
    """(call count, total duration in seconds) of the spans named name."""
    sel = spans["name"] == SPAN_NAMES.index(name)
    return int(sel.sum()), float((spans["end"][sel] - spans["start"][sel]).sum())
