"""episafe benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each was chosen):

- predictor_presets: the three presets in predictor mode plus seeded
  variants, each run as parse -> simulate -> safety_audit in-process.
- direct_feedback: the same presets and variants in instantaneous and
  delayed mode, disturbed runs, and runner.sweep over tau and seed.
- cli_io: the episafe CLI's simulate / audit / ingest, each in a fresh
  interpreter (cli_child.py calls ``episafe.cli.main``, as
  ``python -m episafe`` does), on generated files at a finer step.

Load shape: a closed loop with one client and one operation in flight, in
one process without threads; CLI subprocesses run one at a time.  A run
repeats the workload's cycles of operations and stops only between cycles
once --seconds have passed, so every run does the same mix of work.

Times are wall times converted to a fixed reference speed (speed.py): the
machine's speed is sampled throughout the run, because other tenants slow
it down by up to 1.75x for tens of seconds at a time.  The raw wall-time
median is printed beside the converted figures.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs the first cycle untraced, then again under the tracer, then the
isolated kernel loops, and reports the per-layer metrics.  Every operation
is checked (checks.py); any failure makes the run exit 1.  The last line of
standard output is the JSON result; the lines before it are the same
figures for people, plus the run record (machine, interpreter, commit).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_p50_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "engine.rollout_steps_per_plant_step.sir_fig2": "steps/step",
    "engine.rollout_steps_per_plant_step.sihrd_fig3": "steps/step",
    "engine.rollout_steps_per_plant_step.sir_delay_danger": "steps/step",
    "engine.rollout_steps": "count",
    "engine.rollout_ms": "ms",
    "engine.rollout_share": "fraction",
    "engine.rk4_calls": "count",
    "engine.rk4_us": "us",
    "engine.law_us.sir": "us",
    "engine.law_us.sihrd": "us",
    "models.derivative_calls": "count",
    "models.derivative_us.sir": "us",
    "models.derivative_us.sihrd": "us",
    "safety.combined_control_calls": "count",
    "safety.combined_control_us": "us",
    "sim.simulate_s": "s",
    "sim.loop_self_s": "s",
    "sim.buffer_lookup_us": "us",
    "sim.audit_ms": "ms",
    "delay.predict_state_ms": "ms",
    "scenarios.parse_ms": "ms",
    "runner.export_ms": "ms",
    "runner.long_table_ms": "ms",
    "runner.import_ms": "ms",
    "runner.bytes_written": "bytes",
    "cases.ingest_ms": "ms",
    "cases.rows": "count",
    "cli.import_s": "s",
    "cli.simulate_s": "s",
    "cli.audit_s": "s",
    "cli.ingest_s": "s",
    "trace.overhead_frac": "ratio",
}


def locate_program() -> None:
    """Import episafe from the checkout's src/; exit 2 when it is absent."""
    init = SRC / "episafe" / "__init__.py"
    if not init.is_file():
        print(f"error: no episafe sources at {init.relative_to(ROOT)}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import episafe

    if Path(episafe.__file__).resolve() != init.resolve():
        print(f"error: imported episafe from {episafe.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclasses.dataclass
class Outcome:
    op: object
    seconds: float  # at the reference speed
    wall: float
    steps: int
    errors: list[str]
    child_rss_kib: int = 0
    child_import_s: float = 0.0


class Session:
    """Executes operations, times them and checks their outputs.

    tracer, when set, is installed around each operation only, so the
    checks that follow it are never traced."""

    def __init__(self, workload: str, cycles, work: Path, speed):
        import checks

        self.workload = workload
        self.cycles = cycles
        self.work = work
        self.speed = speed
        self.reference = checks.load_reference()
        self.tracer = None
        self.trajectories: dict[str, object] = {}
        self.per_preset: dict[str, dict[str, int]] = {}
        self.cli_refs: dict[tuple[str, str], object] = {}

    # -- subprocesses ---------------------------------------------------------

    def run_child(self, argv: list[str], log: Path) -> tuple[int, float, float, int]:
        """Run argv in the work directory, stdout and stderr to log files.
        Returns (exit code, start, end, peak RSS KiB); kills it after
        CHILD_TIMEOUT_S."""
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=child_env(), stdout=out, stderr=err)
            self.speed.deadline = t0 + CHILD_TIMEOUT_S
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            finally:
                self.speed.deadline = float("inf")
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, t0, t1, usage.ru_maxrss

    def ready_times(self, argv: list[str], count: int) -> list[float]:
        """Time from spawn until the child prints its first line; its
        second line holds its speed samples."""
        times = []
        for _ in range(count):
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                samples = json.loads(proc.stdout.read())
            finally:
                proc.stdout.close()
                proc.wait(timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0 or line.strip() != b"ready":
                raise RuntimeError(f"{argv!r} failed with exit code {proc.returncode}")
            self.speed.splice(t0, time.perf_counter(), samples)
            times.append(self.speed.nominal(t0, ready))
        return times

    # -- operations -----------------------------------------------------------

    def prepare(self) -> None:
        """Write the CLI inputs and compute the in-process reference runs
        their outputs are checked against."""
        if self.workload != "cli_io":
            return
        from episafe import runner
        from episafe.scenarios import parse_scenario_text

        for op in self.cycles[0]:
            (self.work / op.file).write_text(op.text)
            if op.kind == "simulate" and (op.file, op.mode) not in self.cli_refs:
                sc = dataclasses.replace(parse_scenario_text(op.text), feedback_mode=op.mode)
                ref = self.cli_refs[(op.file, op.mode)] = runner.run(sc)
                if op.mode == "instantaneous":
                    self.trajectories.setdefault(op.preset, ref.trajectory)

    def execute(self, op) -> Outcome:
        counts_before = dict(self.tracer.counts) if self.tracer else None
        try:
            if op.kind in ("run", "sweep"):
                out = self._in_process(op)
            else:
                out = self._cli(op)
        except Exception:
            msg = traceback.format_exc().strip().splitlines()[-1]
            out = Outcome(op, 0.0, 0.0, 0, [f"{op.label}: {msg}"])
        if self.tracer is not None:
            self.tracer.run_id += 1
            acc = self.per_preset.setdefault(op.preset, {})
            for key in ("engine.rollout_steps", "sim.plant_steps"):
                acc[key] = acc.get(key, 0) + self.tracer.counts[key] - counts_before[key]
        for e in out.errors:
            print(f"FAILED {e}", file=sys.stderr)
        return out

    def _in_process(self, op) -> Outcome:
        import checks
        from episafe import runner, scenarios, sim

        if self.tracer is not None:
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            sc = scenarios.parse_scenario_text(op.text)
            if op.kind == "run":
                traj = sim.simulate(sc)
                audit = sim.safety_audit(traj)
            else:
                reports = runner.sweep(sc, op.sweep_param, list(op.sweep_values), name="sweep")
            t1 = time.perf_counter()
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        timing = (self.speed.nominal(t0, t1), t1 - t0)
        if op.kind == "run":
            self.trajectories.setdefault(op.preset, traj)
            errors = checks.check_run(op, sc, traj, audit, self.reference)
            return Outcome(op, *timing, sc.n_steps, errors)
        steps = sum(r.scenario.n_steps for r in reports)
        return Outcome(op, *timing, steps, checks.check_sweep(op, reports))

    def _cli(self, op) -> Outcome:
        import checks
        import tracer

        stem = Path(op.file).stem
        if op.kind == "simulate":
            args = ["simulate", op.file, "--mode", op.mode, "--out", f"out_{op.mode}"]
        elif op.kind == "audit":
            csv = f"out_{op.mode}/{stem}_trajectory.csv"
            args = ["audit", csv, op.file, "--mode", op.mode]
        else:
            args = ["ingest", op.file, "--out", "out_cases"]
        log = self.work / f"{op.kind}_{stem}_{op.mode}"
        traced = "0" if self.tracer is None else "1"
        argv = [sys.executable, str(HERE / "cli_child.py"), log.name, traced, *args]
        code, t0, t1, rss = self.run_child(argv, log)
        speed_file = log.with_suffix(".speed.json")
        samples = json.loads(speed_file.read_text())
        speed_file.unlink()
        self.speed.splice(t0, t1, samples)
        timing = (self.speed.nominal(t0, t1), t1 - t0)
        import_s = self.speed.nominal(*samples["imported"])
        if self.tracer is not None:
            trace_file = log.with_suffix(".trace.npz")
            self.tracer.merge(*tracer.load(trace_file))
            trace_file.unlink()

        label = f"{op.label} ({' '.join(args)})"
        steps = 0
        if op.kind == "simulate":
            ref = self.cli_refs[(op.file, op.mode)]
            steps = ref.scenario.n_steps
            errors = checks.check_exit(label, code, ref.exit_code)
            if code in (0, 3, 4):
                csv = self.work / f"out_{op.mode}" / f"{stem}_trajectory.csv"
                errors += checks.check_round_trip(label, csv, ref)
        elif op.kind == "audit":
            errors = checks.check_exit(label, code, self.cli_refs[(op.file, op.mode)].exit_code)
        else:
            errors = checks.check_exit(label, code, 0)
            if code == 0:
                stdout = log.with_suffix(".out").read_text()
                errors += checks.check_ingest(
                    label, stdout, op.text, self.work / "out_cases" / f"{stem}_scaled.csv"
                )
        return Outcome(op, *timing, steps, errors, rss, import_s)


def tail(times: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond) for the highest percentile with
    at least ten samples beyond it, or None with fewer than 11 samples."""
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    return 100.0 * (n - 10) / n, ordered[n - 11], 10


def end_to_end(session: Session, workload: str, seed: int, seconds: float):
    """Run whole cycles until seconds have passed.  Set-up probes are
    spread over the run rather than taken back to back, so that they do
    not all fall into one slow stretch of the machine."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    setup = session.ready_times(probe, 1)
    session.prepare()
    outcomes: list[Outcome] = []
    t0 = time.perf_counter()
    cycle = 0
    while True:
        for op in session.cycles[cycle % len(session.cycles)]:
            outcomes.append(session.execute(op))
        cycle += 1
        if len(setup) < SETUP_PROBES:
            setup += session.ready_times(probe, 1)
        if time.perf_counter() - t0 >= seconds:
            break
    setup += session.ready_times(probe, SETUP_PROBES - len(setup))

    ok = [o for o in outcomes if not o.errors]
    times = [o.seconds for o in ok]
    total = sum(times)
    steps = sum(o.steps for o in ok)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kib += max((o.child_rss_kib for o in outcomes), default=0)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_p50_s": statistics.median(times) if times else 0.0,
        "steps_per_s": steps / total if total else 0.0,
        "peak_rss_mib": rss_kib / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh-interpreter set-ups",
        "run_p50_s": f"median of {len(times)} operations over {cycle} cycles",
        "steps_per_s": f"{steps} plant steps in {total:.4g} s of operations",
        "peak_rss_mib": "benchmark process" + (" + largest CLI child" if workload == "cli_io" else ""),
    }
    lines = [f"{k} = {metrics[k]:.6g} {END_TO_END_UNITS[k]}  ({notes[k]})" for k in metrics]
    if ok:
        lines.append(f"raw wall time: median {statistics.median(o.wall for o in ok):.6g} s per operation")
    t = tail(times)
    lines.append(
        f"run_tail_s = {t[1]:.6g} s  (p{t[0]:.1f}, {t[2]} samples beyond it, of {len(times)})"
        if t else f"run_tail_s: not reported ({len(times)} samples; needs at least 11)"
    )
    failed = len(outcomes) - len(ok)
    lines.append(f"failed_frac = {failed / len(outcomes):.6g}  ({failed} of {len(outcomes)})")
    result = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return outcomes, result, lines


def identities(counts: dict[str, int]) -> list[str]:
    """Count identities the traced run must satisfy; returns violations."""
    c = counts
    pairs = [
        ("rollout steps = sum of min(k, D) over controlled samples",
         c["engine.rollout_steps"], c["engine.rollout_steps_expected"]),
        ("rk4 calls = plant steps + rollout steps",
         c["engine.rk4_calls"], c["sim.plant_steps"] + c["engine.rollout_steps"]),
        ("derivative calls = 4 x rk4 calls",
         c["models.derivative_calls"], 4 * c["engine.rk4_calls"]),
        ("combined_control calls = controlled samples",
         c["safety.combined_control_calls"], c["sim.controlled_samples_expected"]),
    ]
    return [f"{name}: {got} != {want}" for name, got, want in pairs if got != want]


def per_layer(session: Session, workload: str):
    import probes
    import tracer as tracing
    from workloads import PRESET_NAMES

    ops = session.cycles[0]
    session.prepare()
    untraced = [session.execute(op) for op in ops]
    tr = tracing.Tracer()
    session.tracer = tr
    traced = [session.execute(op) for op in ops]
    session.tracer = None
    outcomes = untraced + traced
    spans = tr.arrays()
    tr.save(WORK / f"trace-{workload}.npz")
    # Span durations at the reference speed; self times only use durations.
    spans["end"] = spans["start"] + session.speed.nominal_many(spans["start"], spans["end"])

    def mean(name: str, scale: float) -> float:
        n, total = tracing.summary(spans, name)
        return scale * total / n if n else 0.0

    c = tr.counts
    sim_n, sim_total = tracing.summary(spans, tracing.SIMULATE)
    _, rollout_total = tracing.summary(spans, tracing.ROLLOUT)
    loop_self = tracing.self_times(spans, exclude=(tracing.LOOKUP,))
    sim_sel = spans["name"] == tracing.SPAN_NAMES.index(tracing.SIMULATE)
    m: dict[str, float] = {}
    for name in PRESET_NAMES:
        acc = session.per_preset.get(name, {})
        steps = acc.get("sim.plant_steps", 0)
        m[f"engine.rollout_steps_per_plant_step.{name}"] = (
            acc.get("engine.rollout_steps", 0) / steps if steps else 0.0
        )
    m["engine.rollout_steps"] = c["engine.rollout_steps"]
    m["engine.rollout_ms"] = mean(tracing.ROLLOUT, 1e3)
    m["engine.rollout_share"] = rollout_total / sim_total if sim_total else 0.0
    m["engine.rk4_calls"] = c["engine.rk4_calls"]
    m["models.derivative_calls"] = c["models.derivative_calls"]
    m["safety.combined_control_calls"] = c["safety.combined_control_calls"]
    m["sim.simulate_s"] = sim_total / sim_n if sim_n else 0.0
    m["sim.loop_self_s"] = float(loop_self[sim_sel].sum()) / sim_n if sim_n else 0.0
    m["sim.audit_ms"] = mean(tracing.AUDIT, 1e3)
    m["scenarios.parse_ms"] = mean(tracing.PARSE, 1e3)
    m["runner.export_ms"] = mean(tracing.EXPORT, 1e3)
    m["runner.long_table_ms"] = mean(tracing.LONG_TABLE, 1e3)
    m["runner.import_ms"] = mean(tracing.IMPORT, 1e3)
    m["runner.bytes_written"] = c["runner.bytes_written"]
    m["cases.ingest_ms"] = mean(tracing.INGEST, 1e3)
    m["cases.rows"] = c["cases.rows"]
    m.update(probes.kernel_costs(
        [session.trajectories[p] for p in PRESET_NAMES], session.speed.nominal
    ))

    cli_kinds = ("simulate", "audit", "ingest")

    def cli_median(kinds, field: str = "seconds") -> float:
        times = [getattr(o, field) for o in untraced if o.op.kind in kinds and not o.errors]
        return statistics.median(times) if times else 0.0

    m["cli.import_s"] = cli_median(cli_kinds, "child_import_s")
    for kind in cli_kinds:
        m[f"cli.{kind}_s"] = cli_median((kind,))
    m["trace.overhead_frac"] = sum(o.seconds for o in traced) / sum(o.seconds for o in untraced)

    lines = [f"{k} = {m[k]:.6g} {PER_LAYER_UNITS[k]}" for k in PER_LAYER_UNITS]
    lines.append(f"spans recorded: {len(spans['name'])} (saved to {WORK.name}/trace-{workload}.npz)")
    lines.append(f"sim.plant_steps = {c['sim.plant_steps']} count")
    broken = identities(c)
    lines.append("count identities: " + ("all hold" if not broken else "; ".join(broken)))
    result = {k: {"value": m[k], "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS}
    return outcomes, result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    locate_program()
    import record
    import speed
    import workloads

    cycles = workloads.build(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    speedometer = speed.Speedometer()
    session = Session(args.workload, cycles, work, speedometer)
    speedometer.start()
    try:
        if args.trace:
            outcomes, metrics, lines = per_layer(session, args.workload)
        else:
            outcomes, metrics, lines = end_to_end(session, args.workload, args.seed, args.seconds)
    finally:
        speedometer.stop()
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for o in outcomes if o.errors)
    rec = record.run_record(
        ROOT, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace
    )
    print(f"episafe benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("record " + json.dumps(rec, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
