"""Isolated per-call costs of the kernels the hot loops call.

Kernels called up to a million times per run (the model derivative, the
RK4 step, the feedback law) are timed in tight loops over states recorded
from the workload's own trajectories, never through the tracer's wrappers,
whose overhead would swamp them.  Each figure is the median over REPEATS
timed loops of the mean cost per call, at the reference speed of speed.py.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 5
SAMPLES_PER_TRAJECTORY = 100
PREDICT_SAMPLES = 4


def _per_call(loop, calls: int, nominal) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        loop()
        times.append(nominal(t0, time.perf_counter()) / calls)
    return statistics.median(times)


def _samples(trajectory, count: int) -> list[int]:
    n = len(trajectory)
    return sorted({int(k) for k in np.linspace(0, n - 1, count)})


def kernel_costs(trajectories, nominal) -> dict[str, float]:
    """Per-call costs in microseconds (ms for predict_state) over recorded
    trajectories, one per preset.  nominal(t0, t1) converts a wall-clock
    interval to seconds at the reference speed."""
    from episafe import engine
    from episafe.delay import PredictorConfig, predict_state
    from episafe.safety import combined_control
    from episafe.sim import MeasurementBuffer

    by_kind: dict[str, list] = {}
    all_pairs = []
    controls = []
    for traj in trajectories:
        sc = traj.scenario
        spec = sc.spec
        ks = _samples(traj, SAMPLES_PER_TRAJECTORY)
        u = traj.u
        pairs = [(spec, [float(v) for v in traj.states[k]], float(u[k]), sc) for k in ks]
        by_kind.setdefault(spec.kind, []).extend(pairs)
        all_pairs.extend(pairs)
        controls.extend((spec, sc.constraints, spec.state(traj.states[k])) for k in ks)

    out: dict[str, float] = {}
    for kind, pairs in sorted(by_kind.items()):
        derivs = [(p[0].derivative_t, p[1], p[2]) for p in pairs]
        laws = [
            (engine.make_input_fn(p[0], p[3].constraints), float(p[3].t_start), p[1])
            for p in pairs
        ]

        def loop_deriv(derivs=derivs):
            for fn, x, u in derivs:
                for _ in range(20):
                    fn(x, u)

        def loop_law(laws=laws):
            for fn, t, x in laws:
                fn(t, x)

        out[f"models.derivative_us.{kind}"] = 1e6 * _per_call(loop_deriv, 20 * len(derivs), nominal)
        out[f"engine.law_us.{kind}"] = 1e6 * _per_call(loop_law, len(laws), nominal)

    rk4 = engine.rk4_flat
    steps = [(p[0].derivative_t, p[1], p[2], p[3].dt) for p in all_pairs]

    def loop_rk4():
        for deriv, x, u, dt in steps:
            rk4(deriv, x, u, dt)

    out["engine.rk4_us"] = 1e6 * _per_call(loop_rk4, len(steps), nominal)

    def loop_control():
        for spec, cons, state in controls:
            combined_control(spec, cons, state)

    out["safety.combined_control_us"] = 1e6 * _per_call(loop_control, len(controls), nominal)

    # Lookups against a full delay window, at the oldest entry: the one a
    # delayed or predictor run asks for on every step.
    buffers = []
    for traj in trajectories:
        sc = traj.scenario
        d = max(1, int(round(sc.tau / sc.dt)))
        x0 = [float(v) for v in traj.states[0]]
        buf = MeasurementBuffer(sc.t_start, sc.dt, d * sc.dt, x0)
        for k in range(d + 1):
            buf.push(sc.t_start + k * sc.dt, x0)
        buffers.append((buf.lookup, sc.t_start))

    def loop_lookup():
        for lookup, t in buffers:
            for _ in range(200):
                lookup(t)

    out["sim.buffer_lookup_us"] = 1e6 * _per_call(loop_lookup, 200 * len(buffers), nominal)

    forecasts = []
    for traj in trajectories:
        sc = traj.scenario
        config = PredictorConfig(tau=sc.tau, dt_pred=sc.dt, constraints=sc.constraints)
        for k in _samples(traj, PREDICT_SAMPLES):
            forecasts.append((sc.spec, sc.spec.state(traj.states[k]), config, float(traj.times[k])))

    def loop_predict():
        for spec, state, config, t in forecasts:
            predict_state(spec, state, config, t)

    out["delay.predict_state_ms"] = 1e3 * _per_call(loop_predict, len(forecasts), nominal)
    return out
