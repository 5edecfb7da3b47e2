"""Wall time converted to a fixed reference speed.

The benchmark runs on virtual CPUs that share physical cores with other
tenants.  Measured on a 2-vCPU Intel Xeon virtual machine, a fixed pure-Python loop
ran between 1.2 and 1.75 times slower than its fastest from one second to
the next, and whole 25-second stretches stayed in the slow state, so the
same operation's wall time swung by 25-60% between runs.

A Speedometer samples the machine's speed every INTERVAL_S of wall time: a
SIGALRM handler times a fixed piece of work (about 1% of the run) and
records NOMINAL_S divided by that time.  ``nominal(t0, t1)`` is the wall time of
[t0, t1] times the mean speed sampled inside it, i.e. the time the interval
would have taken at the speed where the loop takes NOMINAL_S.  Measured over
the same operation, this cut the spread (interquartile range over median)
from 0.20 to 0.05.  The handler runs between bytecodes of
whatever the main thread is doing and never touches the program under
test.

A child process (a CLI command, a set-up probe) runs its own Speedometer
and hands its samples back; the parent splices them over the samples it
took itself while waiting, which measured another CPU.
"""

from __future__ import annotations

import json
import math
import signal
import time
from array import array
from pathlib import Path

NOMINAL_S = 36e-6  # the loop's time in its fast state on that virtual machine
INTERVAL_S = 0.005


def _deriv(x, u):
    s, i, r = x
    inflow = 0.33 * s * i / 33e6 * (1.0 - u)
    return [-inflow, inflow - 0.2 * i, 0.2 * i]


def _rk4(x, u, dt):
    k1 = _deriv(x, u)
    y = [xi + 0.5 * dt * ki for xi, ki in zip(x, k1)]
    k2 = _deriv(y, u)
    y = [xi + 0.5 * dt * ki for xi, ki in zip(x, k2)]
    k3 = _deriv(y, u)
    y = [xi + dt * ki for xi, ki in zip(x, k3)]
    k4 = _deriv(y, u)
    s = dt / 6.0
    return [xi + s * (a + 2.0 * (b + c) + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def _loop():
    """The fixed calibration work: two RK4 steps of a frozen SIR model in
    plain lists, then dictionary, tuple and string work.  It mimics the
    program's hot paths so that contention slows both alike; a plain float
    loop tracked them less well (spread 0.09 against 0.05)."""
    x = [3e7, 1e5, 2e6]
    for _ in range(2):
        x = _rk4(x, 0.1, 0.1)
    table = {}
    for i in range(40):
        table[i & 31] = (i, str(i & 7))
        pair = tuple(table.get(j) for j in (i & 31, 0))
    return x, pair


class Speedometer:
    def __init__(self) -> None:
        self.times = array("d")
        self.speeds = array("d")
        self.deadline = math.inf
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.speeds.append(NOMINAL_S / (t1 - t0))
        if t1 > self.deadline:
            self.deadline = math.inf
            raise TimeoutError("deadline passed")

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def save(self, path: Path, **extra) -> None:
        path.write_text(json.dumps({"t": list(self.times), "v": list(self.speeds), **extra}))

    def splice(self, t0: float, t1: float, samples: dict) -> None:
        """Replace the samples taken in [t0, t1] by a child's samples."""
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            keep = [(t, v) for t, v in zip(self.times, self.speeds) if not t0 <= t <= t1]
            merged = sorted(keep + list(zip(samples["t"], samples["v"])))
            self.times = array("d", (t for t, _ in merged))
            self.speeds = array("d", (v for _, v in merged))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)

    def nominal_many(self, starts, ends):
        """Nominal durations of the intervals [starts[i], ends[i]].  An
        interval with no sample inside takes the mean of the samples on
        either side of it."""
        import numpy as np

        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        # Copies: the handler may append to the arrays at any bytecode.
        t = np.array(self.times, dtype=float)
        v = np.array(self.speeds, dtype=float)
        if t.size == 0:
            raise RuntimeError("no speed samples taken")
        csum = np.concatenate(([0.0], np.cumsum(v)))
        lo = np.searchsorted(t, starts, side="left")
        hi = np.searchsorted(t, ends, side="right")
        inside = hi - lo
        before = np.clip(lo - 1, 0, t.size - 1)
        after = np.clip(hi, 0, t.size - 1)
        mean = np.where(
            inside > 0,
            (csum[hi] - csum[lo]) / np.maximum(inside, 1),
            0.5 * (v[before] + v[after]),
        )
        return (ends - starts) * mean

    def nominal(self, t0: float, t1: float) -> float:
        return float(self.nominal_many([t0], [t1])[0])
