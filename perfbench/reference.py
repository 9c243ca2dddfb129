"""Machine-speed references, for times that hold still on a shared host.

The host this benchmark was defined on changes speed by up to 2x within
minutes, as neighbours load it; a fixed piece of work slows down with it.
Each timed operation is therefore paired with a reference measured next to
it, and the reported time is the raw time scaled by NOMINAL / reference:

* in-process work is paired with ``loop_ms``, a fixed pure-Python loop of
  object creation, attribute access, calls and float math, like uvangle's;
* a CLI process is paired with ``floor_ms``, a `python -c pass` process.

The NOMINAL constants are the references' times on a 2-vCPU Intel Xeon
guest in a quiet period, so scaled times read as milliseconds there.  Raw
times are kept in each run's detail record.  Neither reference runs any
uvangle code, so a change to uvangle cannot move them.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

LOOP_NOMINAL_MS = 2.5
FLOOR_NOMINAL_MS = 50.0
LOOP_REPEATS = 3  # loop runs per reference value; the median is used


class _Pt:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def turned(self) -> "_Pt":
        return _Pt(self.y, -self.x)


def _loop() -> float:
    acc = 0.0
    for i in range(3000):
        p = _Pt(i * 0.5, 1.0 + i)
        q = p.turned()
        acc += math.hypot(p.x - q.x, p.y - q.y) / (1.0 + abs(p.x * q.y - p.y * q.x))
    return acc


def loop_ms() -> float:
    """Median wall time (ms) of LOOP_REPEATS runs of the reference loop."""
    times = []
    for _ in range(LOOP_REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def floor_ms(env: dict, cwd) -> float:
    """Wall time (ms) of one `python -c pass` process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, capture_output=True,
                   timeout=60, check=True)
    return (time.perf_counter() - t0) * 1000.0
