"""Reference loop that measures how fast the machine runs right now.

On a shared machine the speed drifts: for tens of seconds at a time the same
work can take up to twice as long. run.py times this fixed loop three times
just before and three times just after every child and multiplies the
child's times by NOMINAL_S / (the median of the six), so a time reads as it
would at the reference speed. The loop does the kind of work
neurofl's inner loop does (interpreted Python, math calls, arrays of a few
elements) and uses nothing from neurofl, so no change to the program can
move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# the loop's time, in seconds, at the reference speed
NOMINAL_S = 0.025
ITERATIONS = 2000


def reference_loop() -> float:
    centers = np.linspace(-1.0, 1.0, 7)
    weights = np.zeros(7)
    y = np.array([0.1, 0.2])
    acc = 0.0
    for k in range(ITERATIONS):
        t = k * 1e-3
        phi = np.array([math.exp(-((0.3 - mu) ** 2) / 0.5) for mu in centers])
        weights = weights + 1e-3 * (1.5 * phi - 0.01 * weights)
        y = y + 1e-3 * np.array([y[1], -math.sin(y[0]) + math.sin(t)])
        acc += float(np.dot(weights, phi))
    return acc


def measure(repeats: int = 3) -> list[float]:
    """Seconds the reference loop takes now, once per repeat."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return times
