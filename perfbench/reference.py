"""The benchmark's reference computation: fixed exact rational arithmetic.

The machine runs in speed phases (README, Noise), so the benchmark times
this computation next to every operation it measures and reports the
operation's time over the reference's time, scaled back to seconds by the
reference's time in a fast phase of the baseline machine.

    python3 perfbench/reference.py    SPAWNED_STEPS steps in a fresh interpreter

run.py spawns that between every two timed child processes; worker.py
calls ``timed(INPROC_STEPS)`` between every two weyl-sweep operations.
"""

from __future__ import annotations

import time
from fractions import Fraction

PRIME = 1_000_003  # keeps the running value small, so every step costs alike

SPAWNED_STEPS = 6000
SPAWNED_S = 0.070  # a spawned run's wall time in a fast phase of the baseline machine
INPROC_STEPS = 1500
INPROC_S = 0.0090  # timed(INPROC_STEPS) in a fast phase of the baseline machine


def work(steps: int) -> Fraction:
    x = Fraction(0)
    for i in range(steps):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(i % 11, i % 13 + 1)
        x = Fraction(x.numerator % PRIME, x.denominator % PRIME + 1)
    return x


def timed(steps: int) -> float:
    start = time.perf_counter()
    work(steps)
    return time.perf_counter() - start


if __name__ == "__main__":
    work(SPAWNED_STEPS)
