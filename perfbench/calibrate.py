"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark's passes run on shared machines whose speed drifts by tens of
percent for minutes at a time, with no change to the program.  Timing this
kernel next to each pass and dividing by it cancels that drift: a pass that
took 1.3 s while the kernel ran 1.3x slower than usual is reported as 1.0 s.

The kernel does the same kinds of work as zograd's experiments: a scalar
Python loop of mirror-descent steps over pre-drawn noise through a stepper
closure (the solver loop), plus vectorised numpy sampling and reductions
(the steppers' draws, envelopes and probes).  Its work never changes, so
its time moves only with the machine.
"""

from __future__ import annotations

import math
import time

import numpy as np

STEPS = 60_000
DRAWS = 400_000
# The fixed scale of normalised times: they are seconds on a machine where
# one kernel call takes this long.  On the 2-vCPU x86_64 machine the
# benchmark was tuned on (Python 3.11, numpy 2.4) a call took 0.034 s in its
# fast periods and 0.045-0.055 s on average.
REFERENCE_S = 0.040


def _kernel() -> float:
    rng = np.random.default_rng(12345)
    noise = rng.standard_normal(STEPS).tolist()

    def stepper(t, x):
        return 2.0 * (x - 0.3) + noise[t], x

    x, sum_x = 0.0, 0.0
    for t in range(STEPS):
        g, y = stepper(t, x)
        x = x - g / math.sqrt(t + 1.0)
        if x > 1.0:
            x = 1.0
        elif x < -1.0:
            x = -1.0
        sum_x += x * y
    z = rng.standard_normal(DRAWS)
    u = rng.random(DRAWS)
    moments = float(np.mean(z * z)) + float(np.mean(np.abs(z - u) ** 3))
    return sum_x / STEPS + moments


def samples(repeats: int) -> list[float]:
    """Seconds of each of ``repeats`` kernel calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        _kernel()
        times.append((time.perf_counter_ns() - t0) / 1e9)
    return times


if __name__ == "__main__":
    print(" ".join(f"{t:.5f}" for t in samples(10)))
