"""Instruments the tests measure zograd with, which no command of it runs."""

import csv
from pathlib import Path

import numpy as np

from zograd import _lanes
from zograd.core import STEPS_PER_CHUNK, DomainError
from zograd.testbed import ObjectiveFunction


def value_at(f: ObjectiveFunction, x: np.ndarray) -> float:
    """f at one point x, a float: x is (d,), or (1,) or a scalar at d = 1."""
    x = np.asarray(x, dtype=float)
    if f.dim == 1:
        return float(f.value(float(x.reshape(()) if x.ndim == 0 else x[0])))
    return float(f.value(x))


def smoothed_eval(f: ObjectiveFunction, x: np.ndarray, delta: float, samples: int,
                  rng: np.random.Generator) -> float:
    """Monte Carlo value of the unit-ball average of f around x, the surrogate
    the smoothing estimator is unbiased for."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = f.dim
    if d == 1:
        w = rng.uniform(-1.0, 1.0, size=samples)
        return float(np.mean(f.value(x[0] + delta * w)))
    z = rng.standard_normal((samples, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = rng.random(samples) ** (1.0 / d)
    pts = x + delta * z * r[:, None]
    return float(np.mean([value_at(f, p) for p in pts]))


def read_rows(path: str | Path) -> list[dict]:
    """The rows of a CSV that ``experiments.write_rows`` wrote, as dicts of strings."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def one_reply(oracle, x, delta: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(g, y): one reply of oracle at the point x and the evaluation point it
    is charged for, from the draws of one reply (``_draws``) and one
    ``estimate`` call."""
    x = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, -1)
    g, y, _ = oracle.estimate(x, delta, *oracle._draws(delta, 1, rng, False)[0])
    return g[0], y[0]


def lane_draws(lanes: _lanes.LaneRun, m: int) -> np.ndarray:
    """The next m steps' draws of a kernel run's lanes as its ``run`` fills
    a chunk's (``zg_lane_draws``): du, w and xi one after the other, each
    flat in the layout of ``solver._next_chunk``.  A view of the run's
    scratch, valid until the next chunk is drawn."""
    if not 0 < m <= STEPS_PER_CHUNK:  # the scratch holds one chunk
        raise ValueError(f"a chunk has 1 to {STEPS_PER_CHUNK} steps, not {m}")
    table = lanes._table
    count = _lanes._library().fill(m, table.size, lanes._flags, table, lanes._scratch)
    table["left"] -= np.minimum(table["left"], m)
    return lanes._scratch[:count]
