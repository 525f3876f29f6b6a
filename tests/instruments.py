"""Instruments the tests measure zograd with, which no command of it runs."""

import csv
import ctypes
from pathlib import Path
from typing import Optional, Sequence
from unittest import mock

import numpy as np

from zograd import _lanes, _lanes_probe
from zograd.core import STEPS_PER_CHUNK, DomainError
from zograd.harness.fitting import ols_loglog
from zograd.harness.probes import ProbeResult, probe_bias_variance
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
    table, address = lanes._table, ctypes.c_void_p
    fill = _lanes._declare(_lanes._library().lib["zg_lane_draws"], [ctypes.c_long] * 3 + [address] * 2, ctypes.c_long)
    count = fill(m, table.size, lanes._flags, table.ctypes.data, lanes._scratch.ctypes.data)
    table["left"] -= np.minimum(table["left"], m)
    return lanes._scratch[:count]


def library_replies(oracle, x, delta: float, m: int, rng: np.random.Generator,
                    antithetic: bool = False) -> Optional[np.ndarray]:
    """The m replies (m, 1) at the 1-d point x that the lane library's probe
    call (``_lanes_probe.probe_replies``) makes and folds into their
    moments, copied out of the call's scratch, where ``zg_probe`` leaves
    them; None where the library refuses the probe.  Below 32 replies the
    moments the call folds them into are NaN, and are not read."""
    loaded, replies = _lanes._library(), []
    if loaded is None:
        return None
    real = loaded.probe

    def probe(m, flags, data, lane, x, scratch, moments):
        start = real(m, flags, data, lane, x, scratch, moments)
        replies.append(np.ctypeslib.as_array((ctypes.c_double * (start + m)).from_address(scratch))[start:].copy())

    with mock.patch.object(loaded, "probe", probe):
        _lanes_probe.probe_replies(oracle, oracle.probe_point(x), delta, m, rng, antithetic)
    return replies[0].reshape(m, 1) if replies else None


def bias_slope(oracle, x, deltas: Sequence[float], reps: int,
               rng: np.random.Generator) -> tuple[float, list[ProbeResult]]:
    """Least-squares slope of log(bias) against log(delta), measured with
    antithetic pairs so the Monte Carlo mean is tight."""
    results = [probe_bias_variance(oracle, x, d, reps, rng, antithetic=True) for d in deltas]
    slope, _, _ = ols_loglog([r.delta for r in results], [max(r.bias_est, 1e-300) for r in results])
    return slope, results


def variance_slope(oracle, x, deltas: Sequence[float], reps: int,
                   rng: np.random.Generator) -> tuple[float, list[ProbeResult]]:
    """Least-squares slope of log(variance) against log(delta)."""
    results = [probe_bias_variance(oracle, x, d, reps, rng) for d in deltas]
    slope, _, _ = ols_loglog([r.delta for r in results], [r.var_est for r in results])
    return slope, results


class WrongSeeding(_lanes._Library):
    """A loaded lane library whose ``zg_seed`` gives the words of the next
    master seed: its first word plus one.  Set as ``_lanes._Library``, it is
    what the next load makes."""

    def __init__(self, lib, ufunc: bool):
        super().__init__(lib, ufunc)
        real = self.seed

        def seed(master, count, *rest):
            words = np.ctypeslib.as_array((ctypes.c_uint32 * count).from_address(master)) + np.uint32(1)
            return real(words.ctypes.data, count, *rest)

        self.seed = seed


class NoTables(_lanes._Library):
    """A loaded lane library whose ``zg_bind_normal`` cannot read numpy's
    ziggurat tables.  Set as ``_lanes._Library``, it is what the next load
    makes."""

    def __init__(self, lib, ufunc: bool):
        super().__init__(lib, ufunc)
        lib.zg_bind_normal = lambda: -1


class MomentsOff(_lanes._Library):
    """A loaded lane library whose ``zg_moments`` gives a mean one bit
    above numpy's.  Set as ``_lanes._Library``, it is what the next load
    makes."""

    def __init__(self, lib, ufunc: bool):
        super().__init__(lib, ufunc)
        real = self.moments

        def moments(m, g, out):
            real(m, g, out)
            ctypes.c_int64.from_address(out).value += 1

        self.moments = moments
