"""A probe's replies and their moments from the lane library (``_lanes.c``).

Only a probe imports this module, the first time it asks for its replies
(``core.Oracle.sample_gradients``) or their moments
(``probes.probe_bias_variance``), so that a run compiles none of it (where
Python keeps no bytecode cache, every line a process imports is compiled
in it).

A probe's m replies at one point at d = 1 are one library call
(``probe_replies``): the lane kernel's fill draws them on one lane and its
formulas compute them.  Where it refuses, the oracle's numpy ``_draws`` and
``estimate`` make them.  For ``probe_bias_variance`` the same call also
folds the replies into the ``MOMENTS`` doubles the probe reads, each sum in
numpy's pairwise order, and returns those instead; the replies then go to
the call's scratch, and no array of them is made.  The first probe that
asks checks the moments against numpy's on ``MOMENTS_PREMISE``, once per
process and never when the library loads; where they differ, the reason is
logged once at DEBUG and numpy takes the moments of the library's replies.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import _lanes  # its functions looked up at each call, where a test may patch them
from ._lanes import AT_X, EXP, MIRROR, SOFTABS, TWO_POINT

# (seed, count) of the values the library's moments are checked on the first
# time a probe asks for them: normals scaled by 2^-20 .. 2^20, whose sums
# round differently in another order; the count and its 32 batches of 312
# are split, and at no multiple of 8 (tests/test_solver.py pins it)
MOMENTS_PREMISE = (20260810, 10_007)
# the doubles of a probe's moments (zg_moments): the mean and the mean centred
# square of the replies, then each of those of 32 batches
MOMENTS = 2 + 2 * 32


def probe_replies(oracle, x: np.ndarray, delta: float, m: int, rng: np.random.Generator, antithetic: bool = False,
                  moments: Optional[Callable[[np.ndarray], np.ndarray]] = None):
    """``oracle.sample_gradients(x, delta, m, rng, antithetic)`` at a 1-d
    point x (1, 1), bit for bit, from one library call (``zg_probe``), which
    leaves rng where the oracle's numpy draws leave it: the draws of
    ``_draws`` on one lane whose directions and noise both read rng (all m
    directions, then the noise arm by arm in blocks of m; an antithetic
    one-point estimator's as two arms, ``MIRROR``), then each reply by the
    formula of ``lane_spec()``.  Returns (the replies (m, 1), None), or
    (None, why numpy makes them).

    Given ``moments``, numpy's function of m >= 32 replies (m, 1) to their
    moments, flat (``probes._moments``), the same call folds the replies,
    written into its scratch, into those ``MOMENTS`` doubles (``zg_moments``)
    and returns them in the replies' place, with the bits ``moments`` gives,
    where the library's moments give its bits on ``MOMENTS_PREMISE``
    (``_moments_hold``)."""
    spec = _lanes._spec(oracle, ("estimate", "_scaled", "_noise", "_draws")) if m >= 1 else None
    if spec is None or spec.data is None:
        return None, "no C formula: no replies, d > 1, another target, or a redefined draw or estimate"
    if _lanes.kernel() is None:
        return None, "no lane kernel"
    for name, flag in (("tanh", SOFTABS), ("exp", EXP)):
        if spec.flags & flag and not _lanes.loop_bound(name):
            return None, f"{name} loop not bound"
    if moments is not None and not _moments_hold(moments):
        return None, "the lane kernel's moments failed their check"
    flags = _lanes._flags(spec) | (MIRROR if antithetic and not spec.flags & (TWO_POINT | AT_X) else 0)
    lib, lane, data = _lanes._library(), _lanes._table(spec, [delta]), np.array(spec.data, float)
    scratch = np.empty(lib.scratch(m, 1, flags))
    out = np.empty((m, 1)) if moments is None else np.empty(MOMENTS)
    replies, folded = (out.ctypes.data, None) if moments is None else (None, out.ctypes.data)
    lane["left"] = m
    with rng.bit_generator.lock:  # as a Generator holds it while it draws
        lane["dir"] = lane["noise"] = _lanes._address(rng.bit_generator)
        lib.probe(m, flags, data.ctypes.data, lane.ctypes.data, x[0, 0], replies, scratch.ctypes.data, folded)
    return out, None


def _moments_hold(moments: Callable[[np.ndarray], np.ndarray]) -> bool:
    """Whether the library's moments give the bits of ``moments``, numpy's,
    on ``MOMENTS_PREMISE``: only then does a probe take them.  The first call
    checks, once per process, and logs at DEBUG whose moments probes take."""
    loaded = _lanes._library()
    if loaded is None:
        return False
    with _lanes._loading:
        if loaded.moments_hold is None:
            unchecked = _moments_mismatch(loaded.moments, moments)
            _lanes._log.debug("probe moments from %s", "the lane kernel, checked against numpy's"
                              if unchecked is None else f"numpy: {unchecked}")
            loaded.moments_hold = unchecked is None
        return loaded.moments_hold


def _moments_mismatch(fn: Callable, moments: Callable[[np.ndarray], np.ndarray]) -> Optional[str]:
    """Why ``fn``, the library's ``zg_moments``, does not give the bits of
    ``moments`` on ``MOMENTS_PREMISE``, or None where it does."""
    g, got = moments_premise(), np.empty(MOMENTS)
    fn(len(g), g.ctypes.data, got.ctypes.data)
    same = np.array_equal(got.view(np.int64), np.asarray(moments(g), float).view(np.int64))
    return None if same else "the lane kernel's moments differ from numpy's"


def moments_premise() -> np.ndarray:
    """The replies (n, 1) of ``MOMENTS_PREMISE``."""
    seed, n = MOMENTS_PREMISE
    premise = np.random.default_rng(seed)
    return (premise.standard_normal(n) * np.exp2(premise.integers(-20, 21, n))).reshape(n, 1)
