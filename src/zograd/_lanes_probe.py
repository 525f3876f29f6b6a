"""The moments of a probe's replies from the lane library (``_lanes.c``).

Only a probe imports this module, the first time it asks for its moments
(``probes.probe_bias_variance``), so that a run compiles none of it (where
Python keeps no bytecode cache, every line a process imports is compiled
in it).

A probe's m replies at one point at d = 1 and their moments are one
library call (``probe_replies``): the lane kernel's fill draws the replies
on one lane, its formulas compute them into the call's scratch, and the
call folds them into the ``MOMENTS`` doubles the probe reads, each sum in
numpy's pairwise order, so that no array of replies is made.  The library
is loaded only where its moments give numpy's bits
(``_lanes_build.MOMENTS_PREMISE``).  Where it refuses a probe, the
oracle's numpy ``sample_gradients`` and ``probes._moments`` take it.
"""

from __future__ import annotations

import numpy as np

from . import _lanes  # its functions looked up at each call, where a test may patch them
from ._lanes import AT_X, EXP, MIRROR, SOFTABS, TWO_POINT

# the doubles of a probe's moments (zg_moments): the mean and the mean centred
# square of the replies, then each of those of 32 batches
MOMENTS = 2 + 2 * 32


def probe_replies(oracle, x: np.ndarray, delta: float, m: int, rng: np.random.Generator, antithetic: bool = False):
    """The moments, flat, that ``probes._moments`` gives of
    ``oracle.sample_gradients(x, delta, m, rng, antithetic)``, m >= 32
    replies at a 1-d point x (1, 1), bit for bit, from one library call
    (``zg_probe``), which leaves rng where the oracle's numpy draws leave
    it: the draws of ``_draws`` on one lane whose directions and noise both
    read rng (all m directions, then the noise arm by arm in blocks of m;
    an antithetic one-point estimator's as two arms, ``MIRROR``), then each
    reply by the formula of ``lane_spec()``, then their ``MOMENTS``
    doubles (``zg_moments``).  Returns (the moments, None), or (None, why
    numpy makes them)."""
    spec = _lanes._spec(oracle, ("estimate", "_scaled", "_noise", "_draws"))
    if spec is None or spec.data is None:
        return None, "no C formula: no replies, d > 1, another target, or a redefined draw or estimate"
    if _lanes.kernel() is None:
        return None, "no lane kernel"
    for name, flag in (("tanh", SOFTABS), ("exp", EXP)):
        if spec.flags & flag and not _lanes.loop_bound(name):
            return None, f"{name} loop not bound"
    flags = _lanes._flags(spec) | (MIRROR if antithetic and not spec.flags & (TWO_POINT | AT_X) else 0)
    lib, lane, data = _lanes._library(), _lanes._table(spec, [delta]), np.array(spec.data, float)
    scratch, moments = np.empty(lib.scratch(m, 1, flags)), np.empty(MOMENTS)
    lane["left"] = m
    with rng.bit_generator.lock:  # as a Generator holds it while it draws
        lane["dir"] = lane["noise"] = _lanes._address(rng.bit_generator)
        lib.probe(m, flags, data.ctypes.data, lane.ctypes.data, x[0, 0], scratch.ctypes.data, moments.ctypes.data)
    return moments, None
