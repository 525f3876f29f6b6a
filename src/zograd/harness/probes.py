"""Monte Carlo verification of oracle bias/variance contracts."""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from ..core import DomainError, EUCLIDEAN, OracleEnvelope
from .verdicts import Verdict, verdict

_log = logging.getLogger(__name__)
_BATCHES = 32
# the slack of the probe verdicts, ``envelope_verdicts``
SE_SLACK = 5.0
VAR_FACTOR = 1.05


def _centred_sq(rows: np.ndarray, centre: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The squared Euclidean norm of each row of rows - centre (..., d), the
    difference centred and squared in ``scratch``, an array of rows' shape
    that it overwrites."""
    np.square(np.subtract(rows, centre, out=scratch), out=scratch)
    return scratch[..., 0] if rows.shape[-1] == 1 else scratch.sum(axis=-1)


class ProbeResult(NamedTuple):
    delta: float
    bias_est: float
    bias_se: float
    var_est: float
    var_se: float
    replications: int


def _moments(g: np.ndarray) -> np.ndarray:
    """numpy's moments of the replies g (m, d), flat: their mean (d) and mean
    centred square, then the means (32, d) of the 32 batches the first
    32*(m // 32) replies split into in order, all taken in one pass over a
    (32, m // 32, d) view, and each batch's mean centred square.  The whole
    sample and the batches are centred and squared in one scratch array."""
    mean_g, scratch = g.mean(axis=0), np.empty_like(g)
    var = np.mean(_centred_sq(g, mean_g, scratch))
    per = len(g) // _BATCHES
    batches, batch_scratch = (a[:_BATCHES * per].reshape(_BATCHES, per, -1) for a in (g, scratch))
    means = batches.mean(axis=1)
    variances = _centred_sq(batches, means[:, None], batch_scratch).mean(axis=1)
    return np.concatenate([mean_g, [var], means.ravel(), variances])


def probe_bias_variance(oracle, x, delta: float, reps: int, rng: np.random.Generator,
                        antithetic: bool = False) -> ProbeResult:
    """Estimate ||E G - grad f(x)||_2 and E||G - E G||_2^2 at (x, delta).

    Standard errors come from 32 batch means (``_moments``), which at d = 1
    the call of the lane library that makes the replies takes, with numpy's
    bits (``_lanes_probe.probe_replies``), and numpy's ``sample_gradients``
    and ``_moments`` where the library refuses the probe; which path took
    them, and why, is logged at DEBUG.  ``antithetic=True`` averages each
    draw with its mirrored perturbation; the bias estimate is unchanged in
    expectation but concentrates much faster (use it for slope fits, not
    for variance estimation).
    """
    if reps < _BATCHES:
        raise DomainError(f"need at least {_BATCHES} replications")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    from .. import _lanes_probe  # imported by a probe only, not with zograd (see _lanes)

    moments, refused = _lanes_probe.probe_replies(oracle, oracle.probe_point(x), delta, reps, rng, antithetic)
    if moments is None:
        moments = _moments(oracle.sample_gradients(x, delta, reps, rng, antithetic=antithetic))
    _log.debug("probe_bias_variance: moments of %d replies from %s", reps,
               "the compiled lane kernel" if refused is None else f"numpy ({refused})")
    d, grad = x.size, oracle.target.gradient_at(x)
    biases = EUCLIDEAN.rows(moments[d + 1:-_BATCHES].reshape(_BATCHES, d) - grad)
    return ProbeResult(delta=float(delta), bias_est=EUCLIDEAN.value(moments[:d] - grad),
                       bias_se=float(biases.std(ddof=1) / np.sqrt(_BATCHES)), var_est=float(moments[d]),
                       var_se=float(moments[-_BATCHES:].std(ddof=1) / np.sqrt(_BATCHES)), replications=reps)


def envelope_verdicts(res: ProbeResult, env: OracleEnvelope) -> tuple[Verdict, Verdict]:
    """The bias and variance verdicts of a probe against the envelope at its
    delta: bias <= c1(delta) + SE_SLACK*se and variance <= VAR_FACTOR*c2(delta)
    + SE_SLACK*se."""
    return (
        verdict(f"bias at delta={res.delta:g}", res.bias_est, "<=", env.c1_value(res.delta) + SE_SLACK * res.bias_se),
        verdict(f"variance at delta={res.delta:g}", res.var_est, "<=",
                VAR_FACTOR * env.c2_value(res.delta) + SE_SLACK * res.var_se),
    )
