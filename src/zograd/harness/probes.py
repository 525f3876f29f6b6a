"""Monte Carlo verification of oracle bias/variance contracts."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..core import DomainError, EUCLIDEAN, OracleEnvelope
from .fitting import ols_loglog
from .verdicts import Verdict, verdict

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


def probe_bias_variance(
    oracle,
    x,
    delta: float,
    reps: int,
    rng: np.random.Generator,
    antithetic: bool = False,
) -> ProbeResult:
    """Estimate ||E G - grad f(x)||_2 and E||G - E G||_2^2 at (x, delta).

    Standard errors come from 32 batch means, the batches the first
    32*(reps // 32) draws split into in order, all taken in one pass over a
    (32, reps // 32, d) view.  The whole sample and the batches are centred
    and squared in one scratch array.  ``antithetic=True`` averages each
    draw with its mirrored perturbation; the bias estimate is unchanged in
    expectation but concentrates much faster (use it for slope fits, not for
    variance estimation).
    """
    if reps < _BATCHES:
        raise DomainError(f"need at least {_BATCHES} replications")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = oracle.sample_gradients(x, delta, reps, rng, antithetic=antithetic)
    grad = oracle.target.gradient_at(x)

    mean_g, scratch = g.mean(axis=0), np.empty_like(g)
    bias_est = EUCLIDEAN.value(mean_g - grad)
    var_est = float(np.mean(_centred_sq(g, mean_g, scratch)))

    per = reps // _BATCHES
    batches, batch_scratch = (a[:_BATCHES * per].reshape(_BATCHES, per, -1) for a in (g, scratch))
    means = batches.mean(axis=1)
    biases = EUCLIDEAN.rows(means - grad)
    variances = _centred_sq(batches, means[:, None], batch_scratch).mean(axis=1)
    return ProbeResult(
        delta=float(delta),
        bias_est=float(bias_est),
        bias_se=float(biases.std(ddof=1) / np.sqrt(_BATCHES)),
        var_est=var_est,
        var_se=float(variances.std(ddof=1) / np.sqrt(_BATCHES)),
        replications=reps,
    )


def envelope_verdicts(res: ProbeResult, env: OracleEnvelope) -> tuple[Verdict, Verdict]:
    """The bias and variance verdicts of a probe against the envelope at its
    delta: bias <= c1(delta) + SE_SLACK*se and variance <= VAR_FACTOR*c2(delta)
    + SE_SLACK*se."""
    return (
        verdict(f"bias at delta={res.delta:g}", res.bias_est, "<=", env.c1_value(res.delta) + SE_SLACK * res.bias_se),
        verdict(f"variance at delta={res.delta:g}", res.var_est, "<=",
                VAR_FACTOR * env.c2_value(res.delta) + SE_SLACK * res.var_se),
    )


def bias_slope(
    oracle,
    x,
    deltas: Sequence[float],
    reps: int,
    rng: np.random.Generator,
) -> tuple[float, list[ProbeResult]]:
    """Least-squares slope of log(bias) against log(delta), measured with
    antithetic pairs so the Monte Carlo mean is tight."""
    results = [probe_bias_variance(oracle, x, d, reps, rng, antithetic=True) for d in deltas]
    slope, _, _ = ols_loglog([r.delta for r in results], [max(r.bias_est, 1e-300) for r in results])
    return slope, results


def variance_slope(
    oracle,
    x,
    deltas: Sequence[float],
    reps: int,
    rng: np.random.Generator,
) -> tuple[float, list[ProbeResult]]:
    results = [probe_bias_variance(oracle, x, d, reps, rng) for d in deltas]
    slope, _, _ = ols_loglog([r.delta for r in results], [r.var_est for r in results])
    return slope, results
