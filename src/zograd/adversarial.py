"""Constructive hard instances and the closed-form minimax floor.

Each hard instance is a pair: a target function indexed by a sign ``v`` and
a gradient oracle whose mean is shifted *toward* the opposite sign's
gradient by ``min(eps, C1*delta^p)``, then clipped so the two means never
cross.  The shift spends the full bias budget on hiding ``v``, which is what
makes the sign statistically hard to identify; Gaussian noise of variance
``C2*delta^-q`` exhausts the variance budget.  The oracle returns ``Y = x``.
One ``AdversarialOracle`` composes such pairs coordinate by coordinate into
d dimensions; with one instance it is that pair arm's 1-d oracle.

The closed-form quantities (worst-case tolerance, the KL bound it induces,
the optimizing separation, and the resulting floor on any algorithm's
error) are exposed for the experiment harness.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .core import (
    DomainError,
    Oracle,
    OracleEnvelope,
    draw_chunks,
)
from .testbed import ObjectiveFunction, separable, softabs, strongly_convex_pair

EPS_CAP_CONVEX = 1.0 / (4.0 * math.log(2.0))


# ---------------------------------------------------------------------------
# Oracle means (deterministic part; noise is added by the oracle object)
# ---------------------------------------------------------------------------


def _softabs_grad(x, v: float, eps: float):
    """The slope of softabs(v, eps), by the same formula as its gradient."""
    return eps * np.tanh((np.asarray(x, dtype=float) - v) * (0.5 / eps))


def _shift(delta, eps: float, c1: float, p: float):
    """min(eps, c1*delta^p) for one delta, or for each entry of an array of
    per-lane deltas.  Each entry comes from Python's float power, as a
    single delta's does: numpy's array power can differ from it in the last
    bit, and a lane must not depend on which other lanes share its run."""
    if not isinstance(delta, np.ndarray):
        return min(eps, c1 * delta**p)
    return np.array([min(eps, c1 * d**p) for d in delta.ravel().tolist()]).reshape(delta.shape)


def mean_response_convex(v: int, x, delta, eps: float, c1: float, p: float):
    """Mean gradient reply for the smooth-convex pair: the true slope shifted
    toward the other sign's slope by min(eps, c1*delta^p), clipped so the two
    shifted curves never cross.  delta is a float or an array that
    broadcasts against x."""
    x = np.asarray(x, dtype=float)
    shift = _shift(delta, eps, c1, p)
    g_plus = _softabs_grad(x, +1.0, eps)
    g_minus = _softabs_grad(x, -1.0, eps)
    if v == +1:
        raised = g_plus + shift
        return np.where(x < 0, raised, np.minimum(raised, g_minus - shift))
    if v == -1:
        lowered = g_minus - shift
        return np.where(x > 0, lowered, np.maximum(lowered, g_plus + shift))
    raise DomainError("v must be +1 or -1")


def mean_response_strongly_convex(v: int, x, delta, eps: float, c1: float, p: float):
    """Mean gradient reply for the strongly convex pair: x - v*eps shifted
    back toward zero by v*min(eps, c1*delta^p).  delta is a float or an
    array that broadcasts against x."""
    if v not in (+1, -1):
        raise DomainError("v must be +1 or -1")
    x = np.asarray(x, dtype=float)
    shift = _shift(delta, eps, c1, p)
    return x - v * eps + v * shift


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def worst_case_tolerance(eps: float, c1: float, p: float, q: float) -> float:
    """The delta maximizing the per-query distinguishability
    ((eps - c1*d^p)+)^2 * d^q.  Degenerate at q = 0, where the supremum is
    attained only in the limit d -> 0; 0.0 is returned to signal that."""
    if eps <= 0 or c1 <= 0 or p <= 0 or q < 0:
        raise DomainError("eps, c1, p must be positive and q nonnegative")
    if q == 0.0:
        return 0.0
    return (eps * q / (c1 * (2.0 * p + q))) ** (1.0 / p)


def kl_divergence_bound(n: int, eps: float, env: OracleEnvelope) -> float:
    """Upper bound on the divergence between the n-round observation laws of
    the two instances: (2n/C2) * (eps - c1(d*))^2 * d*^q."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n == 0:
        return 0.0
    d_star = worst_case_tolerance(eps, env.c1, env.p, env.q)
    gap = eps - env.c1 * d_star**env.p
    return 2.0 * n / env.c2 * gap * gap * d_star**env.q


def optimal_separation(problem_class: str, p: float, q: float, c1: float, c2: float, n: int) -> float:
    """The separation eps at which the hardest pair maximizes the error floor
    for horizon n."""
    if min(p, c1, c2) <= 0 or q < 0 or n <= 0:
        raise DomainError("need positive p, c1, c2, n and nonnegative q")
    if problem_class == "convex_smooth":
        k1 = (2.0 * p / (math.sqrt(c2) * (2.0 * p + q))) * (q / (c1 * (2.0 * p + q))) ** (q / (2.0 * p))
        return (2.0 * p / (math.sqrt(n) * k1 * (4.0 * p + q))) ** (2.0 * p / (2.0 * p + q))
    if problem_class == "strongly_convex":
        k1 = (p / (math.sqrt(c2) * (p + q / 2.0))) * (q / (2.0 * c1 * (p + q / 2.0))) ** (q / (2.0 * p))
        return (4.0 * p / ((6.0 * p + q) * math.sqrt(n) * k1)) ** (2.0 * p / (2.0 * p + q))
    raise DomainError(f"unknown problem class {problem_class!r}")


def minimax_lower_bound(problem_class: str, p: float, q: float, c1: float, c2: float, n: int) -> float:
    """Closed-form floor on the optimization error of any algorithm that sees
    n replies from a 1-d (C1 d^p, C2 d^-q) biased-gradient oracle."""
    if min(p, c1, c2) <= 0 or q < 0 or n <= 0:
        raise DomainError("need positive p, c1, c2, n and nonnegative q")
    two_pq = 2.0 * p + q
    if problem_class == "convex_smooth":
        k = two_pq**2 / (4.0 * q ** (q / two_pq) * (4.0 * p + q) ** ((4.0 * p + q) / two_pq))
        return k * c1 ** (q / two_pq) * c2 ** (p / two_pq) * n ** (-p / two_pq)
    if problem_class == "strongly_convex":
        k = (
            2.0 ** ((2.0 * p - q) / two_pq)
            * two_pq**3
            / (q ** (2.0 * q / two_pq) * (6.0 * p + q) ** ((6.0 * p + q) / two_pq))
        )
        return k * c1 ** (2.0 * q / two_pq) * c2 ** (2.0 * p / two_pq) * n ** (-2.0 * p / two_pq)
    raise DomainError(f"unknown problem class {problem_class!r}")


# ---------------------------------------------------------------------------
# Hard instances and their oracle, 1-d or composed coordinatewise
# ---------------------------------------------------------------------------


class HardInstance:
    """One arm of a 1-d hard pair, ``problem_class`` "convex_smooth" or
    "strongly_convex": the function for sign v plus the envelope of the
    adversarial oracle attached to it."""

    def __init__(self, problem_class: str, v: int, eps: float, envelope: OracleEnvelope):
        if problem_class not in ("convex_smooth", "strongly_convex"):
            raise DomainError(f"unknown problem class {problem_class!r}")
        if v not in (+1, -1):
            raise DomainError("v must be +1 or -1")
        if not 0.0 < eps < math.inf:
            raise DomainError("eps must be finite and positive")
        if problem_class == "convex_smooth" and eps >= EPS_CAP_CONVEX:
            raise DomainError(
                f"eps must stay below 1/(4 ln 2) ~ {EPS_CAP_CONVEX:.4f} for the convex pair"
            )
        if envelope.oracle_type != "type_I":
            raise DomainError("hard instances use type-I envelopes")
        if envelope.p <= 0 or envelope.c1 <= 0:
            raise DomainError("degenerate bias envelope (p or C1 zero) is not supported")
        self.problem_class, self.v, self.eps, self.envelope = problem_class, v, eps, envelope

    def objective(self) -> ObjectiveFunction:
        if self.problem_class == "convex_smooth":
            return softabs(self.v, self.eps)
        return strongly_convex_pair(self.v, self.eps)

    def mean_response(self, x, delta: float):
        if self.problem_class == "convex_smooth":
            return mean_response_convex(self.v, x, delta, self.eps, self.envelope.c1, self.envelope.p)
        return mean_response_strongly_convex(self.v, x, delta, self.eps, self.envelope.c1, self.envelope.p)


class AdversarialOracle(Oracle):
    """The biased, clipped, Gaussian-noise oracle of hard instances, one per
    coordinate.

    Coordinate i replies with its instance's closed-form mean plus noise
    N(0, C2_i*delta^-q), drawn fresh per query; the evaluation point is
    always the query point itself.  The instances share problem class, p
    and q, so squared biases and variances add across coordinates: with
    envelopes scaled to (C1/sqrt(d), C2/d) the composition meets the
    d-dimensional (C1, C2) envelope under the Euclidean norm.  One instance
    gives that instance's 1-d oracle, with its own function as target.
    """

    unbiased = True  # Y = x deterministically

    def __init__(self, *instances: HardInstance):
        if not instances:
            raise DomainError("an adversarial oracle needs at least one instance")
        if len({(inst.problem_class, inst.envelope.p, inst.envelope.q) for inst in instances}) > 1:
            raise DomainError("composed instances must share one problem class, p and q")
        self.instances, self.instance, self.dim = instances, instances[0], len(instances)

    @functools.cached_property
    def target(self) -> ObjectiveFunction:
        fs = [inst.objective() for inst in self.instances]
        return fs[0] if self.dim == 1 else separable(fs)

    @functools.cached_property
    def envelope(self) -> OracleEnvelope:
        """(hypot of the C1s, sum of the C2s): a lone instance's envelope
        exactly, where a root of the sum of squares would overflow."""
        c1 = math.hypot(*(inst.envelope.c1 for inst in self.instances))
        c2 = sum(inst.envelope.c2 for inst in self.instances)
        return OracleEnvelope(c1=c1, p=self.instance.envelope.p, c2=c2, q=self.instance.envelope.q)

    def mean_response(self, x, delta) -> np.ndarray:
        """Coordinatewise means at one point (d,) or at each row of (..., d);
        delta is a float or an array that broadcasts against one column."""
        x = np.asarray(x, dtype=float)
        return np.concatenate(
            [inst.mean_response(x[..., i:i + 1], delta) for i, inst in enumerate(self.instances)], axis=-1
        )

    def _sds(self, delta: float) -> np.ndarray:
        return np.array([math.sqrt(inst.envelope.c2_value(delta)) for inst in self.instances])

    def estimate(self, x: np.ndarray, delta, xi: np.ndarray):
        """Replies at the rows of x (lanes, d): the means plus the drawn noise
        xi (lanes, d); the evaluation point is x itself, where f is not
        evaluated.  delta is a float or a (lanes, 1) column."""
        return self.mean_response(x, delta) + xi, x, None

    def _draws(self, delta, m, rng, antithetic):
        """The noise xi (m, d) of m replies at one point, with no mirror."""
        return (self._sds(delta) * rng.standard_normal((m, self.dim)),), None

    def make_stepper(self, n: int, delta: float, rng: np.random.Generator):
        """The noise of n solver steps, in chunks of one (m, d) array."""
        sds, d = self._sds(delta), self.dim
        return draw_chunks(rng, n, (lambda g, m: sds * g.standard_normal((m, d)),))

    def lane_spec(self):
        """``estimate`` and ``make_stepper`` as the compiled lane kernel
        computes and draws them (``_lanes.LaneSpec``) at d = 1: the reply of
        arm v of separation eps, shifted by min(eps, c1*delta^p) as
        ``estimate`` shifts it, plus noise sd*z with the sd of ``_sds``.
        None for d > 1."""
        if self.dim > 1:
            return None
        from . import _lanes  # imported on first use, not with zograd (see _lanes)
        inst, env = self.instance, self.instance.envelope
        flags = _lanes.AT_X | (_lanes.SOFTABS if inst.problem_class == "convex_smooth" else 0)
        return _lanes.LaneSpec(flags, (float(inst.v), float(inst.eps)), noise=lambda delta: float(self._sds(delta)[0]),
                               shift=lambda delta: _shift(delta, inst.eps, env.c1, env.p))


def hard_pair(
    problem_class: str,
    p: float,
    q: float,
    c1: float,
    c2: float,
    eps: float,
) -> tuple[HardInstance, HardInstance]:
    env = OracleEnvelope(c1=c1, p=p, c2=c2, q=q, oracle_type="type_I")
    return (
        HardInstance(problem_class, +1, eps, env),
        HardInstance(problem_class, -1, eps, env),
    )


def scaled_hard_coordinates(
    problem_class: str, p: float, q: float, c1: float, c2: float, eps: float, v: Sequence[int]
) -> AdversarialOracle:
    """The d-dimensional oracle whose coordinates carry the scaled envelopes
    (c1/sqrt(d), c2/d), so the composition meets (c1, c2)."""
    d = len(v)
    if d == 0:
        raise DomainError("an adversarial oracle needs at least one instance")
    env = OracleEnvelope(c1=c1 / math.sqrt(d), p=p, c2=c2 / d, q=q, oracle_type="type_I")
    return AdversarialOracle(*(HardInstance(problem_class, vi, eps, env) for vi in v))


# ---------------------------------------------------------------------------
# Deterministic validation grids
# ---------------------------------------------------------------------------

GRID_X = np.linspace(-2.0, 2.0, 401)
GRID_DELTA = np.logspace(-3.0, 0.0, 25)


def _grid_c1(instance: HardInstance) -> np.ndarray:
    """c1*delta^p for each grid delta, as a column (25, 1) against the
    (delta, x) grid: each entry from the scalar ``c1_value``, whose float
    power numpy's array power can differ from in the last bit."""
    return np.array([[instance.envelope.c1_value(d)] for d in GRID_DELTA.tolist()])


def bias_excess_on_grid(instance: HardInstance) -> float:
    """max over the (delta, x) grid, in one (25, 401) pass, of
    |mean - f'| - c1*delta^p; analytically <= 0, so anything above float
    roundoff is a violation."""
    mean = instance.mean_response(GRID_X, GRID_DELTA[:, None])
    true_grad = np.asarray(instance.objective().gradient(GRID_X), dtype=float)
    return float(np.max(np.abs(mean - true_grad) - _grid_c1(instance)))


def convex_gap_slack(eps: float) -> float:
    """Exact crossing residual of the smooth-convex pair at the clip point.

    The two shifted slopes meet everywhere except at the branch point x = 0,
    where the sign conventions clip on opposite sides; the leftover gap is
    2*eps*(1 - tanh(1/(2*eps))), exponentially small in 1/eps.  The nominal
    bound 2*(eps - c1*d^p)+ holds everywhere else.
    """
    return 2.0 * eps * (1.0 - math.tanh(0.5 / eps))


def gap_deviation_on_grid(plus: HardInstance, minus: HardInstance) -> tuple[float, float]:
    """(max excess of |mean+ - mean-| over the gap bound including the
       branch-point slack, max |identity defect| for the strongly convex
       family, whose gap identity is exact), over the (delta, x) grid in one
       (25, 401) pass."""
    slack = convex_gap_slack(plus.eps) if plus.problem_class == "convex_smooth" else 0.0
    target = 2.0 * np.maximum(plus.eps - _grid_c1(plus), 0.0)
    deltas = GRID_DELTA[:, None]
    gap = np.abs(plus.mean_response(GRID_X, deltas) - minus.mean_response(GRID_X, deltas))
    worst_defect = float(np.max(np.abs(gap - target))) if plus.problem_class == "strongly_convex" else 0.0
    return float(np.max(gap - target)) - slack, worst_defect
