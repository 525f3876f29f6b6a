"""Zeroth-order gradient oracles built from noisy function evaluations.

Three estimator families are provided behind one interface:

* one-point:  G = (f(x + d*U) + noise) * V / d
* two-point:  G = (Z+ - Z-) * V / (2*d) with Z± evaluated at x ± d*U
* smoothing:  the one-point estimator with surface sampling of the unit
  ball (V = d*U, U uniform on the sphere), which is unbiased for the
  ball-averaged surrogate of f.

Perturbation laws (U, V) satisfy E[V U^T] = I; supported choices are
symmetric +-1 coordinates with reciprocal weights, the uniform sphere of
radius sqrt(d), the standard Gaussian, and uniform surface sampling.
Each oracle exports the bias/variance envelope of its (class, noise) cell
with constants assembled from closed-form moments of (U, V).

Every oracle computes its estimate in one vectorised ``estimate`` over a
stack of query points, from draws passed in as arguments.  ``make_stepper``
feeds the solver those draws chunk by chunk; ``sample_gradients``
(``core.Oracle``) takes the draws of a probe from ``_draws`` and calls the
same ``estimate``, block by block.  ``lane_spec`` states the same
formulas and draws for the compiled lane kernel.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .core import (
    DomainError,
    EUCLIDEAN,
    MAX_NORM,
    Norm,
    Oracle,
    OracleEnvelope,
    Value,
    draw_chunks,
)
from .testbed import ObjectiveFunction

SCHEME_KINDS = ("spsa", "rdsa", "sf", "surface")
FUNCTION_CLASSES = ("convex_smooth", "c3")  # the classes envelope_for has constants for


class PerturbationScheme(Value):
    """A joint law for the probe direction U and the weight vector V."""

    def __init__(self, kind: str):
        if kind not in SCHEME_KINDS:
            raise DomainError(f"unknown perturbation scheme {kind!r}")
        self.kind = kind

    def sample_u(self, d: int, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` directions, shape (size, d)."""
        if self.kind == "spsa":
            return rng.integers(0, 2, size=(size, d)).astype(float) * 2.0 - 1.0
        z = rng.standard_normal((size, d))
        if self.kind == "sf":
            return z
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        if self.kind == "rdsa":
            return z * math.sqrt(d)
        return z  # surface: uniform on the unit sphere

    def v_of(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "spsa":
            return 1.0 / u
        if self.kind == "surface":
            return u.shape[-1] * u
        return u

    def vicinity_norm(self) -> Norm:
        return MAX_NORM if self.kind == "spsa" else EUCLIDEAN

    def u_bound(self, d: int) -> float:
        """sup ||U|| under the vicinity norm (inf for the Gaussian scheme)."""
        if self.kind in ("spsa", "surface"):
            return 1.0
        if self.kind == "rdsa":
            return math.sqrt(d)
        return math.inf


SPSA = PerturbationScheme("spsa")
RDSA = PerturbationScheme("rdsa")
SF = PerturbationScheme("sf")
SURFACE = PerturbationScheme("surface")


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------


class UncontrolledNoise(Value):
    """Additive Gaussian evaluation noise, independent per evaluation."""

    kind = "uncontrolled"

    def __init__(self, sigma: float = 0.0):
        if not sigma >= 0:  # NaN too
            raise DomainError("sigma must be nonnegative")
        self.sigma = sigma


class ControlledNoise(Value):
    """Common-random-numbers evaluation noise on a 1-d target:
    Z = f(x) + (sigma*psi)*(1 + slope*x) with psi ~ N(0, 1).

    The algorithm owns the seed psi, reusing one draw for both evaluations of
    a two-point query.  With slope = 0 the two-point estimate cancels the
    noise exactly.  A nonzero slope keeps the cancellation of the common
    level but leaves a state-independent residual sigma*psi*slope*u*v in the
    estimate, the constant-variance regime that shrinking delta cannot
    average away.
    """

    kind = "controlled"

    def __init__(self, sigma: float, slope: float = 0.0):
        if not sigma >= 0:  # NaN too
            raise DomainError("sigma must be nonnegative")
        self.sigma, self.slope = sigma, slope


NoiseModel = UncontrolledNoise | ControlledNoise


# ---------------------------------------------------------------------------
# Moments of (U, V), cached per (scheme, d, norm)
# ---------------------------------------------------------------------------

_moment_cache: dict[tuple[str, int, str], dict[str, float]] = {}


def _constant_square_norms(scheme: PerturbationScheme, d: int, norm: Norm) -> Optional[tuple[int, int]]:
    """(|V|*^2, |U|^2) when both are the same for every draw, else None."""
    if scheme.kind == "spsa":
        return (d, d) if norm.kind == "euclidean" else (d * d, 1)
    if norm.kind != "euclidean" and d > 1:
        return None
    if scheme.kind == "rdsa":
        return d, d
    if scheme.kind == "surface":
        return d * d, 1
    return None


def _gaussian_norm_moment(d: int, k: int) -> float:
    """E||z||^k = 2^{k/2} Gamma((d+k)/2) / Gamma(d/2) for z ~ N(0, I_d)."""
    return 2.0 ** (k / 2.0) * math.exp(math.lgamma((d + k) / 2.0) - math.lgamma(d / 2.0))


def scheme_moments(scheme: PerturbationScheme, d: int, norm: Norm = EUCLIDEAN) -> dict[str, float]:
    """E[|V|* |U|^k] moments used by the envelope constants.

    Closed forms: constant-norm schemes, and the Gaussian under the
    Euclidean norm (Nesterov & Spokoiny 2017, Lemma 1), where |V| = |U| =
    ||z||.  Every scheme has them under the Euclidean norm, which
    ``envelope_for`` takes; any other key has none and is a DomainError.
    """
    key = (scheme.kind, d, norm.kind)
    if key in _moment_cache:
        return _moment_cache[key]
    const = _constant_square_norms(scheme, d, norm)
    if const is not None:
        v2, u2 = const  # integers, so each moment below is correctly rounded
        moments = {
            "v_u2": math.sqrt(v2 * u2**2),
            "v2": float(v2),
            "v_u3": math.sqrt(v2 * u2**3),
            "v2_u4": float(v2 * u2**2),
        }
    elif scheme.kind == "sf" and (norm.kind == "euclidean" or d == 1):
        moments = {
            "v_u2": _gaussian_norm_moment(d, 3),
            "v2": float(d),
            "v_u3": float(d * (d + 2)),
            "v2_u4": float(d * (d + 2) * (d + 4)),
        }
    else:
        raise DomainError(f"no closed-form moments for {scheme.kind} at d={d} under the {norm.kind} norm")
    _moment_cache[key] = moments
    return moments


def ball_mean_square_radius(d: int) -> float:
    """E||w||^2 for w uniform in the unit ball: d / (d + 2)."""
    return d / (d + 2.0)


# ---------------------------------------------------------------------------
# Envelope table
# ---------------------------------------------------------------------------


def envelope_for(
    function_class: str,
    noise: NoiseModel,
    feedback: str,
    scheme: PerturbationScheme,
    f: ObjectiveFunction,
) -> OracleEnvelope:
    """Bias/variance envelope of the (class, noise, feedback) cell.

    Unsupported combinations (controlled one-point, surface two-point,
    C^3 constants for functions without a third-derivative bound) raise
    DomainError.

    The two-point c2.  Where both arms stay in the dilated domain (SPSA at
    every d, RDSA at d = 1), |f(x + delta*U) - f(x - delta*U)| <= span and
    the two noises add 2*sigma**2, so Var G <= E|G|^2 <= v2 * (span**2 +
    2*sigma**2) / (4*delta**2).  Controlled noise leaves sigma*psi*slope*(x+ -
    x-) with |x+ - x-| <= 2: 4*sigma**2*slope**2 in place of 2*sigma**2.  c2
    is 16 times that, homogeneous of degree 2 in (f, sigma).  SF, and RDSA at
    d >= 2, probe outside that domain, so there this c2 is not proven.
    """
    if function_class not in FUNCTION_CLASSES:
        raise DomainError(f"unknown function class {function_class!r}")
    if feedback not in ("one_point", "two_point"):
        raise DomainError(f"unknown feedback {feedback!r}")
    m = scheme_moments(scheme, f.dim)
    L = f.smoothness

    if function_class == "c3":
        if f.third_derivative_bound is None:
            raise DomainError(f"{f.name} carries no third-derivative bound")
        c1, p = f.third_derivative_bound / 6.0 * m["v_u3"], 2.0
    elif feedback == "one_point" and scheme.kind == "surface":
        # ball-averaged surrogate: unbiased for the smoothed function
        c1, p = L / 2.0 * ball_mean_square_radius(f.dim), 2.0
    else:
        c1, p = L / 2.0 * m["v_u2"], 1.0

    if isinstance(noise, UncontrolledNoise):
        if feedback == "one_point":
            c2 = 4.0 * m["v2"] * (noise.sigma**2 + f.sup_abs() ** 2)
        else:
            c2 = 4.0 * m["v2"] * (2.0 * noise.sigma**2 + f.span() ** 2)
        q = 2.0
    else:
        if feedback == "one_point":
            raise DomainError("controlled noise requires two-point feedback")
        sigma, slope = noise.sigma, noise.slope
        if function_class == "convex_smooth":
            # b1^2 bounds E_psi |dZ/dx|^2 = f'(x)^2 + (sigma*slope)^2
            b1_sq = f.sup_gradient_dual() ** 2 + sigma**2 * slope**2
            c2 = 2.0 * b1_sq + L**2 / 2.0 * m["v2_u4"]
            q = 0.0
        else:
            # the residual (sigma*psi*slope*(x+ - x-))^2, with |x+ - x-| <= 2 delta <= 2
            c2 = 4.0 * m["v2"] * (4.0 * sigma**2 * slope**2 + f.span() ** 2)
            q = 2.0

    oracle_type = "type_II" if (feedback == "one_point" and scheme.kind == "surface") else "type_I"
    return OracleEnvelope(c1=c1, p=p, c2=c2, q=q, oracle_type=oracle_type)


# ---------------------------------------------------------------------------
# The estimator oracle
# ---------------------------------------------------------------------------


class EstimatorOracle(Oracle):
    """A gradient oracle realized by noisy point evaluations of ``target``,
    with ``feedback`` "one_point" or "two_point"."""

    def __init__(self, target: ObjectiveFunction, scheme: PerturbationScheme, noise: NoiseModel, feedback: str,
                 function_class: str = "convex_smooth"):
        if feedback not in ("one_point", "two_point"):
            raise DomainError(f"unknown feedback {feedback!r}")
        if isinstance(noise, ControlledNoise):
            if feedback == "one_point":
                raise DomainError("controlled noise requires two-point feedback")
            if target.dim != 1:
                raise DomainError("controlled noise is a model of 1-d targets")
        if scheme.kind == "surface" and feedback == "two_point":
            raise DomainError("surface sampling is a one-point construction")
        self.target, self.scheme, self.noise, self.feedback = target, scheme, noise, feedback
        self.function_class = function_class
        # y = x + delta*U stays in the delta-vicinity only for bounded U
        self._eval_point = scheme.u_bound(target.dim) <= 1.0

    @property
    def dim(self) -> int:
        return self.target.dim

    unbiased = True  # E[Y] = x for every scheme here (symmetric U, or Y = x)

    @property
    def vicinity_norm(self) -> Norm:
        """The norm under which ||x - y|| <= delta holds."""
        return self.scheme.vicinity_norm()

    @functools.cached_property
    def envelope(self) -> OracleEnvelope:
        return envelope_for(self.function_class, self.noise, self.feedback, self.scheme, self.target)

    def _noise_shape(self) -> tuple[int, ...]:
        """Noise of one estimate: the evaluation noise of each arm, (1,) for
        one-point and (2, 1) for two-point; controlled noise draws one psi,
        (1, 1), shared by both arms."""
        if self.feedback == "one_point":
            return (1,)
        return (2 if isinstance(self.noise, UncontrolledNoise) else 1, 1)

    def _noise(self, rng: np.random.Generator, shape) -> np.ndarray:
        if isinstance(self.noise, ControlledNoise):
            return rng.standard_normal(shape)  # psi, scaled in ``estimate``
        sig = self.noise.sigma
        return sig * rng.standard_normal(shape) if sig > 0 else np.zeros(shape)

    def _scaled(self, u: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
        """The estimate's direction draws from U (m, d): the probe offsets
        du = delta*U (two-point: +du and -du on an arm axis, (m, 2, d)) and
        the weights w = V over the difference width (delta, or 2*delta)."""
        du, v = delta * u, self.scheme.v_of(u)
        if self.feedback == "one_point":
            return du, v * (1.0 / delta)
        return np.stack((du, -du), axis=1), v * (0.5 / delta)

    # -- the estimate ---------------------------------------------------------

    def estimate(self, x: np.ndarray, delta, du: np.ndarray, w: np.ndarray, xi: np.ndarray):
        """Gradient estimates, evaluation points and the noiseless values of f
        there, at the rows of x (lanes, d).

        The draws come in as arguments, one row per lane: the probe offsets
        du and weights w of ``_scaled``, and the noise xi of
        ``_noise_shape``; delta is already in them.  One-point:
        G = (f(x + du) + xi) * w.  Two-point: G = (Z+ - Z-) * w with
        Z = f(a) + xi at the arms a = x +- du, or, for controlled noise,
        Z = f(a) + (sigma*psi)*(1 + slope*a) with the one psi of xi.  The
        evaluation point is x + du when the scheme keeps ||x - y|| <= delta
        under its vicinity norm, and x itself otherwise.  The values are
        f(y) (lanes, 1), or f at both arms (lanes, 2, 1) for two-point
        feedback; None at x, and under controlled noise, where the regret
        loss evaluates f at y and 2x - y itself, as the lane kernel does.
        """
        f = self.target.value_rows
        if self.feedback == "one_point":
            y = x + du
            fy = f(y)
            return (fy + xi) * w, *((y, fy) if self._eval_point else (x, None))
        arms = x[:, None] + du
        fa = f(arms)
        if isinstance(self.noise, UncontrolledNoise):
            z = fa + xi
        else:
            fa, z = None, fa + (self.noise.sigma * xi) * (1.0 + self.noise.slope * arms)
        return (z[:, 0] - z[:, 1]) * w, *((arms[:, 0], fa) if self._eval_point else (x, None))

    # -- draws at one point (probes) ----------------------------------------

    def _draws(self, delta, m, rng, antithetic):
        """The draws (du, w, xi) of m replies at one point, and None or the
        rows' antithetic mirrors (-du, -w, a second block of noise): all m
        directions, then the noise arm by arm in blocks of m."""
        two_point = self.feedback == "two_point"
        antithetic = antithetic and not two_point
        du, w = self._scaled(self.scheme.sample_u(self.dim, rng, m), delta)
        xi = self._noise(rng, (2 if antithetic else self._noise_shape()[0], m, 1))
        if two_point:
            return (du, w, np.moveaxis(xi, 0, 1)), None
        # the mirror's draws negated block by block, not all at once
        return (du, w, xi[0]), ((lambda rows: (-du[rows], -w[rows], xi[1][rows])) if antithetic else None)

    # -- solver hot path ------------------------------------------------------

    def lane_spec(self):
        """``estimate`` and ``make_stepper`` as the compiled lane kernel
        computes and draws them (``_lanes.LaneSpec``) for a 1-d target: U
        and V as ``PerturbationScheme.sample_u`` and ``v_of`` make them at
        d = 1, weighted as ``_scaled`` weights them, then the noise of
        ``_noise``: sigma*z, zeros for sigma = 0, or the plain psi of
        controlled noise, which the kernel scales by its sigma and slope as
        ``estimate`` does.  The formula data for a target the kernel
        evaluates (``formula_1d``): runs take only the quadratic, probes
        the kinked quadratic and exp too (``KINKED``, ``EXP``); for any
        other the kernel draws but computes no reply.  None for d > 1."""
        from . import _lanes  # imported on first use, not with zograd (see _lanes)
        if self.dim != 1:
            return None
        directions = {"spsa": _lanes.SIGNS, "surface": _lanes.UNIT, "rdsa": _lanes.UNIT, "sf": _lanes.PLAIN}
        flags = directions[self.scheme.kind] | (_lanes.EVAL_POINT if self._eval_point else 0)
        flags |= _lanes.TWO_POINT if self.feedback == "two_point" else 0
        if isinstance(self.noise, UncontrolledNoise):
            sigma = self.noise.sigma
            model, noise = (0.0, 0.0), (lambda delta: sigma) if sigma > 0 else None
        else:
            # psi unscaled: 1.0*z is z, bit for bit
            model = (float(self.noise.sigma), float(self.noise.slope))
            flags, noise = flags | _lanes.CONTROLLED, lambda delta: 1.0
        formula, data = self.target.formula_1d, None
        if formula is not None:  # the coefficients, padded to three
            flags |= {"quadratic": 0, "kinked": _lanes.KINKED, "exp": _lanes.EXP}[formula[0]]
            data = (*(*formula[1:], 0.0, 0.0, 0.0)[:3], *model)
        return _lanes.LaneSpec(flags, data, 1.0 if self.feedback == "one_point" else 0.5, noise)

    def make_stepper(self, n: int, delta: float, rng: np.random.Generator):
        """The draws of n solver steps, in chunks of ``(du, w, xi)``.

        The directions U are ``scheme.sample_u`` on rng; the noise reads a
        twin of rng jumped once from its state here (``core.draw_chunks``).
        No chunk is held once handed out.
        """
        d, shape = self.dim, self._noise_shape()
        blocks = (lambda g, m: self.scheme.sample_u(d, g, m), lambda g, m: self._noise(g, (m, *shape)))
        return map(lambda chunk: (*self._scaled(chunk[0], delta), chunk[1]), draw_chunks(rng, n, blocks))


class ExactGradientOracle(Oracle):
    """Noise- and bias-free reference oracle: G = grad f(x), Y = x."""

    def __init__(self, target: ObjectiveFunction):
        self.target = target

    @property
    def dim(self) -> int:
        return self.target.dim

    unbiased = True

    @property
    def envelope(self) -> OracleEnvelope:
        return OracleEnvelope(c1=0.0, p=1.0, c2=0.0, q=0.0)

    def estimate(self, x: np.ndarray, delta):
        """True gradients at the rows of x; the evaluation point is x, where
        f is not evaluated."""
        return self.target.gradient(x), x, None

    def lane_spec(self):
        """``estimate`` as the compiled lane kernel computes it
        (``_lanes.LaneSpec``) for an arm of a hard pair, with no draws;
        None for any other target."""
        from . import _lanes
        arm = self.target.hard_pair_arm
        if arm is None:
            return None
        family, v, eps = arm
        return _lanes.LaneSpec(_lanes.AT_X | (_lanes.SOFTABS if family == "softabs" else 0), (v, eps))

    def make_stepper(self, n: int, delta: float, rng: np.random.Generator):
        return draw_chunks(rng, n, ())

