"""Objective functions with exact gradients and known optima.

Every function is evaluable on its domain dilated by ``MARGIN`` so that
estimators probing ``x + delta*u`` with ``delta <= 1`` stay inside.  A
function's dimension is its domain's; the 1-d families take intervals only.  Values
and gradients are numpy-vectorized: 1-d functions act elementwise on arrays
of any shape, d-dimensional ones on the last axis of a stack of points, so
the solver evaluates all of its lanes in one call.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Box, ConvexBody, DomainError, EUCLIDEAN, interval

# delta <= 1 and ||u|| <= 1 keep every probe x + delta*u inside the domain dilated by this
MARGIN = 1.0


class ObjectiveFunction:
    """An evaluatable convex objective with exact gradient and known optimum.

    ``smoothness`` and ``strong_convexity`` are the usual Euclidean constants
    (gradient Lipschitz constant L, curvature lower bound mu).  For 1-d
    functions ``value``/``gradient`` broadcast over numpy arrays; for d > 1
    they map points (..., d) to values (...) and gradients (..., d).
    """

    def __init__(self, name: str, domain: ConvexBody, smoothness: float, strong_convexity: float,
                 value: Callable, gradient: Callable, f_star: float, x_star: Optional[np.ndarray],
                 third_derivative_bound: Optional[float] = None,
                 formula_1d: Optional[tuple] = None,
                 hard_pair_arm: Optional[tuple[str, float, float]] = None):
        # the domain's dimension, kept as an attribute: value_rows reads it at every step
        self.name, self.domain, self.dim = name, domain, domain.dim
        self.smoothness, self.strong_convexity = smoothness, strong_convexity
        self.value, self.gradient, self.f_star, self.x_star = value, gradient, f_star, x_star
        self.third_derivative_bound = third_derivative_bound
        # the value of a 1-d family as the compiled lane kernel evaluates it, in
        # the same order: ("quadratic", ca, cb, cc) for (ca*x + cb)*x + cc,
        # ("kinked", a_neg, a_pos) for 0.5*a*x*x, or ("exp",) for exp(x) - x
        self.formula_1d = formula_1d
        # (family, v, eps) of arm v of a hard pair, family "softabs" or
        # "strongly_convex"; the compiled lane kernel computes the gradient from these
        self.hard_pair_arm = hard_pair_arm

    def gradient_at(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.dim == 1:
            g = self.gradient(float(x.reshape(()) if x.ndim == 0 else x[0]))
            return np.array([float(g)])
        return np.asarray(self.gradient(x), dtype=float)

    def value_rows(self, x: np.ndarray) -> np.ndarray:
        """f at each row of x (lanes, d), as a column (lanes, 1)."""
        return self.value(x) if self.dim == 1 else self.value(x)[..., None]

    # -- sups over the dilated domain (envelope bookkeeping) ----------------

    def _search_points(self, dilated: bool) -> np.ndarray:
        n_random = 100_000  # points of the random search over a d > 2 box or a ball
        body = self.domain.dilate(MARGIN) if dilated and isinstance(self.domain, Box) else self.domain
        if isinstance(body, Box):
            if self.dim == 1:
                return np.linspace(body.lower[0], body.upper[0], 10_000)
            if self.dim == 2:
                side = np.linspace(0.0, 1.0, 300)
                g1, g2 = np.meshgrid(
                    body.lower[0] + side * (body.upper[0] - body.lower[0]),
                    body.lower[1] + side * (body.upper[1] - body.lower[1]),
                )
                return np.stack([g1.ravel(), g2.ravel()], axis=1)
            rng = np.random.default_rng(711)
            u = rng.random((n_random, self.dim))
            return body.lower + u * (body.upper - body.lower)
        # ball: random directions at random radii (plus the center)
        rng = np.random.default_rng(711)
        z = rng.standard_normal((n_random, self.dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        r = body.radius * rng.random((n_random, 1)) ** (1.0 / self.dim)
        return body.center + z * r

    def sup_abs(self) -> float:
        """sup |f| over the dilated domain (grid / random search)."""
        vals = np.asarray(self.value(self._search_points(dilated=True)), dtype=float)
        return float(np.max(np.abs(vals)))

    def span(self) -> float:
        """sup f - inf f over the dilated domain."""
        vals = np.asarray(self.value(self._search_points(dilated=True)), dtype=float)
        return float(np.max(vals) - np.min(vals))

    def sup_gradient_dual(self) -> float:
        """sup ||grad f||_2 over the domain (the Euclidean norm is its own dual)."""
        g = np.asarray(self.gradient(self._search_points(dilated=False)), dtype=float)
        if self.dim == 1:
            return float(np.max(np.abs(g)))
        return float(np.max(EUCLIDEAN.rows(g)))

# ---------------------------------------------------------------------------
# 1-d families
# ---------------------------------------------------------------------------


def _interval_domain(domain: ConvexBody | None) -> Box:
    """The domain of a 1-d family: ``domain``, [-1, 1] where it is None;
    any other body than an interval is a DomainError."""
    dom = domain if domain is not None else interval(-1.0, 1.0)
    if not isinstance(dom, Box) or dom.dim != 1:
        raise DomainError(f"a 1-d function needs an interval, got a {type(dom).__name__.lower()} of dimension "
                          f"{dom.dim}")
    return dom


def softabs(v: int, eps: float, domain: ConvexBody | None = None) -> ObjectiveFunction:
    """Smooth surrogate of ``eps*|x - v|`` with curvature capped at 1/2.

    f(x) = eps*(x - v) + 2*eps^2*log(1 + exp(-(x - v)/eps)), minimized at
    x = v with value 2*eps^2*log(2).  The gradient is eps*tanh((x-v)/(2*eps)),
    so |f'| < eps and 0 <= f'' <= 1/2 everywhere.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    if v not in (+1, -1):
        raise DomainError("v must be +1 or -1")
    dom = _interval_domain(domain)
    e = float(eps)
    vf = float(v)

    def value(x):
        u = (np.asarray(x, dtype=float) - vf) / e
        return e * (x - vf) + 2.0 * e * e * np.logaddexp(0.0, -u)

    def grad(x):
        return e * np.tanh((np.asarray(x, dtype=float) - vf) * (0.5 / e))

    return ObjectiveFunction(
        name=f"softabs(v={v:+d},eps={eps})",
        domain=dom,
        smoothness=0.5,
        strong_convexity=0.0,
        value=value,
        gradient=grad,
        f_star=2.0 * e * e * math.log(2.0),
        x_star=np.array([vf]),
        third_derivative_bound=1.0 / (3.0 * math.sqrt(3.0) * e),
        hard_pair_arm=("softabs", vf, e),
    )


def strongly_convex_pair(v: int, eps: float, domain: ConvexBody | None = None) -> ObjectiveFunction:
    """Unit-curvature parabola with minimizer nudged to ``v*eps``:
    f(x) = x^2/2 - v*eps*x, f* = -eps^2/2.  The minimizer must lie in the
    domain, or f* and x* would not be the constrained ones."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    if v not in (+1, -1):
        raise DomainError("v must be +1 or -1")
    dom = _interval_domain(domain)
    ve = float(v) * float(eps)
    if not dom.contains(np.array([ve]), tol=0.0):
        raise DomainError(f"the minimizer v*eps = {ve:.4g} of the strongly convex pair lies outside its domain")

    return ObjectiveFunction(
        name=f"sc_pair(v={v:+d},eps={eps})",
        domain=dom,
        smoothness=1.0,
        strong_convexity=1.0,
        value=lambda x: 0.5 * np.asarray(x, dtype=float) ** 2 - ve * np.asarray(x, dtype=float),
        gradient=lambda x: np.asarray(x, dtype=float) - ve,
        f_star=-0.5 * ve * ve,
        x_star=np.array([ve]),
        third_derivative_bound=0.0,
        hard_pair_arm=("strongly_convex", float(v), float(eps)),
    )


def kinked_quadratic(
    a_neg: float = 0.5, a_pos: float = 1.5, domain: ConvexBody | None = None
) -> ObjectiveFunction:
    """Strictly convex, L-smooth, but not C^2: curvature jumps at the origin.

    f(x) = a(x)*x^2/2 with a(x) = a_neg for x < 0 and a_pos otherwise.  The
    gradient a(x)*x is continuous and Lipschitz; the one-sided curvatures
    differ, which is what gives single-evaluation estimators their
    first-order bias at the kink.
    """
    if a_neg <= 0 or a_pos <= 0:
        raise DomainError("curvatures must be positive")
    dom = _interval_domain(domain)
    an, ap = float(a_neg), float(a_pos)

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.where(x < 0, an, ap) * x * x

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, an, ap) * x

    return ObjectiveFunction(
        name=f"kinked({a_neg},{a_pos})",
        domain=dom,
        smoothness=max(an, ap),
        strong_convexity=min(an, ap),
        value=value,
        gradient=grad,
        f_star=0.0,
        x_star=np.array([0.0]),
        third_derivative_bound=None,
        formula_1d=("kinked", an, ap),
    )


def exp_one_d(domain: ConvexBody | None = None) -> ObjectiveFunction:
    """f(x) = exp(x) - x: strictly convex, C^infinity, nonvanishing third
    derivative (the workhorse for quadratic-bias slope measurements)."""
    dom = _interval_domain(domain)
    hi = dom.upper[0] + MARGIN
    lo = dom.lower[0] - MARGIN

    return ObjectiveFunction(
        name="exp_minus_linear",
        domain=dom,
        smoothness=math.exp(hi),
        strong_convexity=math.exp(lo),
        value=lambda x: np.exp(np.asarray(x, dtype=float)) - np.asarray(x, dtype=float),
        gradient=lambda x: np.exp(np.asarray(x, dtype=float)) - 1.0,
        f_star=1.0,
        x_star=np.array([0.0]),
        third_derivative_bound=math.exp(hi),
        formula_1d=("exp",),
    )


# ---------------------------------------------------------------------------
# d-dimensional families
# ---------------------------------------------------------------------------


def quadratic(
    a: Sequence[float],
    b: Sequence[float] | None = None,
    domain: ConvexBody | None = None,
    offset: float = 0.0,
) -> ObjectiveFunction:
    """Diagonal quadratic f(x) = sum a_i x_i^2 / 2 + b.x + offset with
    L = max a_i and mu = min a_i; the minimizer is the unconstrained vertex
    projected into the domain (exact for boxes by separability).

    The constant offset does not move gradients or errors, but it does set
    the absolute evaluation level that single-evaluation estimators divide
    by delta, so it is part of the instance.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if np.any(a < 0):
        raise DomainError("curvatures must be nonnegative")
    d = a.size
    bvec = np.zeros(d) if b is None else np.atleast_1d(np.asarray(b, dtype=float))
    if bvec.size != d:
        raise DomainError("b must match the dimension of a")
    dom = domain if domain is not None else Box(-np.ones(d), np.ones(d))
    if dom.dim != d:
        raise DomainError("domain dimension mismatch")
    c0 = float(offset)

    if d == 1:
        a0, b0 = float(a[0]), float(bvec[0])
        # 0-d array coefficients: numpy multiplies those into an array
        # faster than Python floats, and the solver evaluates f every step
        ca, cb, cc = np.array(0.5 * a0), np.array(b0), np.array(c0)

        def value(x):
            x = np.asarray(x, dtype=float)
            return (ca * x + cb) * x + cc

        grad = lambda x: a0 * np.asarray(x, dtype=float) + b0
    else:
        value = lambda x: 0.5 * np.sum(a * x * x, axis=-1) + np.sum(bvec * x, axis=-1) + c0
        grad = lambda x: a * np.asarray(x, dtype=float) + bvec

    x_star = _quadratic_minimizer(a, bvec, dom)
    if d == 1:
        f_star = float(value(float(x_star[0])))
    else:
        f_star = float(value(x_star))
    return ObjectiveFunction(
        name=f"quadratic(d={d})",
        domain=dom,
        smoothness=float(np.max(a)),
        strong_convexity=float(np.min(a)),
        value=value,
        gradient=grad,
        f_star=f_star,
        x_star=x_star,
        third_derivative_bound=0.0,
        formula_1d=("quadratic", float(ca), float(cb), float(cc)) if d == 1 else None,
    )


def _quadratic_minimizer(a: np.ndarray, b: np.ndarray, dom: ConvexBody) -> np.ndarray:
    if isinstance(dom, Box):
        x = np.empty_like(a)
        for i in range(a.size):
            if a[i] > 0:
                x[i] = -b[i] / a[i]
            elif b[i] > 0:
                x[i] = dom.lower[i]
            elif b[i] < 0:
                x[i] = dom.upper[i]
            else:
                x[i] = dom.center[i]
        return dom.project(x)
    if np.all(a == a[0]) and a[0] > 0:
        return dom.project(-b / a[0])
    # ball with nonuniform curvature: deterministic projected-gradient refine
    lam = float(np.max(a)) if np.max(a) > 0 else 1.0
    x = dom.project(np.zeros_like(a))
    for _ in range(100_000):
        x_new = dom.project(x - (a * x + b) / lam)
        if float(np.max(np.abs(x_new - x))) < 1e-15:
            return x_new
        x = x_new
    return x


def separable(components: Sequence[ObjectiveFunction]) -> ObjectiveFunction:
    """Coordinatewise sum of 1-d objectives: diagonal Hessian, so the smooth
    and strongly-convex constants are the max/min of the components'.  Of
    one component it is that component: a 1-d objective is evaluated
    elementwise, keeping the coordinate axis, and the lane kernel's forms
    of it hold."""
    comps = list(components)
    if not comps:
        raise DomainError("separable needs at least one component")
    for c in comps:
        if c.dim != 1 or not isinstance(c.domain, Box):
            raise DomainError("separable components must be 1-d with interval domains")
    d = len(comps)
    lower = np.array([c.domain.lower[0] for c in comps])
    upper = np.array([c.domain.upper[0] for c in comps])
    dom = Box(lower, upper)

    def value(x):
        x = np.asarray(x, dtype=float)
        return sum(c.value(x[..., i]) for i, c in enumerate(comps))

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.stack([c.gradient(x[..., i]) for i, c in enumerate(comps)], axis=-1)

    one = comps[0] if d == 1 else None
    b3s = [c.third_derivative_bound for c in comps]
    x_stars = [c.x_star for c in comps]
    return ObjectiveFunction(
        name=f"separable[{','.join(c.name for c in comps)}]",
        domain=dom,
        smoothness=max(c.smoothness for c in comps),
        strong_convexity=min(c.strong_convexity for c in comps),
        value=value if one is None else one.value,
        gradient=grad if one is None else one.gradient,
        f_star=float(sum(c.f_star for c in comps)),
        x_star=None if any(x is None for x in x_stars) else np.array([float(x[0]) for x in x_stars]),
        third_derivative_bound=None if any(v is None for v in b3s) else max(b3s),
        formula_1d=None if one is None else one.formula_1d,
        hard_pair_arm=None if one is None else one.hard_pair_arm,
    )


# ---------------------------------------------------------------------------
# Gradient validation
# ---------------------------------------------------------------------------


def finite_diff_check(
    f: ObjectiveFunction,
    samples: int,
    rng: np.random.Generator,
    step: float = 1e-5,
) -> float:
    """Worst relative error of the exact gradient against central differences
    at random interior points, NaN where any point's is NaN; denominators
    fall back to 1 for flat regions.
    The points are drawn as one at a time would draw them and evaluated as
    rows (samples, d): the gradient once, f on both sides once per coordinate."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    body = f.domain
    if isinstance(body, Box):
        x = body.lower + rng.random((samples, f.dim)) * (body.upper - body.lower)
    else:  # a ball's points one at a time: d normals, then one uniform
        x = np.empty((samples, f.dim))
        for k in range(samples):
            z = rng.standard_normal(f.dim)
            x[k] = body.center + body.radius * rng.random() ** (1.0 / f.dim) * (z / np.linalg.norm(z))
    g = np.asarray(f.gradient(x), dtype=float)
    fd, h = np.empty_like(g), np.eye(f.dim) * step
    for i in range(f.dim):
        plus, minus = f.value_rows(np.stack([x + h[i], x - h[i]]))
        fd[:, i] = (plus - minus)[:, 0] / (2.0 * step)
    # each row's norm by BLAS's dot, as np.linalg.norm takes one vector's
    norm = lambda v: np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0, 0]
    return float(np.max(norm(fd - g) / np.maximum(norm(g), 1.0), initial=0.0))
