"""Objective functions with exact gradients and their constrained minimizers.

Every function's domain is a box, evaluable dilated by ``MARGIN`` so that
estimators probing ``x + delta*u`` with ``delta <= 1`` stay inside.  A
function's dimension is its domain's; the 1-d families take intervals only.  Values
and gradients are numpy-vectorized: 1-d functions act elementwise on arrays
of any shape, d-dimensional ones on the last axis of a stack of points, so
the solver evaluates all of its lanes in one call.

Each family states its minimizer over a box once, as ``argmin``; x* is the
one over the domain, so it lies in the domain, and f* is f there.  Every f
is a sum of convex functions of one coordinate each, so its sups over the
domain are closed forms, and the envelopes read them exactly.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Box, DomainError, EUCLIDEAN, interval

# delta <= 1 and ||u|| <= 1 keep every probe x + delta*u inside the domain dilated by this
MARGIN = 1.0


class ObjectiveFunction:
    """An evaluatable convex objective with exact gradient and its minimizer.

    ``smoothness`` and ``strong_convexity`` are the usual Euclidean constants
    (gradient Lipschitz constant L, curvature lower bound mu).  For 1-d
    functions ``value``/``gradient`` broadcast over numpy arrays; for d > 1
    they map points (..., d) to values (...) and gradients (..., d).

    ``argmin(box)`` is the minimizer of f over ``box``; ``x_star`` is the
    one over the domain and ``f_star`` f there.  f must be a sum of convex
    functions of one coordinate each: only then are the sups below, closed
    forms over the domain box, exact.
    """

    def __init__(self, name: str, domain: Box, smoothness: float, strong_convexity: float,
                 value: Callable, gradient: Callable, argmin: Callable[[Box], np.ndarray],
                 third_derivative_bound: Optional[float] = None,
                 formula_1d: Optional[tuple] = None,
                 hard_pair_arm: Optional[tuple[str, float, float]] = None):
        # the domain's dimension, kept as an attribute: value_rows reads it at every step
        self.name, self.domain, self.dim = name, domain, domain.dim
        self.smoothness, self.strong_convexity = smoothness, strong_convexity
        self.value, self.gradient, self.argmin = value, gradient, argmin
        self.x_star = np.asarray(argmin(domain), dtype=float)
        self.f_star = float(self.value_rows(self.x_star[None])[0, 0])
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

    # -- sups over the domain (envelope bookkeeping) ------------------------

    def _extremes(self) -> tuple[float, float]:
        """(sup f, inf f) over the dilated domain: f at the corner that takes
        each coordinate's larger end, which 2d values along the axes through
        the center pick, and f at ``argmin``."""
        box, d = self.domain.dilate(MARGIN), self.dim
        ends = np.tile(box.center, (2, d, 1))
        ends[0, range(d), range(d)], ends[1, range(d), range(d)] = box.lower, box.upper
        at_end = self.value_rows(ends.reshape(2 * d, d)).reshape(2, d)
        corner = np.where(at_end[1] > at_end[0], box.upper, box.lower)
        top, bottom = self.value_rows(np.stack([corner, self.argmin(box)]))[:, 0]
        return float(top), float(bottom)

    def sup_abs(self) -> float:
        """sup |f| over the dilated domain box, at the max or the min of f."""
        top, bottom = self._extremes()
        return max(abs(top), abs(bottom))

    def span(self) -> float:
        """sup f - inf f over the dilated domain box."""
        top, bottom = self._extremes()
        return top - bottom

    def sup_gradient_dual(self) -> float:
        """sup ||grad f||_2 over the domain box (the Euclidean norm is its own
        dual); each component peaks in size at ``lower`` or ``upper``."""
        box = self.domain
        g = np.abs(np.asarray(self.gradient(np.stack([box.lower, box.upper])), dtype=float))
        return EUCLIDEAN.value(np.max(g, axis=0))

# ---------------------------------------------------------------------------
# 1-d families
# ---------------------------------------------------------------------------


def _interval_domain(domain: Box | None) -> Box:
    """The domain of a 1-d family: ``domain``, [-1, 1] where it is None;
    a box of another dimension is a DomainError."""
    dom = domain if domain is not None else interval(-1.0, 1.0)
    if dom.dim != 1:
        raise DomainError(f"a 1-d function needs an interval, got a box of dimension {dom.dim}")
    return dom


def softabs(v: int, eps: float, domain: Box | None = None) -> ObjectiveFunction:
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
        argmin=lambda box: box.project(np.array([vf])),
        third_derivative_bound=1.0 / (3.0 * math.sqrt(3.0) * e),
        hard_pair_arm=("softabs", vf, e),
    )


def strongly_convex_pair(v: int, eps: float, domain: Box | None = None) -> ObjectiveFunction:
    """Unit-curvature parabola with minimizer nudged to ``v*eps``:
    f(x) = x^2/2 - v*eps*x, f* = -eps^2/2.  The minimizer must lie in the
    domain: the pair's separation and the lower bound's floor are computed
    from the arms' unconstrained minimizers +-eps and their gap eps^2/2."""
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
        argmin=lambda box: box.project(np.array([ve])),
        third_derivative_bound=0.0,
        hard_pair_arm=("strongly_convex", float(v), float(eps)),
    )


def kinked_quadratic(
    a_neg: float = 0.5, a_pos: float = 1.5, domain: Box | None = None
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
        argmin=lambda box: box.project(np.zeros(1)),
        third_derivative_bound=None,
        formula_1d=("kinked", an, ap),
    )


def exp_one_d(domain: Box | None = None) -> ObjectiveFunction:
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
        argmin=lambda box: box.project(np.zeros(1)),
        third_derivative_bound=math.exp(hi),
        formula_1d=("exp",),
    )


# ---------------------------------------------------------------------------
# d-dimensional families
# ---------------------------------------------------------------------------


def quadratic(
    a: Sequence[float],
    b: Sequence[float] | None = None,
    domain: Box | None = None,
    offset: float = 0.0,
) -> ObjectiveFunction:
    """Diagonal quadratic f(x) = sum a_i x_i^2 / 2 + b.x + offset with
    L = max a_i and mu = min a_i; its minimizer over a box is found
    coordinate by coordinate, exactly, by separability.

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

    return ObjectiveFunction(
        name=f"quadratic(d={d})",
        domain=dom,
        smoothness=float(np.max(a)),
        strong_convexity=float(np.min(a)),
        value=value,
        gradient=grad,
        argmin=lambda box: _quadratic_minimizer(a, bvec, box),
        third_derivative_bound=0.0,
        formula_1d=("quadratic", float(ca), float(cb), float(cc)) if d == 1 else None,
    )


def _quadratic_minimizer(a: np.ndarray, b: np.ndarray, box: Box) -> np.ndarray:
    # each coordinate's vertex; a linear one runs to the end its slope falls toward, a flat one to the center
    curved = a > 0
    linear = np.where(b > 0, box.lower, np.where(b < 0, box.upper, box.center))
    return box.project(np.where(curved, -b / np.where(curved, a, 1.0), linear))


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
        if c.dim != 1:
            raise DomainError("separable components must be 1-d")
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
    # over a box, each coordinate is its component's problem
    argmin = lambda box: np.array([c.argmin(interval(lo, hi))[0] for c, lo, hi in zip(comps, box.lower, box.upper)])
    return ObjectiveFunction(
        name=f"separable[{','.join(c.name for c in comps)}]",
        domain=dom,
        smoothness=max(c.smoothness for c in comps),
        strong_convexity=min(c.strong_convexity for c in comps),
        value=value if one is None else one.value,
        gradient=grad if one is None else one.gradient,
        argmin=argmin if one is None else one.argmin,
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
    box = f.domain
    x = box.lower + rng.random((samples, f.dim)) * (box.upper - box.lower)
    g = np.asarray(f.gradient(x), dtype=float)
    fd, h = np.empty_like(g), np.eye(f.dim) * step
    for i in range(f.dim):
        plus, minus = f.value_rows(np.stack([x + h[i], x - h[i]]))
        fd[:, i] = (plus - minus)[:, 0] / (2.0 * step)
    # each row's norm by BLAS's dot, as np.linalg.norm takes one vector's
    norm = lambda v: np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0, 0]
    return float(np.max(norm(fd - g) / np.maximum(norm(g), 1.0), initial=0.0))
