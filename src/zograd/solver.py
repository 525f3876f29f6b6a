"""Mirror descent against a biased noisy gradient oracle, with the tuned
tolerance/step-size schedules for all four regimes: optimization or regret,
convex or strongly convex.

The feasible set K is the target's domain and the regularizer is
R = ||x||^2 / 2, so the update is projected gradient descent:
X_{t+1} = project(X_t - eta_t * G_t).  The schedule constructors take the
envelope (p, q, C1, C2), the divergence diameter D of K
(``divergence_diameter``), the strong-convexity scale alpha of the
regularizer bookkeeping, and the horizon n, and return the closed-form
(delta, eta_t) pair.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import (
    STEPS_PER_CHUNK,
    Ball,
    Box,
    ConvexBody,
    DomainError,
    Norm,
    Value,
    chunk_sizes,
    vicinity_tolerance,
)

_DELTA_FLOOR = 1e-9
_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# The squared-Euclidean regularizer R = ||x||^2 / 2
# ---------------------------------------------------------------------------


def divergence_diameter(body: ConvexBody) -> float:
    """sup_{x,y in K} D(x, y), half the squared diameter of the body: the
    D the schedules take."""
    if isinstance(body, Box):
        side = body.upper - body.lower
        return 0.5 * float(np.dot(side, side))
    if isinstance(body, Ball):
        return 2.0 * body.radius**2
    raise DomainError(f"unsupported body {type(body)!r}")


def prox_inequality_gap(x_t: np.ndarray, g_t: np.ndarray, eta_t: float, x_next: np.ndarray,
                        probes: np.ndarray) -> float:
    """max over probe points x (the rows of ``probes``, (k, d)) of
        <g, x_next - x> - (D(x, x_t) - D(x, x_next) - D(x_next, x_t)) / eta;
    nonpositive (up to roundoff) whenever x_next is the prox point.  Steps stack
    on a leading axis, x_t, g_t, x_next (s, 1, d) and eta_t (s, 1), as a recorded
    run's xs[:-1, None], gs[:, None], etas[:, None], xs[1:, None]: max over all."""
    def D(x, y):  # ||x - y||^2 / 2, one value per row
        diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return 0.5 * np.sum(diff * diff, axis=-1)

    probes = np.asarray(probes, dtype=float)
    lhs = np.sum(np.asarray(g_t, dtype=float) * (x_next - probes), axis=-1)
    rhs = (D(probes, x_t) - D(probes, x_next) - D(x_next, x_t)) / eta_t
    return float(np.max(lhs - rhs))


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


class Schedule(Value):
    """A tolerance delta plus a step-size rule, the ``params`` it was
    derived from (none by default) and ``notes`` on its derivation.

    ``eta_form`` is one of
      ("poly", a, r, L, alpha)  ->  eta_t = alpha / (a * t**r + L)
      ("inv_t", mu)             ->  eta_t = 2 / (mu * t)
      ("const", c)              ->  eta_t = c
    """

    def __init__(self, mode: str, delta: float, eta_form: tuple, params: Optional[dict] = None,
                 notes: tuple[str, ...] = ()):
        if not (0.0 < delta <= 1.0):
            raise DomainError(f"schedule delta must be in (0, 1], got {delta}")
        self.mode, self.delta, self.eta_form = mode, delta, eta_form
        self.params, self.notes = {} if params is None else params, notes

    def eta_array(self, n: int, start: int = 1) -> np.ndarray:
        """eta_start .. eta_{n-1} as one vector; each entry is the same for
        every start."""
        t = np.arange(start, max(n, start), dtype=float)
        kind = self.eta_form[0]
        if kind == "poly":
            _, a, r, L, alpha = self.eta_form
            return alpha / (a * t**r + L)
        if kind == "inv_t":
            return 2.0 / (self.eta_form[1] * t)
        return np.full(t.shape, self.eta_form[1])


def manual_schedule(delta: float, eta_form: tuple) -> Schedule:
    return Schedule(mode="manual", delta=delta, eta_form=eta_form)


def _clamp_delta(delta: float, notes: list[str]) -> float:
    if not math.isfinite(delta) or delta <= 0.0:
        notes.append(f"delta {delta} floored to {_DELTA_FLOOR}")
        return _DELTA_FLOOR
    if delta > 1.0:
        notes.append(f"delta {delta:.6g} clamped to 1.0")
        return 1.0
    return delta


def schedule_opt_convex(
    p: float,
    q: float,
    c1: float,
    c2: float,
    D: float,
    alpha: float,
    L: float,
    n: int,
    oracle_type: str = "type_I",
) -> Schedule:
    """Tuned schedule for smooth convex optimization: eta_t = alpha/(a t^r + L)
    with r = (p+q)/(2p+q) and the (a, delta) pair balancing the bias, step and
    variance terms of the error bound."""
    if min(p, D, alpha, L) <= 0 or q < 0 or n < 1 or c1 < 0 or c2 < 0:
        raise DomainError("schedule inputs must be positive (c1, c2 nonnegative)")
    notes: list[str] = []
    two_pq = 2.0 * p + q
    r = (p + q) / two_pq

    if c1 == 0.0 and c2 == 0.0:
        a, delta = 0.0, 1.0
        notes.append("exact oracle: constant step alpha/L")
    elif c2 == 0.0:
        a = 0.0
        delta = _clamp_delta(0.0, notes)  # bias-only: drive delta down
    elif c1 == 0.0:
        # no bias: delta = 1 minimizes variance; balance step vs variance terms
        delta = 1.0
        a = math.sqrt(alpha * c2 / (2.0 * (1.0 - r) * D)) * n ** ((1.0 - 2.0 * r) / 2.0)
        notes.append("unbiased oracle: delta pinned at 1")
    elif oracle_type == "type_I":
        a = (
            2.0 ** (q / (2.0 * two_pq))
            * (two_pq / (2.0 * p)) ** (p / two_pq)
            * D**-0.5
            * c1 ** (q / two_pq)
            * c2 ** (p / two_pq)
        )
        delta = _clamp_delta(
            alpha ** (1.0 / (2.0 * (p + q)))
            * (two_pq / (4.0 * p)) ** (1.0 / two_pq)
            * c1 ** (-2.0 / two_pq)
            * c2 ** (1.0 / two_pq)
            * n ** (-1.0 / two_pq),
            notes,
        )
    elif oracle_type == "type_II":
        lead = 2.0 + 2.0 / n
        a = (
            lead ** (q / two_pq)
            * (two_pq / (2.0 * p)) ** (p / two_pq)
            * (D / alpha) ** (-(p + q) / two_pq)
            * c1 ** (q / two_pq)
            * c2 ** (p / two_pq)
        )
        delta = _clamp_delta(
            lead ** (-2.0 / two_pq)
            * (two_pq / (2.0 * p)) ** (1.0 / two_pq)
            * (D / alpha) ** (1.0 / two_pq)
            * c1 ** (-2.0 / two_pq)
            * c2 ** (1.0 / two_pq)
            * n ** (-1.0 / two_pq),
            notes,
        )
    else:
        raise DomainError(f"unknown oracle type {oracle_type!r}")

    return Schedule(
        mode="opt_convex",
        delta=delta,
        eta_form=("poly", a, r, L, alpha),
        params={"p": p, "q": q, "c1": c1, "c2": c2, "D": D, "alpha": alpha, "L": L, "n": n,
                "r": r, "a": a, "oracle_type": oracle_type},
        notes=tuple(notes),
    )


def schedule_opt_sc(
    p: float,
    q: float,
    c1: float,
    c2: float,
    D: float,
    alpha: float,
    mu: float,
    L: float,
    n: int,
    oracle_type: str = "type_I",
) -> Schedule:
    """Strongly convex optimization schedule: eta_t = 2/(mu t), requiring
    alpha*mu > 2L so the per-step bookkeeping a_t = alpha*mu*t/2 - L stays
    positive from t = 1."""
    if min(p, D, alpha, mu, L) <= 0 or q < 0 or n < 1 or c1 < 0 or c2 < 0:
        raise DomainError("schedule inputs must be positive (c1, c2 nonnegative)")
    if alpha * mu <= 2.0 * L:
        raise DomainError(f"need alpha*mu > 2L, got alpha*mu={alpha * mu} vs 2L={2 * L}")
    notes: list[str] = []
    log_factor = math.log(n) + 1.0 + alpha * mu / (alpha * mu - 2.0 * L)
    if c1 == 0.0:
        delta = 1.0 if c2 > 0 else _DELTA_FLOOR
        notes.append("degenerate bias coefficient: delta pinned")
    elif oracle_type == "type_I":
        delta = _clamp_delta(
            (c2 * log_factor / (math.sqrt(2.0 * D * alpha) * mu * c1 * n)) ** (1.0 / (p + q)),
            notes,
        )
    elif oracle_type == "type_II":
        delta = _clamp_delta(
            (c2 * log_factor / (2.0 * alpha * mu * c1 * (n + 1.0))) ** (1.0 / (p + q)),
            notes,
        )
    else:
        raise DomainError(f"unknown oracle type {oracle_type!r}")
    return Schedule(
        mode="opt_sc",
        delta=delta,
        eta_form=("inv_t", mu),
        params={"p": p, "q": q, "c1": c1, "c2": c2, "D": D, "alpha": alpha, "mu": mu,
                "L": L, "n": n, "oracle_type": oracle_type},
        notes=tuple(notes),
    )


def regret_bias_coefficient(p: float, c1: float, L: float, oracle_type: str, r_sup: float) -> float:
    """Coefficient of the dominating delta-power in the regret bound: the
    declared bias C1 (scaled by sup||x|| for type-I) while p <= 2, plus the
    L/4 vicinity-loss term once p >= 2."""
    coeff = 0.0
    if p <= 2.0:
        coeff += (r_sup * c1) if oracle_type == "type_I" else c1
    if p >= 2.0:
        coeff += L / 4.0
    return coeff


def schedule_regret(
    p: float,
    q: float,
    c1: float,
    c2: float,
    D: float,
    alpha: float,
    L: float,
    mu: float,
    n: int,
    oracle_type: str = "type_II",
    r_sup: float = 1.0,
    strongly_convex: bool = False,
) -> Schedule:
    """Regret schedules: constant eta for the convex case, eta_t = 2/(mu t)
    for the strongly convex case, with delta tuned against the capped bias
    exponent p_hat = min(p, 2)."""
    if min(p, D, alpha, L) <= 0 or q < 0 or n < 1 or c1 < 0 or c2 <= 0:
        raise DomainError("schedule inputs must be positive (c1 nonnegative)")
    notes: list[str] = []
    p_hat = min(p, 2.0)
    c1_hat = regret_bias_coefficient(p, c1, L, oracle_type, r_sup)
    if strongly_convex:
        if mu <= 0:
            raise DomainError("strongly convex regret requires mu > 0")
        if q == 0.0:
            delta = _clamp_delta(0.0, notes)
        else:
            delta = _clamp_delta(
                (c2 * q * (1.0 + math.log(n)) / (alpha * mu * c1_hat * p_hat * n)) ** (1.0 / (p_hat + q)),
                notes,
            )
        return Schedule(
            mode="regret_sc",
            delta=delta,
            eta_form=("inv_t", mu),
            params={"p": p, "q": q, "c1": c1, "c2": c2, "p_hat": p_hat, "c1_hat": c1_hat,
                    "D": D, "alpha": alpha, "mu": mu, "L": L, "n": n, "oracle_type": oracle_type},
            notes=tuple(notes),
        )
    two_pq = 2.0 * p_hat + q
    if q == 0.0:
        delta = _clamp_delta(0.0, notes)
    else:
        delta = _clamp_delta(
            (q / (2.0 * p_hat)) ** (2.0 / two_pq)
            * (c2 * D / (alpha * c1_hat**2)) ** (1.0 / two_pq)
            * n ** (-1.0 / two_pq),
            notes,
        )
    eta = (
        D ** ((p_hat + q) / two_pq)
        * (q / (2.0 * p_hat)) ** (q / two_pq)
        * (c2 / alpha) ** (-p_hat / two_pq)
        * c1_hat ** (-q / two_pq)
        * n ** (-(p_hat + q) / two_pq)
    )
    return Schedule(
        mode="regret_convex",
        delta=delta,
        eta_form=("const", eta),
        params={"p": p, "q": q, "c1": c1, "c2": c2, "p_hat": p_hat, "c1_hat": c1_hat,
                "D": D, "alpha": alpha, "L": L, "n": n, "oracle_type": oracle_type},
        notes=tuple(notes),
    )


def optimization_rate_exponent(problem_class: str, p: float, q: float) -> float:
    """Predicted decay exponent of the optimization error in n."""
    if problem_class == "convex_smooth":
        return p / (2.0 * p + q)
    if problem_class == "strongly_convex":
        return p / (p + q)
    raise DomainError(f"unknown problem class {problem_class!r}")


def regret_rate_exponent(problem_class: str, p: float, q: float) -> float:
    """Predicted decay exponent of the per-round regret R_n / n."""
    p_hat = min(p, 2.0)
    if problem_class == "convex_smooth":
        return p_hat / (2.0 * p_hat + q)
    if problem_class == "strongly_convex":
        return p_hat / (p_hat + q)
    raise DomainError(f"unknown problem class {problem_class!r}")


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------


class RunTrace(NamedTuple):
    """What one mirror-descent run produced.

    A run over a single generator reports one replication: ``x_hat`` is (d,),
    ``error`` and ``regret`` are floats, and the records are (n, d) / (n,).
    A run over a sequence of R generators reports R lanes: ``x_hat`` is
    (R, d), ``error`` and ``regret`` are (R,), and the records carry a lane
    axis after the step axis.  ``n`` is the longest horizon; ``delta`` is a
    float when all lanes share one schedule, else each lane's delta (R,).
    """

    n: int
    mode: str
    delta: Union[float, np.ndarray]
    x_hat: np.ndarray
    error: Union[float, np.ndarray]
    regret: Union[float, np.ndarray, None]
    warnings: tuple[str, ...] = ()
    xs: Optional[np.ndarray] = None
    ys: Optional[np.ndarray] = None
    losses_x: Optional[np.ndarray] = None
    losses_y: Optional[np.ndarray] = None
    etas: Optional[np.ndarray] = None
    gs: Optional[np.ndarray] = None


class NonFiniteIterate(DomainError):
    """A lane's iterate or regret stopped being finite within steps
    ``first``..``last``; ``lane`` indexes the generators the run was given."""

    def __init__(self, lane: int, first: int, last: int):
        super().__init__(lane, first, last)
        self.lane, self.first, self.last = lane, first, last

    def __str__(self) -> str:
        return f"replication {self.lane}: iterate went non-finite within steps {self.first}..{self.last}"


def _next_chunk(steppers, m: int) -> list[np.ndarray]:
    """Every lane's draws for the next m steps, stacked on axis 1 (steps,
    lanes, ...).  A lane whose horizon ends sooner gets zeros after its last
    draw.  Filled lane by lane, so only one lane's chunk exists besides the
    stack."""
    draws: list[np.ndarray] = []
    for lane, stepper in enumerate(steppers):
        for i, part in enumerate(next(stepper, ())):
            if i == len(draws):
                draws.append(np.zeros((m, len(steppers)) + part.shape[1:]))
            draws[i][:len(part), lane] = part
    return draws


def _lane_schedules(schedules: Sequence[Schedule]):
    """(delta, groups) of lanes with these schedules: delta is a float and
    groups holds one (schedule, slice(None)) when they all share one
    schedule; otherwise delta is a (lanes, 1) column and groups pairs each
    distinct schedule with the rows of its lanes."""
    distinct = list({id(s): s for s in schedules}.values())
    if len(distinct) == 1:
        return distinct[0].delta, [(distinct[0], slice(None))]
    rows = [[i for i, s in enumerate(schedules) if s is d] for d in distinct]
    return np.array([[s.delta] for s in schedules]), list(zip(distinct, rows))


def _check_vicinity(offsets: np.ndarray, delta, norm: Norm, live: np.ndarray, first: int) -> None:
    """Raise DomainError where an evaluation point y of a chunk lies farther
    than delta from its query point x under the vicinity norm.  ``offsets``
    holds y - x (steps, lanes, d) for the live lanes, whose first step is
    ``first``; delta is a float or a (lanes, 1) column.  The norm is the
    max norm or the Euclidean one, the schemes' vicinity norms."""
    a = np.abs(offsets)
    if a.shape[-1] == 1:
        dist = a[..., 0]
    elif norm.kind == "max":
        dist = a.max(axis=-1)
    else:
        dist = np.sqrt(np.sum(a * a, axis=-1))
    bad = dist > vicinity_tolerance(delta if np.ndim(delta) == 0 else delta[:, 0])
    if bad.any():
        step, row = np.argwhere(bad)[0]
        raise _escaped(live[row], first + step, dist[step, row], delta if np.ndim(delta) == 0 else delta[row, 0])


def _escaped(lane: int, step: int, dist: float, delta: float) -> DomainError:
    return DomainError(f"lane {lane}: evaluation point escaped the delta-vicinity at step {step}: "
                       f"||x-y||={dist} > {delta}")


def run(
    oracle,
    schedule: Union[Schedule, Sequence[Schedule]],
    n: int,
    x1: Optional[np.ndarray] = None,
    rng: Union[np.random.Generator, Sequence[np.random.Generator], None] = None,
    mode: str = "optimization",
    record: bool = False,
    horizons: Optional[Sequence[int]] = None,
) -> RunTrace:
    """Run mirror descent against the oracle over its target's domain and
    average.

    Every generator in ``rng`` drives one lane, an independent replication;
    all lanes advance together as one (lanes, d) iterate.  ``schedule`` is
    one schedule for every lane or a sequence of one per lane, and
    ``horizons`` gives each lane's horizon (default n for every lane; n must
    be the longest).  A lane of horizon h takes h-1 steps and averages its h
    iterates; its average and regret are those at step h-1.  It is fed zero
    draws for the rest of that chunk and then leaves the iterate, so later
    steps cost nothing for it.  Each lane's values equal, bit for bit, those
    of a run given its generator, schedule and horizon alone.  While the
    lanes in the iterate share one schedule, ``oracle.estimate`` gets its
    delta as a float and each step size is a float; otherwise it gets a
    (lanes, 1) column of deltas, and step sizes are columns too.  Records
    of a lane end at its horizon; later entries are NaN.

    Each lane's draws come from ``oracle.make_stepper`` in chunks of
    ``core.STEPS_PER_CHUNK`` steps and feed ``oracle.estimate``.  An
    estimator's directions read the lane's generator and its noise a twin
    of it jumped once from its state at the start of the run
    (``core.draw_chunks``), so a lane's generator is left past its
    directions only: a generator handed to a second run would draw noise
    that overlaps the first run's.  The experiments give every run fresh
    streams.  After each chunk a lane whose step eta*G, iterate or regret
    went NaN or infinite raises NonFiniteIterate.  For an oracle with a
    ``vicinity_norm`` (one without answers at y = x itself), an evaluation
    point farther than delta from its query point under that norm raises
    DomainError after its chunk.

    A run, recorded or not, where ``_lanes.lane_run`` builds a ``LaneRun``
    for it, is one call of the compiled kernel of ``_lanes.c``.  The call
    runs every lane to its horizon in the same chunks, fills each chunk's
    draws in C from each lane's generator with numpy's own samplers,
    computes the same values bit for bit, writes them into a recorded run's
    records, checks each chunk as the numpy loop does, so that the run
    raises the same error, and leaves each generator in the same state.
    (f at a recorded run's iterates, and at the evaluation points of an
    oracle that answers at x, is evaluated over its records after the
    call.)  It covers runs on a 1-d box, where every lane has a generator
    of its own: estimator oracles of a 1-d quadratic in either mode, and,
    in optimization mode, the adversarial and exact-gradient oracles of an
    arm of a hard pair (for the softabs pair, with numpy's own tanh loop,
    called from C), each as its ``lane_spec()`` states it.  There a lane
    stops at its horizon instead of taking zero draws.  Other runs, and
    every run where the kernel does not load, take the numpy loop.  The
    kernel call holds no interpreter lock, so runs on several threads run
    in parallel.  Which path ran, and whether the run is recorded, is
    logged at DEBUG.

    The loss of round t is f at the oracle's evaluation point.  The oracle
    hands back the noiseless values of f it computed there; for two-point
    oracles these are both arms x +- delta*u, and the loss is their mean.
    Where the oracle computed none, f is evaluated at y (and, for two-point
    oracles, at 2x - y, the other arm).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if mode not in ("optimization", "regret"):
        raise DomainError(f"unknown mode {mode!r}")
    single = rng is None or isinstance(rng, np.random.Generator)
    rngs = [np.random.default_rng(0) if rng is None else rng] if single else list(rng)
    if not rngs:
        raise DomainError("rng must hold at least one generator")
    lanes = len(rngs)
    schedules = [schedule] * lanes if isinstance(schedule, Schedule) else list(schedule)
    horizon = [n] * lanes if horizons is None else [int(h) for h in horizons]
    if len(schedules) != lanes or len(horizon) != lanes:
        raise DomainError("schedule and horizons must have one entry per lane")
    if min(horizon) < 1 or max(horizon) != n:
        raise DomainError("horizons must be >= 1 and the longest must equal n")
    delta, groups = _lane_schedules(schedules)
    shared = len(groups) == 1
    f = oracle.target
    warnings = [note for s, _ in groups for note in s.notes]
    if mode == "regret" and not getattr(oracle, "unbiased", False):
        warnings.append("regret bound not guaranteed: oracle is biased in Y")

    x0 = np.atleast_1d(np.asarray(x1, dtype=float) if x1 is not None else f.domain.center)
    if not f.domain.contains(x0):
        raise DomainError("x1 must lie in the feasible set")

    lane_delta = delta if shared else delta[:, 0]
    two_point = getattr(oracle, "feedback", "") == "two_point"
    want_regret = mode == "regret"
    want_loss = want_regret or record
    estimate, value, proj, f_star = oracle.estimate, f.value_rows, f.domain.project, f.f_star
    multiply, subtract = np.multiply, np.subtract
    norm = getattr(oracle, "vicinity_norm", None)
    from . import _lanes  # imported on first use, not with zograd (see _lanes)

    kernel = _lanes.lane_run(oracle, want_regret, rngs, horizon, schedules)
    if kernel is None:
        steppers = [oracle.make_stepper(h - 1, s.delta, g) for h, s, g in zip(horizon, schedules, rngs)]
    _log.debug("run: %d lanes, %d steps%s on the %s", lanes, n - 1, ", recorded," if record else "",
               "numpy loop" if kernel is None else "compiled lane kernel")

    x = np.tile(x0.astype(float), (lanes, 1))
    # each lane's sum and regret at its horizon; lanes of horizon 1 take no step
    sums, regrets = x.copy(), np.zeros((lanes, 1))
    if record:  # NaN past each lane's horizon
        xs = np.full((n, lanes, x0.size), np.nan)
        ys, gs = np.full((n - 1, lanes, x0.size), np.nan), np.full((n - 1, lanes, x0.size), np.nan)
        losses_x, losses_y = np.full((n, lanes), np.nan), np.full((n - 1, lanes), np.nan)
        xs[0], losses_x[0] = x, value(x)[:, 0]
    if kernel is not None:
        fault = kernel.run(x, sums, regrets, (xs[1:], ys, gs, losses_y) if record else ())
        if fault is not None:
            kind, lane, first, last, dist = fault
            if kind == _lanes.NONFINITE:
                raise NonFiniteIterate(lane, first, last)
            raise _escaped(lane, first, dist, schedules[lane].delta)
        if record:  # f at the new iterates, and at y = x where the oracle answers there, of the steps taken
            taken = ~np.isnan(ys[..., 0])
            losses_x[1:][taken] = value(xs[1:][taken])[:, 0]
            if norm is None:
                losses_y[taken] = value(ys[taken])[:, 0]
    else:
        sum_x, regret = sums.copy(), regrets.copy()
        # the lanes short of their horizon, in the order of the rows of x
        live, ends = np.arange(lanes), np.array(horizon) - 1
        # each step's eta*G and y - x, laid out (steps, lanes, d) for the live lanes
        steps = np.empty(min(STEPS_PER_CHUNK, n - 1) * lanes * x0.size)
        offsets = None if norm is None else np.empty(steps.size)
        t = 0
        for m in chunk_sizes(n - 1):
            # lanes whose horizon has passed leave the state at the next chunk
            keep = ends[live] > t
            if not keep.all():
                live, x, sum_x, regret = live[keep], x[keep], sum_x[keep], regret[keep]
                steppers = [stepper for stepper, k in zip(steppers, keep) if k]
                delta, groups = _lane_schedules([schedules[lane] for lane in live])
            live_ends = ends[live]
            retiring = {e: np.flatnonzero(live_ends == e) for e in set(live_ends.tolist()) if e <= t + m}
            # the last chunk's draws go before the next are drawn (draw and eta are views of them)
            draws = eta_chunk = etas = draw = eta = None
            draws = _next_chunk(steppers, m)
            if len(groups) == 1:
                eta_chunk = groups[0][0].eta_array(t + m + 1, t + 1)
            else:
                eta_chunk = np.empty((m, live.size, 1))
                for sched, rows in groups:
                    eta_chunk[:, rows] = sched.eta_array(t + m + 1, t + 1)[:, None, None]
            shape = (m, live.size, x0.size)
            chunk_steps = steps[:math.prod(shape)].reshape(shape)
            chunk_offsets = [None] * m if norm is None else offsets[:math.prod(shape)].reshape(shape)
            etas = eta_chunk.tolist() if len(groups) == 1 else eta_chunk
            for draw, eta, step, offset in zip(zip(*draws) if draws else [()] * m, etas, chunk_steps,
                                               chunk_offsets):
                g, y, fy = estimate(x, delta, *draw)
                if norm is not None:
                    subtract(y, x, out=offset)
                if want_loss:
                    if fy is None:
                        loss = value(y)
                        if two_point:
                            loss = 0.5 * (loss + value(2.0 * x - y))
                    else:
                        loss = 0.5 * (fy[:, 0] + fy[:, 1]) if two_point else fy
                    if want_regret:
                        regret += loss - f_star
                x = proj(x - multiply(eta, g, step))
                sum_x += x
                if record:
                    gs[t, live], ys[t, live], losses_y[t, live] = g, y, loss[:, 0]
                    xs[t + 1, live], losses_x[t + 1, live] = x, value(x)[:, 0]
                t += 1
                if t in retiring:
                    rows = retiring[t]
                    sums[live[rows]], regrets[live[rows]] = sum_x[rows], regret[rows]
            finite = (
                np.isfinite(chunk_steps).all(axis=(0, 2))
                & np.isfinite(sum_x).all(axis=1)
                & np.isfinite(regret[:, 0])
            )
            if not finite.all():
                raise NonFiniteIterate(int(live[np.argmin(finite)]), t - m + 1, t)
            if norm is not None:
                _check_vicinity(chunk_offsets, delta, norm, live, t - m + 1)
        if record:  # a lane's zero-draw steps past its horizon, up to the end of that chunk, are not its records
            for lane, h in enumerate(horizon):
                xs[h:, lane] = ys[h - 1:, lane] = gs[h - 1:, lane] = np.nan
                losses_x[h:, lane] = losses_y[h - 1:, lane] = np.nan

    x_hat = sums / np.array(horizon, dtype=float)[:, None]
    error = value(x_hat)[:, 0] - f_star
    regret_out = regrets[:, 0] if want_regret else None
    records = {}
    if record:
        etas = schedules[0].eta_array(n) if shared else np.stack([s.eta_array(n) for s in schedules], axis=1)
        records = dict(xs=xs, ys=ys, losses_x=losses_x, losses_y=losses_y, etas=etas, gs=gs)
    if single:
        x_hat, error = x_hat[0], float(error[0])
        regret_out = None if regret_out is None else float(regret_out[0])
        records = {k: (v if k == "etas" else v[:, 0]) for k, v in records.items()}
    return RunTrace(
        n=n, mode=mode, delta=lane_delta, x_hat=x_hat, error=error,
        regret=regret_out, warnings=tuple(warnings), **records,
    )
