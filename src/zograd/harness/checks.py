"""The `check` suite: fast, deterministic property verification for the
whole stack (envelopes, gradients, adversarial exactness, solver step
inequality, reproducibility).  Exit code 0 iff every check passes.  Each
bound is one ``verdicts.require``, so a value or bound that is not finite
fails it."""

from __future__ import annotations

import logging
import math
import time
from typing import Callable

import numpy as np

from ..adversarial import (
    bias_excess_on_grid,
    gap_deviation_on_grid,
    hard_pair,
    minimax_lower_bound,
    optimal_separation,
    scaled_hard_coordinates,
    worst_case_tolerance,
)
from ..core import Box, DomainError, RngStream
from ..estimators import (
    SF,
    SPSA,
    SURFACE,
    ControlledNoise,
    EstimatorOracle,
    UncontrolledNoise,
)
from ..solver import (
    manual_schedule,
    prox_inequality_gap,
    run,
    schedule_opt_convex,
    schedule_opt_sc,
)
from ..testbed import (
    exp_one_d,
    finite_diff_check,
    kinked_quadratic,
    quadratic,
    softabs,
    strongly_convex_pair,
)
from .probes import envelope_verdicts, probe_bias_variance
from .verdicts import require

Check = tuple[str, Callable[[], str]]

_log = logging.getLogger(__name__)


def _check_projection() -> str:
    rng = RngStream(4242, 0).generator()
    for box in (Box(np.array([-1.0, -2.0]), np.array([1.0, 0.5])), Box(np.full(3, -1.5), np.array([1.5, 0.5, 2.5]))):
        # the 1000 (x, y) pairs in the order one pair at a time would draw them
        x, y = np.moveaxis(rng.normal(scale=3.0, size=(1000, 2, box.dim)), 1, 0)
        px, py = box.project(x), box.project(y)
        expansion = np.max(np.linalg.norm(px - py, axis=1) - np.linalg.norm(x - y, axis=1))
        require("largest expansion of a pair", expansion, "<=", 1e-12)
        require("largest move of a projected point", np.max(np.abs(box.project(px) - px)), "<=", 1e-8)
    return "nonexpansive and idempotent on 2000 random pairs"


def _check_finite_differences() -> str:
    rng = RngStream(4242, 1).generator()
    fs = (
        quadratic([1.0]),
        quadratic([2.0, 0.5], [0.3, -0.1]),
        softabs(+1, 0.1),
        softabs(-1, 0.05),
        strongly_convex_pair(+1, 0.2),
        kinked_quadratic(),
        exp_one_d(),
    )
    worst = require("finite-difference mismatch", np.max([finite_diff_check(f, 100, rng) for f in fs]),
                    "<=", 1e-4).value
    return f"all testbeds match central differences (worst {worst:.1e})"


def envelope_cells() -> list:
    """The estimator cells whose envelopes ``estimator-envelopes`` probes."""
    f = quadratic([1.0])
    return [
        EstimatorOracle(f, SPSA, UncontrolledNoise(1.0), "one_point"),
        EstimatorOracle(f, SURFACE, UncontrolledNoise(1.0), "one_point"),
        EstimatorOracle(f, SPSA, UncontrolledNoise(1.0), "two_point"),
        EstimatorOracle(f, SF, UncontrolledNoise(1.0), "two_point"),
        EstimatorOracle(f, SPSA, ControlledNoise(1.0), "two_point"),
    ]


def _check_estimator_envelopes() -> str:
    rng, x = RngStream(4242, 2).generator(), np.array([0.3])
    for oracle in envelope_cells():
        for delta in (0.5, 0.1):
            for v in envelope_verdicts(probe_bias_variance(oracle, x, delta, 50_000, rng), oracle.envelope):
                require(f"{oracle.scheme.kind}/{oracle.feedback} {v.what}", v.value, v.relation, v.bound)
    return "bias/variance inside declared envelopes for 5 cells x 2 deltas"


def _check_adversarial_grid() -> str:
    for problem, eps in (("convex_smooth", 0.1), ("strongly_convex", 0.2)):
        for p, q in ((1.0, 2.0), (2.0, 2.0)):
            plus, minus = hard_pair(problem, p, q, 1.0, 1.0, eps)
            excess = np.maximum(bias_excess_on_grid(plus), bias_excess_on_grid(minus))
            require(f"type-I bias excess for {problem}", excess, "<=", 1e-12)
            gap_excess, gap_defect = gap_deviation_on_grid(plus, minus)
            require(f"gap bound excess for {problem}", gap_excess, "<=", 1e-12)
            if problem == "strongly_convex":
                require("gap identity defect", gap_defect, "<=", 1e-12)
    return "closed-form bias and gap identities exact on the 401x25 grid"


def _check_separable_arithmetic() -> str:
    oracle = scaled_hard_coordinates("strongly_convex", 1.0, 2.0, 1.0, 1.0, 0.2, [+1, -1, +1, -1])
    env = oracle.envelope
    require("|composed C1 - 1|", abs(env.c1 - 1.0), "<=", 1e-12)
    require("|composed C2 - 1|", abs(env.c2 - 1.0), "<=", 1e-12)
    delta = 0.3
    per_coord = oracle.instances[0].envelope
    total_var = sum(inst.envelope.c2_value(delta) for inst in oracle.instances)
    require("|sum of coordinate variances - c2(delta)|", abs(total_var - env.c2_value(delta)), "<=", 1e-12)
    bias = np.linalg.norm(oracle.mean_response(np.zeros(4), delta) - oracle.target.gradient_at(np.zeros(4)))
    require("composed bias", bias, "<=", env.c1_value(delta) + 1e-12)
    require("|per-coordinate C1 * sqrt(d) - C1|", abs(per_coord.c1 * math.sqrt(4) - env.c1), "<=", 0.0)
    return "envelope arithmetic exact for the d=4 composition"


def _check_prox_inequality() -> str:
    f = quadratic([1.0])
    oracle = EstimatorOracle(f, SPSA, UncontrolledNoise(1.0), "two_point")
    schedule = schedule_opt_convex(1.0, 2.0, oracle.envelope.c1, oracle.envelope.c2, 2.0, 1.0, 1.0, 500)
    rng = RngStream(4242, 3).generator()
    trace = run(oracle, schedule, 500, rng=rng, record=True)
    probes = RngStream(4242, 4).generator().uniform(-1.0, 1.0, size=(100, 1))
    worst = prox_inequality_gap(trace.xs[:-1, None], trace.gs[:, None], trace.etas[:, None],
                                trace.xs[1:, None], probes)
    require("worst prox inequality gap", worst, "<=", 1e-8)
    return f"step optimality inequality holds at every iteration (worst gap {worst:.1e})"


def _check_schedules() -> str:
    s = schedule_opt_convex(2.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1000)
    require("|opt_convex r - 2/3|", abs(s.params["r"] - 2.0 / 3.0), "<=", 1e-12)
    try:
        schedule_opt_sc(2.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1000)
    except DomainError:
        pass
    else:
        raise AssertionError("opt_sc accepted alpha*mu <= 2L")
    d_star = worst_case_tolerance(1.0, 1.0, 2.0, 2.0)
    require("|worst-case tolerance - sqrt(1/3)|", abs(d_star - math.sqrt(1.0 / 3.0)), "<=", 1e-12)
    lb = minimax_lower_bound("convex_smooth", 2.0, 2.0, 1.0, 1.0, 10_000)
    eps = optimal_separation("convex_smooth", 2.0, 2.0, 1.0, 1.0, 10_000)
    require("|floor - 6/40 separation|", abs(lb - eps * 6.0 / 40.0), "<=", 1e-12 * lb)
    return "schedule constants and closed forms self-consistent"


def _check_determinism() -> str:
    f = quadratic([1.0])
    oracle = EstimatorOracle(f, SURFACE, UncontrolledNoise(1.0), "one_point")
    schedule = manual_schedule(0.3, ("poly", 1.0, 0.75, 1.0, 1.0))
    traces = [run(oracle, schedule, 2000, rng=RngStream(7, 5).generator()) for _ in range(2)]
    require("|x_hat difference| of equal-stream runs", abs(traces[0].x_hat[0] - traces[1].x_hat[0]), "<=", 0.0)
    require("|error difference| of equal-stream runs", abs(traces[0].error - traces[1].error), "<=", 0.0)
    return "equal RNG streams reproduce runs bitwise"


ALL_CHECKS: list[Check] = [
    ("projection", _check_projection),
    ("finite-differences", _check_finite_differences),
    ("estimator-envelopes", _check_estimator_envelopes),
    ("adversarial-grid", _check_adversarial_grid),
    ("separable-arithmetic", _check_separable_arithmetic),
    ("prox-inequality", _check_prox_inequality),
    ("schedule-constants", _check_schedules),
    ("determinism", _check_determinism),
]


def run_checks(verbose: bool = True) -> int:
    failures = 0
    for name, fn in ALL_CHECKS:
        start = time.perf_counter()
        try:
            status, detail = "PASS", fn()
        except AssertionError as exc:
            status, detail = "FAIL", str(exc)
            failures += 1
        _log.info("%s: %s in %.1f ms", name, status, 1e3 * (time.perf_counter() - start))
        if verbose:
            print(f"[{status}] {name}: {detail}")
    return 0 if failures == 0 else 1
