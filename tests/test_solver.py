import contextlib
import dataclasses
import functools
import logging
import math
import sys
import sysconfig
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zograd import _lanes, solver
from zograd.adversarial import hard_pair, scaled_hard_coordinates
from zograd.core import STEPS_PER_CHUNK, Ball, Box, DomainError, RngStream, chunk_sizes, draw_chunks, interval
from zograd.estimators import (
    EstimatorOracle,
    ExactGradientOracle,
    RDSA,
    SF,
    SPSA,
    SURFACE,
    UncontrolledNoise,
    additive_controlled,
)
from zograd.solver import (
    NonFiniteIterate,
    Regularizer,
    manual_schedule,
    md_step,
    optimization_rate_exponent,
    prox_inequality_gap,
    regret_bias_coefficient,
    regret_rate_exponent,
    run,
    schedule_opt_convex,
    schedule_opt_sc,
    schedule_regret,
)
from zograd.testbed import exp_one_d, quadratic

REG = Regularizer()
RNG = lambda i: RngStream(55, i).generator()


class TestRegularizer:
    def test_divergence_zero_at_identity(self):
        x = np.array([0.3, -0.4])
        assert REG.divergence(x, x) == 0.0

    def test_divergence_lower_bound(self):
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert REG.divergence(x, y) >= 0.5 * float(np.sum((x - y) ** 2)) - 1e-15

    def test_diameter_box(self):
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        assert REG.diameter(box) == pytest.approx(4.0)  # ||(2,2)||^2 / 2

    def test_diameter_ball(self):
        assert REG.diameter(Ball(np.zeros(2), 1.5)) == pytest.approx(4.5)


class TestMdStep:
    def test_zero_gradient_keeps_point(self):
        box = interval(-1.0, 1.0)
        np.testing.assert_array_equal(md_step(np.array([0.4]), np.zeros(1), 0.1, REG, box), [0.4])

    def test_interior_gradient_step(self):
        box = Box(-np.ones(2), np.ones(2))
        np.testing.assert_allclose(
            md_step(np.zeros(2), np.array([1.0, 0.0]), 0.1, REG, box), [-0.1, 0.0]
        )

    def test_step_clamped_at_boundary(self):
        box = Box(-np.ones(2), np.ones(2))
        np.testing.assert_allclose(
            md_step(np.array([0.95, 0.0]), np.array([-1.0, 0.0]), 0.1, REG, box), [1.0, 0.0]
        )

    def test_nonpositive_step_rejected(self):
        with pytest.raises(DomainError):
            md_step(np.zeros(1), np.ones(1), 0.0, REG, interval(-1, 1))

    @given(
        st.floats(-0.9, 0.9),
        st.floats(-3.0, 3.0),
        st.floats(1e-3, 2.0),
    )
    @settings(max_examples=100)
    def test_prox_inequality(self, x0, g0, eta):
        body = interval(-1.0, 1.0)
        x = np.array([x0])
        g = np.array([g0])
        x_next = md_step(x, g, eta, REG, body)
        probes = np.linspace(-1.0, 1.0, 25).reshape(-1, 1)
        assert prox_inequality_gap(x, g, eta, x_next, probes, REG) <= 1e-9


class TestSchedules:
    def test_opt_convex_exponent_rule(self):
        s = schedule_opt_convex(2.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1000)
        assert s.params["r"] == pytest.approx(2.0 / 3.0)
        s = schedule_opt_convex(1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1000)
        assert s.params["r"] == pytest.approx(3.0 / 4.0)

    def test_opt_convex_delta_scaling(self):
        # multiplying n by 2^6 halves delta when p = q = 2
        lo = schedule_opt_convex(2.0, 2.0, 1.0, 100.0, 2.0, 1.0, 1.0, 10_000)
        hi = schedule_opt_convex(2.0, 2.0, 1.0, 100.0, 2.0, 1.0, 1.0, 10_000 * 64)
        assert hi.delta == pytest.approx(lo.delta / 2.0)

    def test_opt_convex_eta_positive_nonincreasing(self):
        s = schedule_opt_convex(2.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1000)
        etas = s.eta_array(1000)
        assert np.all(etas > 0)
        assert np.all(np.diff(etas) <= 0)

    def test_opt_convex_delta_clamped_at_tiny_n(self):
        s = schedule_opt_convex(2.0, 2.0, 0.01, 100.0, 2.0, 1.0, 1.0, 2)
        assert s.delta == 1.0
        assert any("clamped" in note for note in s.notes)

    def test_opt_convex_exact_oracle(self):
        s = schedule_opt_convex(2.0, 2.0, 0.0, 0.0, 2.0, 1.0, 1.0, 1000)
        assert s.eta(1) == pytest.approx(1.0)  # alpha / L

    def test_opt_sc_precondition(self):
        # alpha*mu must clear 2L for the step accounting to start at t = 1
        s = schedule_opt_sc(2.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0, 1000)
        assert s.eta(1) == pytest.approx(2.0)
        assert s.eta(10) == pytest.approx(0.2)
        with pytest.raises(DomainError):
            schedule_opt_sc(2.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1000)

    def test_opt_sc_delta_behavior(self):
        grow = schedule_opt_sc(2.0, 2.0, 1.0, 4.0, 2.0, 4.0, 1.0, 1.0, 100_000)
        base = schedule_opt_sc(2.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0, 100_000)
        assert grow.delta > base.delta  # larger variance budget -> larger delta
        small_n = schedule_opt_sc(2.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0, 1000)
        big_n = schedule_opt_sc(2.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0, 100_000)
        ratio = big_n.delta / small_n.delta
        # n^{-1/(p+q)} modulo the log factor
        pure = (100_000 / 1000) ** (-1.0 / 4.0)
        assert pure * 0.8 <= ratio <= pure * 1.3

    def test_regret_bias_coefficient_rules(self):
        assert regret_bias_coefficient(3.0, 1.0, 2.0, "type_II", 1.0) == pytest.approx(0.5)
        assert regret_bias_coefficient(1.0, 1.0, 2.0, "type_II", 1.0) == pytest.approx(1.0)
        assert regret_bias_coefficient(1.0, 1.0, 2.0, "type_I", 3.0) == pytest.approx(3.0)
        # at p = 2 both the bias and the vicinity-loss terms contribute
        assert regret_bias_coefficient(2.0, 1.0, 2.0, "type_II", 1.0) == pytest.approx(1.5)

    def test_regret_schedule_shapes(self):
        s = schedule_regret(3.0, 2.0, 1.0, 1.0, 2.0, 1.0, 2.0, 0.0, 1000, "type_II")
        assert s.params["p_hat"] == 2.0
        assert s.params["c1_hat"] == pytest.approx(0.5)
        assert s.eta_form[0] == "const"
        s = schedule_regret(2.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0, 1000, "type_II", strongly_convex=True)
        assert s.eta_form == ("inv_t", 1.0)

    def test_rate_exponent_helpers(self):
        assert optimization_rate_exponent("convex_smooth", 2.0, 2.0) == pytest.approx(1 / 3)
        assert optimization_rate_exponent("convex_smooth", 1.0, 0.0) == pytest.approx(1 / 2)
        assert optimization_rate_exponent("strongly_convex", 2.0, 2.0) == pytest.approx(1 / 2)
        assert regret_rate_exponent("convex_smooth", 2.0, 2.0) == pytest.approx(1 / 3)
        assert regret_rate_exponent("convex_smooth", 5.0, 2.0) == pytest.approx(1 / 3)
        assert regret_rate_exponent("strongly_convex", 2.0, 2.0) == pytest.approx(1 / 2)


class TestRun:
    def test_single_round_returns_start(self):
        f = quadratic([1.0])
        tr = run(ExactGradientOracle(f), manual_schedule(0.5, ("const", 0.1)), 1, f.domain, REG,
                 x1=np.array([0.7]), rng=RNG(0))
        np.testing.assert_array_equal(tr.x_hat, [0.7])

    def test_zero_gradient_oracle_stays_put(self):
        f = quadratic([0.0], [0.0])
        tr = run(ExactGradientOracle(f), manual_schedule(0.5, ("const", 0.1)), 100, f.domain, REG,
                 x1=np.array([0.3]), rng=RNG(1), record=True)
        assert np.all(tr.xs == 0.3)

    def test_exact_gradient_strongly_convex_bound(self):
        # eta_t = 2/t with a noiseless oracle: averaged error <= (f(x1)-f*)/n
        f = quadratic([1.0])
        n = 1000
        tr = run(ExactGradientOracle(f), manual_schedule(1e-6, ("inv_t", 1.0)), n, f.domain, REG,
                 x1=np.array([1.0]), rng=RNG(2))
        assert tr.error <= 2.0 / n

    def test_feasibility_and_averaging(self):
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        o = EstimatorOracle(f, SPSA, UncontrolledNoise(2.0), "one_point")
        tr = run(o, manual_schedule(0.3, ("poly", 1.0, 0.75, 1.0, 1.0)), 500, f.domain, REG,
                 rng=RNG(3), record=True)
        assert np.all(tr.xs >= 0.0) and np.all(tr.xs <= 1.0)
        np.testing.assert_allclose(tr.x_hat, tr.xs.mean(axis=0), atol=1e-12)
        # Jensen: the averaged point cannot beat the average loss
        assert f.value_at(tr.x_hat) <= float(np.mean(tr.losses_x)) + 1e-12

    def test_prox_inequality_along_trajectory(self):
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        o = EstimatorOracle(f, SURFACE, UncontrolledNoise(1.0), "one_point")
        s = schedule_opt_convex(2.0, 2.0, o.envelope.c1, o.envelope.c2, 0.5, 1.0, 1.0, 400,
                                o.envelope.oracle_type)
        tr = run(o, s, 400, f.domain, REG, rng=RNG(4), record=True)
        probes = RNG(5).uniform(0.0, 1.0, size=(100, 1))
        for t in range(tr.n - 1):
            assert prox_inequality_gap(tr.xs[t], tr.gs[t], tr.etas[t], tr.xs[t + 1], probes, REG) <= 1e-8

    def test_noiseless_sanity_bound(self):
        # exact oracle + convex schedule: error within the transient bound
        f = quadratic([1.0])
        n = 1000
        s = schedule_opt_convex(2.0, 2.0, 0.0, 0.0, REG.diameter(f.domain), 1.0, f.smoothness, n)
        tr = run(ExactGradientOracle(f), s, n, f.domain, REG, x1=np.array([1.0]), rng=RNG(6))
        bound = (f.value_at(np.array([1.0])) - f.f_star + REG.diameter(f.domain) * f.smoothness) / n
        assert tr.error <= bound + 1e-12

    def test_regret_mode_accumulates(self):
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        o = EstimatorOracle(f, SURFACE, UncontrolledNoise(1.0), "one_point")
        tr = run(o, manual_schedule(0.2, ("const", 0.01)), 200, f.domain, REG, rng=RNG(7), mode="regret")
        assert tr.regret is not None and tr.regret > 0

    @pytest.mark.parametrize("feedback, noise", [
        ("one_point", UncontrolledNoise(1.0)), ("two_point", UncontrolledNoise(1.0)), ("two_point", "controlled"),
    ])
    def test_regret_charges_the_evaluation_points(self, feedback, noise):
        # the loss of a round is f at y, or the mean of f at both arms
        # x +- delta*u (y and 2x - y) for two-point feedback
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        noise = additive_controlled(f, 1.0) if noise == "controlled" else noise
        o = EstimatorOracle(f, SPSA, noise, feedback)
        tr = run(o, manual_schedule(0.2, ("const", 0.05)), 300, f.domain, REG, rng=RNG(11), mode="regret",
                 record=True)
        at_y = f.value(tr.ys[:, 0])
        if feedback == "one_point":
            np.testing.assert_array_equal(tr.losses_y, at_y)
        else:
            other = f.value(2.0 * tr.xs[:-1, 0] - tr.ys[:, 0])
            np.testing.assert_allclose(tr.losses_y, 0.5 * (at_y + other), rtol=1e-13, atol=1e-15)
        assert tr.regret == pytest.approx(float(np.sum(tr.losses_y - f.f_star)), rel=1e-12)

    def test_regret_zero_noise_zero_bias_sanity(self):
        # exact gradients: per-round regret collapses at the fast 1/n-ish rate
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        per_round = []
        for n in (1000, 10_000):
            tr = run(ExactGradientOracle(f), manual_schedule(0.2, ("inv_t", 1.0)), n,
                     f.domain, REG, rng=RNG(10), mode="regret")
            per_round.append(tr.regret / (n - 1))
        assert per_round[0] <= 20.0 / 1000
        assert per_round[1] <= per_round[0] / 5.0  # decays much faster than n^{-1/3}

    def test_regret_biased_oracle_warning(self):
        f = quadratic([1.0])

        class BiasedY:
            target = f
            dim = 1
            unbiased = False
            feedback = "one_point"

            def make_stepper(self, n, delta, rng):
                return draw_chunks(rng, n, ())

            def estimate(self, x, delta):
                return f.gradient(x), x, None

        tr = run(BiasedY(), manual_schedule(0.2, ("const", 0.01)), 10, f.domain, REG,
                 rng=RNG(8), mode="regret")
        assert any("biased" in w for w in tr.warnings)

    def test_infeasible_start_rejected(self):
        f = quadratic([1.0])
        with pytest.raises(DomainError):
            run(ExactGradientOracle(f), manual_schedule(0.2, ("const", 0.01)), 10, f.domain, REG,
                x1=np.array([3.0]), rng=RNG(9))

    def test_lane_and_recorded_paths_agree(self):
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        o = EstimatorOracle(f, SPSA, UncontrolledNoise(1.0), "two_point")
        s = manual_schedule(0.25, ("poly", 2.0, 0.75, 1.0, 1.0))
        lanes = run(o, s, 300, f.domain, REG, rng=[RngStream(12, i).generator() for i in range(5)])
        slow = run(o, s, 300, f.domain, REG, rng=RngStream(12, 3).generator(), record=True)
        assert lanes.x_hat[3, 0] == pytest.approx(slow.x_hat[0], abs=1e-15)
        assert lanes.error[3] == pytest.approx(slow.error, abs=1e-15)


def _oracles():
    """One oracle of every kind the solver runs, 1-d and d > 1, with the
    body it runs on."""
    fq = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
    f2 = quadratic([1.0, 2.0], [-0.5, 0.3])
    convex, _ = hard_pair("convex_smooth", 2.0, 2.0, 1.0, 1.0, 0.1)
    _, sc = hard_pair("strongly_convex", 1.0, 2.0, 1.0, 1.0, 0.2)
    oracles = {
        "one-point": EstimatorOracle(fq, SPSA, UncontrolledNoise(3.0), "one_point"),
        "smoothing": EstimatorOracle(fq, SURFACE, UncontrolledNoise(3.0), "one_point"),
        "spsa-2pt": EstimatorOracle(fq, SPSA, UncontrolledNoise(3.0), "two_point"),
        "spsa-controlled": EstimatorOracle(fq, SPSA, additive_controlled(fq, 3.0, slope=1.0), "two_point"),
        "sf-2pt-d2": EstimatorOracle(f2, SF, UncontrolledNoise(1.0), "two_point"),
        "smoothing-d2": EstimatorOracle(f2, SURFACE, UncontrolledNoise(1.0), "one_point"),
        "exact": ExactGradientOracle(fq),
        "adversarial-convex": convex.oracle(),
        "adversarial-sc": sc.oracle(),
        "separable-d4": scaled_hard_coordinates("strongly_convex", 1.0, 2.0, 1.0, 1.0, 0.2, [+1, -1, +1, -1]),
    }
    cases = {kind: (o, o.target.domain) for kind, o in oracles.items()}
    cases["smoothing-d2-ball"] = (oracles["smoothing-d2"], Ball(np.zeros(2), 0.5))
    return cases


ORACLES = _oracles()


SCHEDULES = (
    manual_schedule(0.3, ("poly", 1.0, 0.75, 1.0, 1.0)),
    manual_schedule(0.07, ("inv_t", 1.0)),
    manual_schedule(0.55, ("const", 0.02)),
)


class TestLanes:
    @given(
        st.sampled_from(sorted(ORACLES)),
        st.sampled_from(["optimization", "regret"]),
        st.integers(2, 4),
        st.integers(0, 2**16),
        st.integers(STEPS_PER_CHUNK + 2, 2 * STEPS_PER_CHUNK + 300),
        st.lists(st.tuples(st.integers(1, 2 * STEPS_PER_CHUNK + 300), st.integers(0, 2)), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_lane_equals_its_single_run(self, kind, mode, lanes, seed, n, others):
        # lane 0 runs to n on the first schedule; the others run to their own
        # horizons (most end within a chunk) on their own schedules
        oracle, body = ORACLES[kind]
        horizons = [n] + [min(h, n) for h, _ in others[:lanes - 1]]
        schedules = [SCHEDULES[0]] + [SCHEDULES[i] for _, i in others[:lanes - 1]]
        gens = lambda: [RngStream(seed, i).generator() for i in range(lanes)]
        multi = run(oracle, schedules, n, body, REG, rng=gens(), mode=mode, horizons=horizons)
        assert multi.x_hat.shape == (lanes, oracle.dim)
        for lane, g in enumerate(gens()):
            single = run(oracle, schedules[lane], horizons[lane], body, REG, rng=g, mode=mode)
            np.testing.assert_array_equal(multi.x_hat[lane], single.x_hat)
            assert multi.error[lane] == single.error
            if mode == "regret":
                assert multi.regret[lane] == single.regret
            else:
                assert multi.regret is None and single.regret is None

    def test_lanes_must_fit_the_run(self):
        f = quadratic([1.0])
        gens = [RngStream(4, i).generator() for i in range(2)]
        with pytest.raises(DomainError, match="longest"):
            run(ExactGradientOracle(f), SCHEDULES[0], 10, f.domain, REG, rng=gens, horizons=[5, 8])
        with pytest.raises(DomainError, match="one entry per lane"):
            run(ExactGradientOracle(f), SCHEDULES[:1], 10, f.domain, REG, rng=gens)

    def test_non_finite_iterate_names_its_lane(self):
        f = quadratic([1.0])

        gens = [RngStream(3, i).generator() for i in range(4)]

        class PoisonedLane:
            target = f
            dim = 1

            def __init__(self, bad):
                self.bad = bad

            def make_stepper(self, n, delta, rng):
                z = np.zeros((n, 1))
                if rng is gens[2]:
                    z[STEPS_PER_CHUNK + 5] = self.bad
                for start in range(0, n, STEPS_PER_CHUNK):
                    yield (z[start:start + STEPS_PER_CHUNK],)

            def estimate(self, x, delta, z):
                return f.gradient(x) + z, x, None

        # an infinite gradient steps to -inf, which the projection would
        # clamp back onto the box: the step itself must be caught
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteIterate) as info:
                run(PoisonedLane(bad), manual_schedule(0.2, ("const", 0.01)), 3 * STEPS_PER_CHUNK, f.domain, REG,
                    rng=gens)
            assert info.value.lane == 2
            assert (info.value.first, info.value.last) == (STEPS_PER_CHUNK + 1, 2 * STEPS_PER_CHUNK)
            assert "replication 2" in str(info.value)

    def test_ball_projection_is_row_wise(self):
        ball = Ball(np.zeros(2), 1.0)
        rows = np.array([[3.0, 4.0], [0.1, 0.2], [0.0, -2.0]])
        np.testing.assert_array_equal(ball.project(rows), [ball.project(r) for r in rows])


_FQ = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
# every estimator cell the compiled lane kernel covers
KERNEL_ORACLES = {
    "one-point": EstimatorOracle(_FQ, SPSA, UncontrolledNoise(3.0), "one_point"),
    "one-point-sf": EstimatorOracle(_FQ, SF, UncontrolledNoise(1.0), "one_point"),
    "smoothing": EstimatorOracle(_FQ, SURFACE, UncontrolledNoise(3.0), "one_point"),
    "spsa-2pt": EstimatorOracle(_FQ, SPSA, UncontrolledNoise(3.0), "two_point"),
    "sf-2pt": EstimatorOracle(_FQ, SF, UncontrolledNoise(1.0), "two_point"),
    "controlled-slope-0": EstimatorOracle(_FQ, SPSA, additive_controlled(_FQ, 3.0), "two_point"),
    "controlled-slope-1": EstimatorOracle(_FQ, SPSA, additive_controlled(_FQ, 3.0, slope=1.0), "two_point"),
}
# and every oracle of the lower-bound experiment: both arms of both pairs at
# p = 1 and p = 2, where the shift min(eps, c1*delta^p) saturates at eps for
# some of the SCHEDULES' deltas and not for others, and the exact gradient
# of each arm's target
for _cls, _name in (("convex_smooth", "convex"), ("strongly_convex", "sc")):
    for _p in (1.0, 2.0):
        for _arm in hard_pair(_cls, _p, 2.0, 1.0, 1.0, 0.13):
            KERNEL_ORACLES[f"adversarial-{_name}-p{_p:g}{_arm.v:+d}"] = _arm.oracle()
            KERNEL_ORACLES[f"exact-{_name}{_arm.v:+d}"] = ExactGradientOracle(_arm.objective())
# the cells the kernel runs: estimators in both modes, the oracles that
# answer at x in optimization mode (their regret runs take the numpy loop)
KERNEL_CELLS = [
    (kind, mode) for kind, oracle in sorted(KERNEL_ORACLES.items()) for mode in ("optimization", "regret")
    if mode == "optimization" or isinstance(oracle, EstimatorOracle)
]


# every cell whose draws the C fill makes: each scheme, one- and two-point
# (surface is one-point only), uncontrolled noise with sigma = 0 and > 0 and
# additive controlled noise (two-point only), and the adversarial oracles
# of both arms of both pairs
DRAW_ORACLES = {
    f"{scheme.kind}-{feedback}-{name}": EstimatorOracle(_FQ, scheme, noise, feedback)
    for scheme in (SPSA, SURFACE, RDSA, SF)
    for feedback in ("one_point", "two_point")
    for name, noise in (("sigma0", UncontrolledNoise(0.0)), ("sigma3", UncontrolledNoise(3.0)),
                        ("controlled", additive_controlled(_FQ, 3.0, slope=1.0)))
    if not (scheme is SURFACE and feedback == "two_point") and not (name == "controlled" and feedback == "one_point")
}
DRAW_ORACLES.update({k: o for k, o in KERNEL_ORACLES.items() if k.startswith("adversarial")})


def _draw_both(oracle, schedules, horizons, seed):
    """Every chunk's draws of a kernel run, (C fill, numpy steppers), each
    as run() would pass them to the kernel, and the lane generators of each
    side after the last chunk."""
    widths = solver._compiled_chunk(oracle, oracle.target.domain, False, False)[3]
    gens_c, gens_np = ([RngStream(seed, i).generator() for i in range(len(horizons))] for _ in range(2))
    c_draws = solver._c_draws(oracle, widths, gens_c, horizons, schedules)
    assert c_draws is not None
    steppers = [oracle.make_stepper(h - 1, s.delta, g) for h, s, g in zip(horizons, schedules, gens_np)]
    ends, live, t, chunks = np.array(horizons) - 1, np.arange(len(horizons)), 0, []
    for m in chunk_sizes(max(horizons) - 1):
        keep = ends[live] > t
        live = live[keep]
        c_draws.retain(keep)
        steppers = [stepper for stepper, k in zip(steppers, keep) if k]
        chunks.append(([a.copy() for a in c_draws.chunk(m)], solver._next_chunk(steppers, m)))
        t += m
    return chunks, gens_c, gens_np


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).reshape(-1).view(np.int64)


def _counted_kernel(calls: list):
    """Patch in the compiled kernel, appending the lane count of each call
    to ``calls``; skips where no kernel can be built."""
    real = _lanes.kernel()
    if real is None:
        pytest.skip("the lane kernel cannot be built here")

    def counted(m, lanes, *rest):
        calls.append(lanes)
        return real(m, lanes, *rest)

    return mock.patch.object(_lanes, "kernel", lambda: counted)


def _numpy_loop():
    return mock.patch.object(_lanes, "kernel", lambda: None)


@pytest.fixture
def kernel_calls():
    """The lane counts of the kernel calls the test makes."""
    calls = []
    with _counted_kernel(calls):
        yield calls


class _Inflated(EstimatorOracle):
    """Probes three times farther from x than its delta allows."""

    def _scaled(self, u, delta):
        du, w = super()._scaled(u, delta)
        return 3.0 * du, w


class _WideDraws(EstimatorOracle):
    """Hands the solver two offsets per step where one-point feedback takes one."""

    def make_stepper(self, n, delta, rng):
        return ((np.hstack((du, du)), w, xi) for du, w, xi in super().make_stepper(n, delta, rng))


class TestCompiledKernel:
    @given(
        st.sampled_from(KERNEL_CELLS),
        st.integers(1, 5),
        st.integers(0, 2**16),
        st.integers(2, 3 * STEPS_PER_CHUNK + 300),
        st.lists(st.tuples(st.integers(1, 3 * STEPS_PER_CHUNK + 300), st.integers(0, 2)), min_size=4, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_kernel_equals_numpy_loop(self, cell, lanes, seed, n, others):
        # lane 0 runs to n; the others end at their own horizons, most of
        # them inside a chunk, on their own schedules (so with their own delta)
        kind, mode = cell
        oracle = KERNEL_ORACLES[kind]
        body = oracle.target.domain
        horizons = [n] + [min(h, n) for h, _ in others[:lanes - 1]]
        schedules = [SCHEDULES[0]] + [SCHEDULES[i] for _, i in others[:lanes - 1]]
        gens = lambda: [RngStream(seed, i).generator() for i in range(lanes)]
        calls = []
        with _counted_kernel(calls):
            fast = run(oracle, schedules, n, body, REG, rng=gens(), mode=mode, horizons=horizons)
        assert calls
        with _numpy_loop():
            slow = run(oracle, schedules, n, body, REG, rng=gens(), mode=mode, horizons=horizons)
        np.testing.assert_array_equal(fast.x_hat, slow.x_hat)
        np.testing.assert_array_equal(fast.error, slow.error)
        if mode == "regret":
            np.testing.assert_array_equal(fast.regret, slow.regret)

    @pytest.mark.parametrize("kind", sorted(k for k in KERNEL_ORACLES if k.startswith(("adversarial", "exact"))))
    def test_pair_oracles_equal_numpy_loop_over_three_chunks(self, kind, kernel_calls):
        # one fixed case per lower-bound oracle: the property draws few long
        # runs of each, and a reassociated strongly convex reply passed it
        # in one of two tries.  Six lanes, mixed schedules, horizons ending
        # at once, inside the second and third chunks and at n
        oracle, n = KERNEL_ORACLES[kind], 3 * STEPS_PER_CHUNK + 100
        horizons = [n, 1, 700, 1100, n, 1500]
        schedules = [SCHEDULES[i % 3] for i in range(6)]
        gens = lambda: [RngStream(8, i).generator() for i in range(6)]
        args = (oracle, schedules, n, oracle.target.domain, REG)
        fast = run(*args, rng=gens(), horizons=horizons)
        assert kernel_calls == [5, 5, 4, 2]
        with _numpy_loop():
            slow = run(*args, rng=gens(), horizons=horizons)
        np.testing.assert_array_equal(fast.x_hat, slow.x_hat)
        np.testing.assert_array_equal(fast.error, slow.error)

    @pytest.mark.parametrize("case", [
        "recorded", "recorded-adversarial", "ball", "d2", "separable-d2", "exp-target", "exact",
        "adversarial-regret",
    ])
    def test_other_runs_take_the_numpy_loop(self, case, kernel_calls):
        oracle, body, record = KERNEL_ORACLES["one-point"], _FQ.domain, case.startswith("recorded")
        mode = "regret" if case.endswith("regret") else "optimization"
        if case == "ball":
            body = Ball(np.array([0.5]), 0.5)
        elif case == "d2":
            oracle, body = ORACLES["smoothing-d2"]
        elif case == "separable-d2":
            oracle = scaled_hard_coordinates("convex_smooth", 2.0, 2.0, 1.0, 1.0, 0.1, [+1, -1])
            body = oracle.target.domain
        elif case == "exp-target":
            f = exp_one_d(interval(0.0, 1.0))
            oracle, body = EstimatorOracle(f, SPSA, UncontrolledNoise(1.0), "one_point"), f.domain
        elif case == "exact":  # on a quadratic, not on an arm of a hard pair
            oracle, body = ORACLES["exact"]
        elif case in ("recorded-adversarial", "adversarial-regret"):
            oracle = KERNEL_ORACLES["adversarial-convex-p2+1"]
            body = oracle.target.domain
        run(oracle, SCHEDULES[0], 50, body, REG, rng=[RNG(i) for i in range(3)], mode=mode, record=record)
        assert kernel_calls == []
        run(KERNEL_ORACLES["one-point"], SCHEDULES[0], 50, _FQ.domain, REG, rng=[RNG(i) for i in range(3)])
        assert kernel_calls == [3]

    def test_loader_failure_runs_the_numpy_loop(self, monkeypatch, tmp_path, caplog):
        oracle = KERNEL_ORACLES["controlled-slope-1"]
        gens = lambda: [RngStream(21, i).generator() for i in range(4)]
        args = (oracle, SCHEDULES[1], 700, _FQ.domain, REG)
        expected = run(*args, rng=gens(), mode="regret")
        monkeypatch.setattr(_lanes, "CC", str(tmp_path / "no-such-compiler"))
        monkeypatch.setattr(_lanes, "CACHE", tmp_path / "cache")
        monkeypatch.setattr(_lanes, "_loaded", [])
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            got = run(*args, rng=gens(), mode="regret")
        assert _lanes.kernel() is None
        assert "lane kernel unavailable" in caplog.text and "numpy loop" in caplog.text
        np.testing.assert_array_equal(got.x_hat, expected.x_hat)
        np.testing.assert_array_equal(got.error, expected.error)
        np.testing.assert_array_equal(got.regret, expected.regret)

    def test_fresh_cache_builds_the_library(self, monkeypatch, tmp_path):
        if _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built here")
        monkeypatch.setattr(_lanes, "CACHE", tmp_path / "cache")
        monkeypatch.setattr(_lanes, "_loaded", [])
        assert _lanes.kernel() is not None
        built = list((tmp_path / "cache").iterdir())
        assert [p.name for p in built] == [_lanes._library_path().name]  # no temporary file left

    def test_infinite_noise_names_its_lane(self, kernel_calls):
        # lane 0 ends at once, so lane 1 is the first row of the kernel's state
        oracle = EstimatorOracle(_FQ, SPSA, UncontrolledNoise(math.inf), "one_point")
        with pytest.raises(NonFiniteIterate) as info:
            run(oracle, SCHEDULES[0], 100, _FQ.domain, REG, rng=[RNG(i) for i in range(3)], horizons=[1, 100, 100])
        assert kernel_calls == [2]
        assert (info.value.lane, info.value.first, info.value.last) == (1, 1, 99)
        assert "replication 1" in str(info.value)

    @pytest.mark.parametrize("kind", ["adversarial-convex-p2+1", "adversarial-sc-p1-1"])
    def test_infinite_adversarial_noise_names_its_lane(self, kind, kernel_calls):
        # c2 = inf makes the noise, and so the step, infinite
        inst = KERNEL_ORACLES[kind].instance
        oracle = dataclasses.replace(inst, envelope=dataclasses.replace(inst.envelope, c2=math.inf)).oracle()
        with pytest.raises(NonFiniteIterate) as info:
            run(oracle, SCHEDULES[0], 100, oracle.target.domain, REG, rng=[RNG(i) for i in range(3)],
                horizons=[1, 100, 100])
        assert kernel_calls == [2]
        assert (info.value.lane, info.value.first, info.value.last) == (1, 1, 99)
        assert "replication 1" in str(info.value)

    def test_numpy_tanh_ignores_its_buffer_layout(self):
        # the kernel hands numpy's tanh loop the tanh arguments of all lanes
        # in one interleaved buffer, where the numpy loop takes each arm's
        # column: its parity rests on numpy's tanh giving each value the
        # same bits, on the values the loader checks the bound loop on
        values = _lanes.tanh_premise()
        assert values.size == 8008
        alone = np.array([np.tanh(np.array([[v]]))[0, 0] for v in values])
        column = np.tanh(values[:, None])[:, 0]
        interleaved = np.stack((values, values[::-1]), axis=1)
        np.tanh(interleaved, out=interleaved)
        bits = lambda a: np.ascontiguousarray(a).view(np.int64)
        np.testing.assert_array_equal(bits(column), bits(alone))
        np.testing.assert_array_equal(bits(interleaved[:, 0]), bits(alone))
        np.testing.assert_array_equal(bits(interleaved[::-1, 1]), bits(alone))

    def test_tanh_check_sees_one_bit(self):
        # the loader's check of the bound loop passes np.tanh itself, and
        # fails libm's tanh and a loop one bit off on one value alone
        assert _lanes._tanh_mismatch(lambda n, pieces, count, x: np.tanh(x, out=x)) is None

        def libm(n, pieces, count, x):
            x[:] = [math.tanh(v) for v in x]

        def off_alone(n, pieces, count, x):
            np.tanh(x, out=x)
            if list(pieces) == [1]:
                x[100] = np.nextafter(x[100], np.inf)

        assert _lanes._tanh_mismatch(libm) == "it differs from np.tanh alone"
        assert _lanes._tanh_mismatch(off_alone) == "it differs from np.tanh alone"

    def test_kernel_holds_numpy_tanh(self):
        # Python.h is looked up where sysconfig puts it, without sysconfig
        assert _lanes.PYTHON_H == Path(sysconfig.get_path("include")) / "Python.h"
        if not (_lanes.PYTHON_H.is_file() and _lanes.UFUNCOBJECT_H.is_file()) or _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built against Python's and numpy's headers here")
        assert _lanes.tanh_bound()

    def test_kernel_loads_once_under_threads(self, monkeypatch):
        # four threads make their first kernel call together; a sleep in the
        # load and a short switch interval widen the window between the
        # check for a loaded library and the load
        if _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built here")
        loads, real = [], _lanes._load

        def slow_load():
            loads.append(threading.get_ident())
            time.sleep(0.05)
            return real()

        monkeypatch.setattr(_lanes, "_loaded", [])
        monkeypatch.setattr(_lanes, "_load", slow_load)
        start, got = threading.Barrier(4), [None] * 4

        def first_call(i):
            start.wait(timeout=10)
            got[i] = _lanes.kernel()

        threads = [threading.Thread(target=first_call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(loads) == 1
        assert got[0] is not None and all(fn is got[0] for fn in got)

    @pytest.mark.parametrize("path, scheme", [("kernel", SPSA), ("numpy", SPSA), ("d2", SURFACE), ("d2", SPSA)])
    def test_offsets_beyond_delta_raise(self, path, scheme):
        # 3 delta out: beyond delta under the Euclidean norm (surface) and the max norm (spsa)
        f = quadratic([1.0, 2.0], [-0.5, 0.3]) if path == "d2" else _FQ
        oracle = _Inflated(f, scheme, UncontrolledNoise(1.0), "one_point")
        honest = EstimatorOracle(f, oracle.scheme, oracle.noise, "one_point")
        args = (SCHEDULES[0], 600, f.domain, REG)
        calls = []
        with _counted_kernel(calls) if path == "kernel" else _numpy_loop():
            run(honest, *args, rng=[RNG(i) for i in range(3)])
            with pytest.raises(DomainError, match="lane 0: evaluation point escaped the delta-vicinity at step 1"):
                run(oracle, *args, rng=[RNG(i) for i in range(3)])
        assert len(calls) == (3 if path == "kernel" else 0)  # two chunks, then one that raises

    def test_draws_that_do_not_fit_are_rejected(self, kernel_calls):
        oracle = _WideDraws(_FQ, SPSA, UncontrolledNoise(1.0), "one_point")
        with pytest.raises(DomainError, match="do not fit the lane kernel"):
            run(oracle, SCHEDULES[0], 100, _FQ.domain, REG, rng=[RNG(i) for i in range(2)])
        assert kernel_calls == []

    @given(
        st.sampled_from(sorted(DRAW_ORACLES)),
        st.integers(0, 2**16),
        st.integers(3 * STEPS_PER_CHUNK + 2, 4 * STEPS_PER_CHUNK + 300),
        st.lists(st.tuples(st.integers(1, 4 * STEPS_PER_CHUNK + 300), st.integers(0, 2)), min_size=0, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_c_draws_equal_the_numpy_steppers(self, kind, seed, n, others):
        # lane 0 runs to n, over three chunks and more; up to five more lanes
        # end at their own horizons, most of them inside a chunk, on their
        # own schedules (so with their own delta and noise scale)
        if _lanes.lane_draws() is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        horizons = [n] + [min(h, n) for h, _ in others]
        schedules = [SCHEDULES[0]] + [SCHEDULES[i] for _, i in others]
        chunks, gens_c, gens_np = _draw_both(DRAW_ORACLES[kind], schedules, horizons, seed)
        assert len(chunks) >= 4
        for fast, slow in chunks:
            assert len(fast) == len(slow)
            for a, b in zip(fast, slow):
                np.testing.assert_array_equal(_bits(a), _bits(b))
        assert [g.bit_generator.state for g in gens_c] == [g.bit_generator.state for g in gens_np]

    @pytest.mark.parametrize("kind", sorted(DRAW_ORACLES))
    def test_c_draws_leave_each_generator_as_the_numpy_path_does(self, kind, caplog):
        # six lanes, mixed schedules, horizons ending at once, inside the
        # second and third chunks and at n
        if _lanes.lane_draws() is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        oracle, n = DRAW_ORACLES[kind], 3 * STEPS_PER_CHUNK + 100
        horizons = [n, 1, 700, 1100, n, 1500]
        schedules = [SCHEDULES[i % 3] for i in range(6)]
        mode = "optimization" if kind.startswith("adversarial") else "regret"
        gens_c, gens_np = ([RngStream(8, i).generator() for i in range(6)] for _ in range(2))
        args = (oracle, schedules, n, oracle.target.domain, REG)
        with caplog.at_level(logging.DEBUG, logger="zograd.solver"):
            fast = run(*args, rng=gens_c, horizons=horizons, mode=mode)
        assert "on the compiled lane kernel, draws in C" in caplog.text
        with _numpy_loop():
            slow = run(*args, rng=gens_np, horizons=horizons, mode=mode)
        np.testing.assert_array_equal(fast.x_hat, slow.x_hat)
        np.testing.assert_array_equal(fast.error, slow.error)
        np.testing.assert_array_equal(fast.regret, slow.regret)
        assert [g.bit_generator.state for g in gens_c] == [g.bit_generator.state for g in gens_np]

    @pytest.mark.parametrize("case", ["wrapped-stepper", "own-noise", "shared-generator"])
    def test_draw_path_is_decided_per_run(self, case, caplog):
        # a wrapper set on the class that states the spec (a tracer's) keeps
        # the C draws; a subclass that redefines a draw method, or a
        # generator driving two lanes, takes the numpy steppers
        if _lanes.lane_draws() is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        oracle, gens = KERNEL_ORACLES["spsa-2pt"], [RNG(i) for i in range(3)]
        patch = contextlib.nullcontext()
        if case == "wrapped-stepper":
            real = EstimatorOracle.make_stepper
            patch = mock.patch.object(EstimatorOracle, "make_stepper", functools.wraps(real)(
                lambda self, *a: real(self, *a)))
        elif case == "own-noise":
            class OwnNoise(EstimatorOracle):
                def _noise(self, rng, shape):
                    return super()._noise(rng, shape)

            oracle = OwnNoise(oracle.target, oracle.scheme, oracle.noise, oracle.feedback)
        else:
            gens[2] = gens[0]
        with patch, caplog.at_level(logging.DEBUG, logger="zograd.solver"):
            run(oracle, SCHEDULES[0], 600, _FQ.domain, REG, rng=gens)
        expected = "in C" if case == "wrapped-stepper" else "from the numpy steppers"
        assert f"on the compiled lane kernel, draws {expected}" in caplog.text

    def test_library_key_follows_numpy(self, monkeypatch, tmp_path):
        # the library embeds numpy's samplers: another numpy version or
        # other sampler bytes must build a library of their own
        if not (_lanes.NPYRANDOM.is_file() and _lanes.BITGEN_H.is_file()):
            pytest.skip("numpy's sampler library or header is missing here")
        base = _lanes._library_path()
        monkeypatch.setattr(np, "__version__", np.__version__ + "+other")
        assert _lanes._library_path() != base
        monkeypatch.undo()
        archive = tmp_path / "libnpyrandom.a"
        archive.write_bytes(_lanes.NPYRANDOM.read_bytes())
        monkeypatch.setattr(_lanes, "NPYRANDOM", archive)
        same_bytes = _lanes._library_path()
        archive.write_bytes(archive.read_bytes() + b"\n")
        assert _lanes._library_path() != same_bytes

    def test_library_key_follows_python_and_the_ufunc_headers(self, monkeypatch, tmp_path):
        # the library reads np.tanh's loop table through these headers:
        # another Python or other header bytes must build a library of their own
        if not (_lanes.PYTHON_H.is_file() and _lanes.UFUNCOBJECT_H.is_file()):
            pytest.skip("Python's or numpy's ufunc header is missing here")
        base = _lanes._library_path()
        monkeypatch.setattr(sys, "version", sys.version + "+other")
        assert _lanes._library_path() != base
        monkeypatch.undo()
        for name in ("PYTHON_H", "UFUNCOBJECT_H"):
            header = tmp_path / name / getattr(_lanes, name).name
            header.parent.mkdir()
            header.write_bytes(getattr(_lanes, name).read_bytes())
            monkeypatch.setattr(_lanes, name, header)
            same_bytes = _lanes._library_path()
            header.write_bytes(header.read_bytes() + b"\n")
            assert _lanes._library_path() != same_bytes, name
            monkeypatch.undo()

    @pytest.mark.parametrize("missing", ["NPYRANDOM", "BITGEN_H"])
    def test_missing_sampler_file_draws_with_numpy(self, missing, monkeypatch, tmp_path, caplog):
        if _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built here")
        oracle = KERNEL_ORACLES["controlled-slope-1"]
        gens = lambda: [RngStream(21, i).generator() for i in range(4)]
        args = (oracle, SCHEDULES[1], 700, _FQ.domain, REG)
        expected = run(*args, rng=gens(), mode="regret")
        monkeypatch.setattr(_lanes, missing, tmp_path / "no-such-file")
        monkeypatch.setattr(_lanes, "CACHE", tmp_path / "cache")
        monkeypatch.setattr(_lanes, "_loaded", [])
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            got = run(*args, rng=gens(), mode="regret")
            again = run(*args, rng=gens(), mode="regret")
        assert _lanes.kernel() is not None and _lanes.lane_draws() is None
        assert caplog.text.count("C draws unavailable, the numpy steppers draw") == 1
        assert caplog.text.count("on the compiled lane kernel, draws from the numpy steppers") == 2
        for trace in (got, again):
            np.testing.assert_array_equal(trace.x_hat, expected.x_hat)
            np.testing.assert_array_equal(trace.error, expected.error)
            np.testing.assert_array_equal(trace.regret, expected.regret)
