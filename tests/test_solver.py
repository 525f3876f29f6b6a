import contextlib
import ctypes
import functools
import logging
import math
import shutil
import subprocess
import sys
import sysconfig
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zograd import _lanes, _lanes_build, _lanes_probe, solver
from zograd.adversarial import AdversarialOracle, HardInstance, hard_pair, scaled_hard_coordinates
from zograd.core import (EUCLIDEAN, MAX_NORM, STEPS_PER_CHUNK, Box, DomainError, OracleEnvelope, RngStream,
                         chunk_sizes, draw_chunks, interval)
from zograd.estimators import (
    ControlledNoise,
    EstimatorOracle,
    ExactGradientOracle,
    RDSA,
    SF,
    SPSA,
    SURFACE,
    UncontrolledNoise,
)
from zograd.harness import checks
from zograd.harness.experiments import parse_oracle_spec
from zograd.harness.probes import _moments, probe_bias_variance
from zograd.solver import (
    NonFiniteIterate,
    Schedule,
    divergence_diameter,
    manual_schedule,
    optimization_rate_exponent,
    prox_inequality_gap,
    regret_bias_coefficient,
    regret_rate_exponent,
    run,
    schedule_opt_convex,
    schedule_opt_sc,
    schedule_regret,
)
from zograd.testbed import exp_one_d, kinked_quadratic, quadratic, softabs

from conftest import _script
from instruments import NoTables, lane_draws, library_replies, value_at

RNG = lambda i: RngStream(55, i).generator()


class TestDivergenceDiameter:
    def test_diameter_box(self):
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        assert divergence_diameter(box) == pytest.approx(4.0)  # ||(2,2)||^2 / 2

    def test_diameter_of_an_uneven_3d_box(self):
        box = Box(np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 5.0]))
        assert divergence_diameter(box) == 7.0  # ||(1,2,3)||^2 / 2


class TestMdStep:
    def test_zero_gradient_keeps_point(self):
        box = interval(-1.0, 1.0)
        np.testing.assert_array_equal(box.project(np.array([0.4]) - 0.1 * np.zeros(1)), [0.4])

    def test_interior_gradient_step(self):
        box = Box(-np.ones(2), np.ones(2))
        np.testing.assert_allclose(
            box.project(np.zeros(2) - 0.1 * np.array([1.0, 0.0])), [-0.1, 0.0]
        )

    def test_step_clamped_at_boundary(self):
        box = Box(-np.ones(2), np.ones(2))
        np.testing.assert_allclose(
            box.project(np.array([0.95, 0.0]) - 0.1 * np.array([-1.0, 0.0])), [1.0, 0.0]
        )

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
        x_next = body.project(x - eta * g)
        probes = np.linspace(-1.0, 1.0, 25).reshape(-1, 1)
        assert prox_inequality_gap(x, g, eta, x_next, probes) <= 1e-9


class TestStackedProxGap:
    """Steps stacked on a leading axis give the max of one call per step, bit for bit."""

    @staticmethod
    def _check_trace(f, oracle, seed):
        # as `zograd check` records its run: 500 steps, 100 probes from their own stream
        schedule = schedule_opt_convex(1.0, 2.0, oracle.envelope.c1, oracle.envelope.c2, 2.0, 1.0, 1.0, 500)
        trace = run(oracle, schedule, 500, rng=RngStream(4242, seed).generator(), record=True)
        probes = RngStream(4242, seed + 1).generator().uniform(-1.0, 1.0, size=(100, f.dim))
        return trace, probes

    @staticmethod
    def _per_step(xs, gs, etas, probes):
        return max(prox_inequality_gap(xs[t], gs[t], etas[t], xs[t + 1], probes) for t in range(len(gs)))

    @pytest.mark.parametrize("a", [[1.0], [1.0, 2.0]], ids=["check", "2-d"])
    def test_equals_the_max_of_per_step_calls(self, a):
        f = quadratic(a)
        trace, probes = self._check_trace(f, EstimatorOracle(f, SPSA, UncontrolledNoise(1.0), "two_point"), 3)
        stacked = prox_inequality_gap(trace.xs[:-1, None], trace.gs[:, None], trace.etas[:, None],
                                      trace.xs[1:, None], probes)
        assert stacked == self._per_step(trace.xs, trace.gs, trace.etas, probes)
        if a == [1.0]:
            assert f"{stacked:.1e}" == "4.4e-14"  # the check's printed worst gap

    def test_one_stacked_step_is_the_single_call(self):
        f = quadratic([1.0])
        trace, probes = self._check_trace(f, EstimatorOracle(f, SPSA, UncontrolledNoise(1.0), "two_point"), 3)
        t = 17
        single = prox_inequality_gap(trace.xs[t], trace.gs[t], trace.etas[t], trace.xs[t + 1], probes)
        stacked = prox_inequality_gap(trace.xs[t:t + 1, None], trace.gs[t:t + 1, None],
                                      trace.etas[t:t + 1, None], trace.xs[t + 1:t + 2, None], probes)
        assert stacked == single

    def test_one_step_off_its_prox_point_shows(self):
        f = quadratic([1.0])
        trace, probes = self._check_trace(f, EstimatorOracle(f, SPSA, UncontrolledNoise(1.0), "two_point"), 3)
        xs = trace.xs.copy()
        xs[250] += 0.05
        stacked = prox_inequality_gap(xs[:-1, None], trace.gs[:, None], trace.etas[:, None], xs[1:, None],
                                      probes)
        assert stacked == self._per_step(xs, trace.gs, trace.etas, probes) > 1e-3


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
        assert s.eta_array(2)[0] == pytest.approx(1.0)  # alpha / L

    def test_opt_sc_precondition(self):
        # alpha*mu must clear 2L for the step accounting to start at t = 1
        s = schedule_opt_sc(2.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0, 1000)
        assert s.eta_array(11)[0] == pytest.approx(2.0)
        assert s.eta_array(11)[9] == pytest.approx(0.2)
        with pytest.raises(DomainError):
            schedule_opt_sc(2.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1000)

    def test_delta_out_of_range(self):
        for delta in (0.0, -0.1, 1.5, math.nan):
            with pytest.raises(DomainError, match="schedule delta must be in"):
                manual_schedule(delta, ("const", 0.1))

    def test_opt_sc_takes_q_zero_as_its_siblings_do(self):
        # q = 0 is the envelope of the exact oracle and of controlled noise
        args = (2.0, 4.0, 1.0, 1.0, 1000)  # D, alpha, mu, L, n
        exact = schedule_opt_sc(1.0, 0.0, 0.0, 0.0, *args)
        assert exact.delta == solver._DELTA_FLOOR and exact.notes == ("degenerate bias coefficient: delta pinned",)
        controlled = schedule_opt_sc(1.0, 0.0, 0.5, 3.0, *args)
        log_factor = math.log(1000) + 1.0 + 4.0 / (4.0 - 2.0)
        assert controlled.delta == pytest.approx(3.0 * log_factor / (math.sqrt(2.0 * 2.0 * 4.0) * 0.5 * 1000))
        assert schedule_opt_convex(1.0, 0.0, 0.5, 3.0, 2.0, 4.0, 1.0, 1000).delta > 0
        assert schedule_regret(1.0, 0.0, 0.5, 3.0, 2.0, 4.0, 1.0, 1.0, 1000, strongly_convex=True).delta > 0
        with pytest.raises(DomainError, match="schedule inputs"):
            schedule_opt_sc(1.0, -0.5, 0.5, 3.0, *args)

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


class TestVicinity:
    """``_check_vicinity``, the check of each chunk's evaluation points."""

    def test_vicinity_enforced(self):
        # (steps, lanes, d) = (2, 3, 1); the live lanes are 4, 5 and 7 from step 10
        offsets = np.full((2, 3, 1), 0.1)
        solver._check_vicinity(offsets, 0.1, EUCLIDEAN, np.array([4, 5, 7]), 10)
        offsets[1, 2, 0] = -0.2
        with pytest.raises(DomainError, match=r"lane 7: evaluation point escaped the delta-vicinity at step 11: "
                                              r"\|\|x-y\|\|=0.2 > 0.1"):
            solver._check_vicinity(offsets, 0.1, EUCLIDEAN, np.array([4, 5, 7]), 10)

    def test_vicinity_max_norm(self):
        # the max-norm ball holds the corners that the Euclidean ball refuses
        corner = np.full((1, 1, 2), 0.5)
        solver._check_vicinity(corner, 0.5, MAX_NORM, np.array([0]), 1)
        with pytest.raises(DomainError, match="lane 0: evaluation point escaped the delta-vicinity at step 1"):
            solver._check_vicinity(corner, 0.5, EUCLIDEAN, np.array([0]), 1)

    def test_vicinity_per_lane_delta(self):
        # a (lanes, 1) column of deltas: each lane is held to its own
        offsets = np.full((1, 3, 1), 0.2)
        solver._check_vicinity(offsets, np.array([[0.2], [0.3], [0.2]]), EUCLIDEAN, np.arange(3), 1)
        with pytest.raises(DomainError, match=r"lane 1: .* > 0.1$"):
            solver._check_vicinity(offsets, np.array([[0.2], [0.1], [0.2]]), EUCLIDEAN, np.arange(3), 1)


class TestRun:
    def test_single_round_returns_start(self):
        f = quadratic([1.0])
        tr = run(ExactGradientOracle(f), manual_schedule(0.5, ("const", 0.1)), 1,
                 x1=np.array([0.7]), rng=RNG(0))
        np.testing.assert_array_equal(tr.x_hat, [0.7])

    def test_zero_gradient_oracle_stays_put(self):
        f = quadratic([0.0], [0.0])
        tr = run(ExactGradientOracle(f), manual_schedule(0.5, ("const", 0.1)), 100,
                 x1=np.array([0.3]), rng=RNG(1), record=True)
        assert np.all(tr.xs == 0.3)

    def test_exact_gradient_strongly_convex_bound(self):
        # eta_t = 2/t with a noiseless oracle: averaged error <= (f(x1)-f*)/n
        f = quadratic([1.0])
        n = 1000
        tr = run(ExactGradientOracle(f), manual_schedule(1e-6, ("inv_t", 1.0)), n,
                 x1=np.array([1.0]), rng=RNG(2))
        assert tr.error <= 2.0 / n

    def test_feasibility_and_averaging(self):
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        o = EstimatorOracle(f, SPSA, UncontrolledNoise(2.0), "one_point")
        tr = run(o, manual_schedule(0.3, ("poly", 1.0, 0.75, 1.0, 1.0)), 500,
                 rng=RNG(3), record=True)
        assert np.all(tr.xs >= 0.0) and np.all(tr.xs <= 1.0)
        np.testing.assert_allclose(tr.x_hat, tr.xs.mean(axis=0), atol=1e-12)
        # Jensen: the averaged point cannot beat the average loss
        assert value_at(f, tr.x_hat) <= float(np.mean(tr.losses_x)) + 1e-12

    def test_prox_inequality_along_trajectory(self):
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        o = EstimatorOracle(f, SURFACE, UncontrolledNoise(1.0), "one_point")
        s = schedule_opt_convex(2.0, 2.0, o.envelope.c1, o.envelope.c2, 0.5, 1.0, 1.0, 400,
                                o.envelope.oracle_type)
        tr = run(o, s, 400, rng=RNG(4), record=True)
        probes = RNG(5).uniform(0.0, 1.0, size=(100, 1))
        for t in range(tr.n - 1):
            assert prox_inequality_gap(tr.xs[t], tr.gs[t], tr.etas[t], tr.xs[t + 1], probes) <= 1e-8

    def test_noiseless_sanity_bound(self):
        # exact oracle + convex schedule: error within the transient bound
        f = quadratic([1.0])
        n = 1000
        s = schedule_opt_convex(2.0, 2.0, 0.0, 0.0, divergence_diameter(f.domain), 1.0, f.smoothness, n)
        tr = run(ExactGradientOracle(f), s, n, x1=np.array([1.0]), rng=RNG(6))
        bound = (value_at(f, np.array([1.0])) - f.f_star + divergence_diameter(f.domain) * f.smoothness) / n
        assert tr.error <= bound + 1e-12

    def test_regret_mode_accumulates(self):
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        o = EstimatorOracle(f, SURFACE, UncontrolledNoise(1.0), "one_point")
        tr = run(o, manual_schedule(0.2, ("const", 0.01)), 200, rng=RNG(7), mode="regret")
        assert tr.regret is not None and tr.regret > 0

    @pytest.mark.parametrize("feedback, noise", [
        ("one_point", UncontrolledNoise(1.0)), ("two_point", UncontrolledNoise(1.0)), ("two_point", "controlled"),
    ])
    def test_regret_charges_the_evaluation_points(self, feedback, noise):
        # the loss of a round is f at y, or the mean of f at both arms
        # x +- delta*u (y and 2x - y) for two-point feedback
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        noise = ControlledNoise(1.0) if noise == "controlled" else noise
        o = EstimatorOracle(f, SPSA, noise, feedback)
        tr = run(o, manual_schedule(0.2, ("const", 0.05)), 300, rng=RNG(11), mode="regret",
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
            tr = run(ExactGradientOracle(f), manual_schedule(0.2, ("inv_t", 1.0)), n, rng=RNG(10), mode="regret")
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

        tr = run(BiasedY(), manual_schedule(0.2, ("const", 0.01)), 10,
                 rng=RNG(8), mode="regret")
        assert any("biased" in w for w in tr.warnings)

    def test_infeasible_start_rejected(self):
        f = quadratic([1.0])
        with pytest.raises(DomainError):
            run(ExactGradientOracle(f), manual_schedule(0.2, ("const", 0.01)), 10,
                x1=np.array([3.0]), rng=RNG(9))

    def test_lane_and_recorded_paths_agree(self):
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        o = EstimatorOracle(f, SPSA, UncontrolledNoise(1.0), "two_point")
        s = manual_schedule(0.25, ("poly", 2.0, 0.75, 1.0, 1.0))
        lanes = run(o, s, 300, rng=[RngStream(12, i).generator() for i in range(5)])
        with _numpy_loop():
            slow = run(o, s, 300, rng=RngStream(12, 3).generator(), record=True)
        np.testing.assert_array_equal(_bits(lanes.x_hat[3]), _bits(slow.x_hat))
        np.testing.assert_array_equal(_bits(lanes.error[3]), _bits(slow.error))


def _oracles():
    """One oracle of every kind the solver runs, 1-d and d > 1."""
    fq = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
    f2 = quadratic([1.0, 2.0], [-0.5, 0.3])
    convex, _ = hard_pair("convex_smooth", 2.0, 2.0, 1.0, 1.0, 0.1)
    _, sc = hard_pair("strongly_convex", 1.0, 2.0, 1.0, 1.0, 0.2)
    return {
        "one-point": EstimatorOracle(fq, SPSA, UncontrolledNoise(3.0), "one_point"),
        "smoothing": EstimatorOracle(fq, SURFACE, UncontrolledNoise(3.0), "one_point"),
        "spsa-2pt": EstimatorOracle(fq, SPSA, UncontrolledNoise(3.0), "two_point"),
        "spsa-controlled": EstimatorOracle(fq, SPSA, ControlledNoise(3.0, slope=1.0), "two_point"),
        "sf-2pt-d2": EstimatorOracle(f2, SF, UncontrolledNoise(1.0), "two_point"),
        "smoothing-d2": EstimatorOracle(f2, SURFACE, UncontrolledNoise(1.0), "one_point"),
        "exact": ExactGradientOracle(fq),
        "adversarial-convex": AdversarialOracle(convex),
        "adversarial-sc": AdversarialOracle(sc),
        "separable-d4": scaled_hard_coordinates("strongly_convex", 1.0, 2.0, 1.0, 1.0, 0.2, [+1, -1, +1, -1]),
    }


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
        oracle = ORACLES[kind]
        horizons = [n] + [min(h, n) for h, _ in others[:lanes - 1]]
        schedules = [SCHEDULES[0]] + [SCHEDULES[i] for _, i in others[:lanes - 1]]
        gens = lambda: [RngStream(seed, i).generator() for i in range(lanes)]
        multi = run(oracle, schedules, n, rng=gens(), mode=mode, horizons=horizons)
        assert multi.x_hat.shape == (lanes, oracle.dim)
        for lane, g in enumerate(gens()):
            single = run(oracle, schedules[lane], horizons[lane], rng=g, mode=mode)
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
            run(ExactGradientOracle(f), SCHEDULES[0], 10, rng=gens, horizons=[5, 8])
        with pytest.raises(DomainError, match="one entry per lane"):
            run(ExactGradientOracle(f), SCHEDULES[:1], 10, rng=gens)

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
                run(PoisonedLane(bad), manual_schedule(0.2, ("const", 0.01)), 3 * STEPS_PER_CHUNK,
                    rng=gens)
            assert info.value.lane == 2
            assert (info.value.first, info.value.last) == (STEPS_PER_CHUNK + 1, 2 * STEPS_PER_CHUNK)
            assert "replication 2" in str(info.value)

    @pytest.mark.parametrize("box", [Box(np.zeros(2), np.array([1.0, 2.0])), interval(-0.5, 0.5)])
    def test_box_projection_is_row_wise(self, box):
        rows = np.array([[3.0, 4.0], [0.1, 0.2], [0.0, -2.0]])[:, :box.dim]
        np.testing.assert_array_equal(box.project(rows), [box.project(r) for r in rows])


_FQ = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
# every estimator cell the compiled lane kernel covers
KERNEL_ORACLES = {
    "one-point": EstimatorOracle(_FQ, SPSA, UncontrolledNoise(3.0), "one_point"),
    "one-point-sf": EstimatorOracle(_FQ, SF, UncontrolledNoise(1.0), "one_point"),
    "smoothing": EstimatorOracle(_FQ, SURFACE, UncontrolledNoise(3.0), "one_point"),
    "spsa-2pt": EstimatorOracle(_FQ, SPSA, UncontrolledNoise(3.0), "two_point"),
    "sf-2pt": EstimatorOracle(_FQ, SF, UncontrolledNoise(1.0), "two_point"),
    "controlled-slope-0": EstimatorOracle(_FQ, SPSA, ControlledNoise(3.0), "two_point"),
    "controlled-slope-1": EstimatorOracle(_FQ, SPSA, ControlledNoise(3.0, slope=1.0), "two_point"),
    "controlled-slope-0.5-sf": EstimatorOracle(_FQ, SF, ControlledNoise(3.0, slope=0.5), "two_point"),
}
# and every oracle of the lower-bound experiment: both arms of both pairs at
# p = 1 and p = 2, where the shift min(eps, c1*delta^p) saturates at eps for
# some of the SCHEDULES' deltas and not for others, and the exact gradient
# of each arm's target
for _cls, _name in (("convex_smooth", "convex"), ("strongly_convex", "sc")):
    for _p in (1.0, 2.0):
        for _arm in hard_pair(_cls, _p, 2.0, 1.0, 1.0, 0.13):
            KERNEL_ORACLES[f"adversarial-{_name}-p{_p:g}{_arm.v:+d}"] = AdversarialOracle(_arm)
            KERNEL_ORACLES[f"exact-{_name}{_arm.v:+d}"] = ExactGradientOracle(_arm.objective())
# the cells the kernel runs: estimators in both modes, the oracles that
# answer at x in optimization mode (their regret runs take the numpy loop)
KERNEL_CELLS = [
    (kind, mode) for kind, oracle in sorted(KERNEL_ORACLES.items()) for mode in ("optimization", "regret")
    if mode == "optimization" or isinstance(oracle, EstimatorOracle)
]


# every cell whose draws the C fill makes: each scheme, one- and two-point
# (surface is one-point only), uncontrolled noise with sigma = 0 and > 0 and
# controlled noise (two-point only), and the adversarial oracles
# of both arms of both pairs
DRAW_ORACLES = {
    f"{scheme.kind}-{feedback}-{name}": EstimatorOracle(_FQ, scheme, noise, feedback)
    for scheme in (SPSA, SURFACE, RDSA, SF)
    for feedback in ("one_point", "two_point")
    for name, noise in (("sigma0", UncontrolledNoise(0.0)), ("sigma3", UncontrolledNoise(3.0)),
                        ("controlled", ControlledNoise(3.0, slope=1.0)))
    if not (scheme is SURFACE and feedback == "two_point") and not (name == "controlled" and feedback == "one_point")
}
DRAW_ORACLES.update({k: o for k, o in KERNEL_ORACLES.items() if k.startswith("adversarial")})


class TestDrawRule:
    # an estimator's directions read the lane's generator; its noise reads
    # the twin of that generator jumped once, from its state at the start
    @pytest.mark.parametrize("kind", sorted(k for k, o in DRAW_ORACLES.items() if isinstance(o, EstimatorOracle)))
    def test_stepper_reads_directions_from_rng_and_noise_from_its_jumped_twin(self, kind):
        oracle, n, delta = DRAW_ORACLES[kind], 2 * STEPS_PER_CHUNK + 100, 0.3
        rng, start = RNG(4), RNG(4)
        du, w, xi = (np.concatenate(part) for part in zip(*oracle.make_stepper(n, delta, rng)))
        want_du, want_w = oracle._scaled(oracle.scheme.sample_u(1, start, n), delta)
        twin = np.random.Generator(RNG(4).bit_generator.jumped())
        np.testing.assert_array_equal(_bits(du), _bits(want_du))
        np.testing.assert_array_equal(_bits(w), _bits(want_w))
        np.testing.assert_array_equal(_bits(xi), _bits(oracle._noise(twin, (n, *oracle._noise_shape()))))
        assert rng.bit_generator.state == start.bit_generator.state  # past the directions only

    @pytest.mark.parametrize("kind", sorted(k for k in DRAW_ORACLES if not k.endswith("sigma0")))
    def test_recorded_iterates_do_not_depend_on_the_horizon(self, kind):
        # the first h iterates of a run to 2h are those of the run to h
        oracle, h = DRAW_ORACLES[kind], STEPS_PER_CHUNK + 100
        with _numpy_loop():
            short, long = [run(oracle, SCHEDULES[0], n, rng=RNG(6), record=True)
                           for n in (h, 2 * h)]
        assert short.xs.shape[0] == h
        np.testing.assert_array_equal(_bits(long.xs[:h]), _bits(short.xs))


# every 1-d oracle whose replies at one point (``sample_gradients``) the
# library makes: the cells of DRAW_ORACLES, on the quadratic; estimators of
# the kinked quadratic and of exp, which runs do not take; and the exact
# gradient of each arm of the hard pairs
PROBE_ORACLES = {
    **DRAW_ORACLES,
    "sf-one_point-kinked": EstimatorOracle(kinked_quadratic(), SF, UncontrolledNoise(1.0), "one_point"),
    "spsa-two_point-kinked": EstimatorOracle(kinked_quadratic(0.3, 2.0), SPSA, UncontrolledNoise(0.5), "two_point"),
    "surface-one_point-exp": EstimatorOracle(exp_one_d(), SURFACE, UncontrolledNoise(1.0), "one_point"),
    "rdsa-one_point-exp-sigma0": EstimatorOracle(exp_one_d(), RDSA, UncontrolledNoise(0.0), "one_point"),
    "spsa-two_point-exp": EstimatorOracle(exp_one_d(), SPSA, UncontrolledNoise(1.0), "two_point", "c3"),
    "sf-two_point-exp-controlled": EstimatorOracle(exp_one_d(), SF, ControlledNoise(1.0, slope=0.5), "two_point"),
    **{k: o for k, o in KERNEL_ORACLES.items() if k.startswith("exact")},
}


def _counted_probe_replies(made: list):
    """Patch ``_lanes_probe.probe_replies`` to append whether each call made the replies."""
    real = _lanes_probe.probe_replies

    def counted(*args, **kwargs):
        got = real(*args, **kwargs)
        made.append(got[0] is not None)
        return got

    return mock.patch.object(_lanes_probe, "probe_replies", counted)


def _skip_without_loops(oracle):
    """Skip where the library, or a numpy loop the oracle's replies need, is missing here."""
    if _lanes.kernel() is None:
        pytest.skip("the lane kernel cannot be built with numpy's samplers here")
    flags = oracle.lane_spec().flags
    for name, flag in (("tanh", _lanes.SOFTABS), ("exp", _lanes.EXP)):
        if flags & flag and not _lanes.loop_bound(name):
            pytest.skip(f"the lane kernel cannot bind numpy's {name} loop here")


class TestProbeReplies:
    # a probe at d = 1 takes its m replies from one library call, which
    # draws on one lane reading the probe's generator and evaluates each
    # reply in C, and gives numpy's bits (sample_gradients) and final
    # generator state; the replies are read from the call's scratch
    @pytest.mark.parametrize("kind", sorted(PROBE_ORACLES))
    @given(st.integers(0, 2**32), st.floats(0.01, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=8, deadline=None)
    def test_library_replies_equal_numpy_replies(self, kind, seed, delta, at):
        oracle = PROBE_ORACLES[kind]
        _skip_without_loops(oracle)
        body = oracle.target.domain  # a probe point lies in it
        x = float(body.lower[0] + at * (body.upper[0] - body.lower[0]))
        for m in (1, 31, 32, 33, 4099, 2 * STEPS_PER_CHUNK + 1):
            for antithetic in (False, True):
                fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
                got = library_replies(oracle, np.array([x]), delta, m, fast, antithetic)
                want = oracle.sample_gradients(np.array([x]), delta, m, slow, antithetic)
                assert got.shape == want.shape == (m, 1)
                np.testing.assert_array_equal(_bits(got), _bits(want))
                assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("redefined", ["_scaled", "_noise", "_draws", "estimate", "adversarial-_draws",
                                           "adversarial-estimate"])
    def test_a_subclass_that_redefines_a_draw_method_draws_with_numpy(self, redefined):
        class OwnScaled(EstimatorOracle):
            def _scaled(self, u, delta):
                return super()._scaled(u, delta)

        class OwnNoise(EstimatorOracle):
            def _noise(self, rng, shape):
                return super()._noise(rng, shape)

        class OwnDraws(EstimatorOracle):
            def _draws(self, *args):
                return super()._draws(*args)

        class OwnEstimate(EstimatorOracle):
            def estimate(self, *args):
                return super().estimate(*args)

        class OwnReplyDraws(AdversarialOracle):
            def _draws(self, *args):
                return super()._draws(*args)

        class OwnReply(AdversarialOracle):
            def estimate(self, *args):
                return super().estimate(*args)

        if redefined.startswith("adversarial"):
            base = KERNEL_ORACLES["adversarial-sc-p1+1"]
            oracle = (OwnReplyDraws if redefined.endswith("_draws") else OwnReply)(base.instance)
        else:
            base = KERNEL_ORACLES["spsa-2pt"]
            own = {"_scaled": OwnScaled, "_noise": OwnNoise, "_draws": OwnDraws, "estimate": OwnEstimate}[redefined]
            oracle = own(base.target, base.scheme, base.noise, base.feedback)
        assert _lanes_probe.probe_replies(oracle, np.array([[0.3]]), 0.2, 64, RNG(0))[0] is None
        np.testing.assert_array_equal(oracle.sample_gradients(np.array([0.3]), 0.2, 99, RNG(1)),
                                      base.sample_gradients(np.array([0.3]), 0.2, 99, RNG(1)))

    def test_a_wrapper_on_sample_gradients_keeps_the_library_moments(self):
        # a tracer wraps sample_gradients on the oracle classes themselves;
        # a probe's moments, which do not call it, stay the library's
        if _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        made, wrapped_calls = [], []
        for cls in (EstimatorOracle, AdversarialOracle):
            real = cls.sample_gradients
            wrapped = functools.wraps(real)(
                lambda self, *a, real=real, **k: wrapped_calls.append(1) or real(self, *a, **k))
            with mock.patch.object(cls, "sample_gradients", wrapped), _counted_probe_replies(made):
                for oracle in (KERNEL_ORACLES["one-point"], KERNEL_ORACLES["adversarial-sc-p1+1"]):
                    probe_bias_variance(oracle, np.array([0.3]), 0.2, 64, RNG(3))
        assert made == [True] * 4 and wrapped_calls == []

    def test_d_above_1_and_other_targets_take_numpy(self):
        made = []
        with _counted_probe_replies(made):
            for oracle in (EstimatorOracle(quadratic([1.0, 2.0]), SF, UncontrolledNoise(1.0), "one_point"),
                           scaled_hard_coordinates("strongly_convex", 1.0, 2.0, 1.0, 1.0, 0.2, [+1, -1])):
                probe_bias_variance(oracle, np.array([0.3, -0.1]), 0.2, 32, RNG(4))
            probe_bias_variance(ExactGradientOracle(_FQ), np.array([0.3]), 0.2, 32, RNG(5))
            probe_bias_variance(EstimatorOracle(softabs(+1, 0.1), SPSA, UncontrolledNoise(1.0), "one_point"),
                                np.array([0.3]), 0.2, 32, RNG(6))
        assert made == [False] * 4

    def test_a_refused_exp_loop_gives_numpys_moments(self, monkeypatch, caplog):
        # where numpy's exp loop fails its check, exp probes take numpy's
        # sample_gradients and moments, with the same bits, and each probe
        # logs why
        oracle = PROBE_ORACLES["spsa-two_point-exp"]
        _skip_without_loops(oracle)
        x, args = np.array([0.2]), (0.1, 5000)
        bound = [probe_bias_variance(oracle, x, *args, RNG(7), antithetic) for antithetic in (False, True)]
        monkeypatch.setattr(_lanes, "_loaded", [])
        real = _lanes_build.loop_mismatch
        monkeypatch.setattr(_lanes_build, "loop_mismatch",
                            lambda apply, name: "it differs from np.exp" if name == "exp" else real(apply, name))
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            for antithetic, want in zip((False, True), bound):
                got = probe_bias_variance(oracle, x, *args, RNG(7), antithetic)
                np.testing.assert_array_equal(_bits(list(got)), _bits(list(want)))
        assert not _lanes.loop_bound("exp") and _lanes.kernel() is not None
        assert caplog.text.count("lane kernel without numpy's exp loop (exp probes take numpy)") == 1
        assert caplog.text.count("moments of 5000 replies from numpy (exp loop not bound)") == 2

    def test_a_probe_logs_which_path_made_its_moments(self, caplog):
        oracle = KERNEL_ORACLES["one-point"]
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            probe_bias_variance(oracle, np.array([0.3]), 0.2, 64, RNG(9))
            with _numpy_loop():
                probe_bias_variance(oracle, np.array([0.3]), 0.2, 64, RNG(9))
        numpy = ["probe_bias_variance: moments of 64 replies from numpy (no lane kernel)"]
        library = ["probe_bias_variance: moments of 64 replies from the compiled lane kernel"]
        assert [r.getMessage() for r in caplog.records if r.name != "zograd._lanes"] == (
            numpy if _lanes.kernel() is None else library) + numpy


# the cells of scripts/probe_envelopes.py and of the check suite's estimator-envelopes check: (oracle, x)
ENVELOPE_CELLS = {
    **{f"probe_{i}": parse_oracle_spec(spec) for i, spec in enumerate(_script("probe_envelopes").ORACLES)},
    **{f"check-{o.scheme.kind}-{o.feedback}-{type(o.noise).__name__}": (o, np.array([0.3]))
       for o in checks.envelope_cells()},
}


def _moments_bits(moments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where moments are NaN, and the bits of each of the others."""
    nan = np.isnan(moments)
    return nan, np.where(nan, 0.0, moments).view(np.int64)


class TestProbeMoments:
    # a probe at d = 1 takes its moments from the library call that makes
    # its replies (zg_probe folds them in), with the bits of numpy's mean
    @pytest.mark.parametrize("cell", sorted(ENVELOPE_CELLS))
    def test_library_moments_give_numpys_probe_results(self, cell):
        # against the numpy path (no library)
        oracle, x = ENVELOPE_CELLS[cell]
        _skip_without_loops(oracle)
        for reps in (32, 33, 49_999, 50_000, 99_999, 100_000):
            for antithetic in (False, True):
                rngs, made = [RNG(reps) for _ in range(2)], []
                with _counted_probe_replies(made):
                    got = probe_bias_variance(oracle, x, 0.1, reps, rngs[0], antithetic)
                assert made == [True]  # one call, from draws to moments
                with mock.patch.object(_lanes, "_loaded", [None]):
                    numpy = probe_bias_variance(oracle, x, 0.1, reps, rngs[1], antithetic)
                np.testing.assert_array_equal(_bits(list(got)), _bits(list(numpy)))
                assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @given(st.integers(32, 20_000), st.integers(0, 2**32 - 1), st.integers(-300, 300), st.integers(0, 600),
           st.floats(0.0, 1.0), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    @example(10_007, 1, -300, 600, 0.0, 0)
    @example(20_000, 2, 0, 0, 1.0, 0)
    @example(4096, 3, 290, 10, 0.1, 3)
    def test_library_moments_equal_numpys_on_any_values(self, m, seed, lowest, span, zeros, specials):
        # magnitudes 10^lowest .. 10^(lowest + span) within 1e-300 .. 1e300, a
        # share of zeros of either sign, and a few NaN and infinities
        loaded = _lanes._library()
        if loaded is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        rng = np.random.default_rng(seed)
        exponents = np.clip(rng.uniform(lowest, lowest + span, m), -300, 300)
        g = rng.choice([-1.0, 1.0], m) * 10.0 ** exponents
        g[rng.random(m) < zeros] = rng.choice([-0.0, 0.0])
        g[rng.integers(0, m, specials)] = rng.choice([np.nan, np.inf, -np.inf], specials)
        got = np.empty(_lanes_probe.MOMENTS)
        loaded.moments(m, g.ctypes.data, got.ctypes.data)
        with np.errstate(all="ignore"):  # squares past 1e308, inf - inf
            want = _moments(g.reshape(m, 1))
        for a, b in zip(_moments_bits(got), _moments_bits(want)):
            np.testing.assert_array_equal(a, b)

    def test_the_premise_tells_other_summation_orders_apart(self):
        # numpy's order, a leaf of 128 values split at half rounded down to a
        # multiple of 8, gives numpy's moments on the premise; a leaf of 64
        # or a split not rounded each changes some of their bits
        g = _lanes_build.moments_premise()
        assert g.shape == (_lanes_build.MOMENTS_PREMISE[1], 1)
        want = _moments(g).view(np.int64)
        assert np.array_equal(_pairwise_moments(g[:, 0], 128, 8).view(np.int64), want)
        for leaf, multiple in ((64, 8), (128, 1)):
            assert not np.array_equal(_pairwise_moments(g[:, 0], leaf, multiple).view(np.int64), want)
        if _lanes.kernel() is not None:
            assert _lanes_build.moments_mismatch(_lanes._library().moments) is None


def _pairwise_moments(g: np.ndarray, leaf: int, multiple: int) -> np.ndarray:
    """``_lanes_probe.MOMENTS`` moments of the values g, in the layout of
    ``zg_moments``, each sum pairwise as numpy's: leaves of at most ``leaf``
    values, in 8 accumulators from 8 values on, split at half rounded down
    to a multiple of ``multiple``."""
    def in_order(start: float, values: list) -> float:
        for v in values:
            start += v
        return start

    def pairwise(a: list) -> float:
        n = len(a)
        if n > leaf:
            half = n // 2 - n // 2 % multiple
            return pairwise(a[:half]) + pairwise(a[half:])
        if n < 8:
            return in_order(0.0, a)
        r = [in_order(a[j], a[j + 8:n - n % 8:8]) for j in range(8)]
        return in_order(((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])), a[n - n % 8:])

    def moments(a: list) -> tuple[float, float]:
        mean = (0.0 + pairwise(a)) / len(a)
        return mean, (0.0 + pairwise([(v - mean) * (v - mean) for v in a])) / len(a)

    values, per = g.tolist(), len(g) // 32
    batches = [moments(values[b * per:(b + 1) * per]) for b in range(32)]
    return np.array([*moments(values), *(b[0] for b in batches), *(b[1] for b in batches)])


def _draw_both(oracle, schedules, horizons, seed):
    """Every chunk's draws of a kernel run, (C fill, numpy steppers), each
    flat as the kernel reads them, du, w and xi one after the other, for
    the lanes short of their horizon, and the lane generators of each side
    after the last chunk.  The C fill holds every lane's columns: those of
    the lanes past their horizon must be zeros, and the rest are taken."""
    gens_c, gens_np = ([RngStream(seed, i).generator() for i in range(len(horizons))] for _ in range(2))
    lanes = _lanes.lane_run(oracle, False, gens_c, horizons, schedules)
    assert lanes is not None
    steppers = [oracle.make_stepper(h - 1, s.delta, g) for h, s, g in zip(horizons, schedules, gens_np)]
    ends, live, t, chunks = np.array(horizons) - 1, np.arange(len(horizons)), 0, []
    for m in chunk_sizes(max(horizons) - 1):
        keep = ends[live] > t
        live = live[keep]
        steppers = [stepper for stepper, k in zip(steppers, keep) if k]
        slow, every, taken, start = solver._next_chunk(steppers, m), lane_draws(lanes, m), [], 0
        for part in slow:
            size = part.size // live.size * len(horizons)
            columns = every[start:start + size].reshape(m, len(horizons), -1)
            assert not np.delete(columns, live, axis=1).any()
            taken.append(columns[:, live].ravel())
            start += size
        assert start == len(every)
        chunks.append((np.concatenate(taken), np.concatenate([a.ravel() for a in slow])))
        t += m
    return chunks, gens_c, gens_np


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).reshape(-1).view(np.int64)


def _assert_same_runs(fast, slow):
    """Two RunTraces hold the same bits, records too; a NaN is any NaN."""
    bits = lambda v: _bits(np.where(np.isnan(v), np.nan, v))
    for field in ("x_hat", "error", "regret", "xs", "ys", "gs", "losses_x", "losses_y", "etas"):
        a, b = getattr(fast, field), getattr(slow, field)
        assert (a is None) == (b is None), field
        if a is not None:
            np.testing.assert_array_equal(bits(a), bits(b), err_msg=field)


def _counted_kernel(calls: list):
    """Patch the loaded library's kernel, appending the lane count of each
    call to ``calls``; skips where no kernel can be built."""
    loaded = _lanes._library()
    if loaded is None:
        pytest.skip("the lane kernel cannot be built here")
    real = loaded.run

    def counted(m, lanes, *rest):
        calls.append(lanes)
        return real(m, lanes, *rest)

    return mock.patch.object(loaded, "run", counted)


def _numpy_loop():
    return mock.patch.object(_lanes, "kernel", lambda: None)


@pytest.fixture
def kernel_calls():
    """The lane counts of the kernel calls the test makes."""
    calls = []
    with _counted_kernel(calls):
        yield calls


_UINT64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_UINT32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _Bitgen(ctypes.Structure):
    """A numpy ``bitgen_t`` (numpy/random/bitgen.h) whose 64-bit draws are
    ``draws``, then those of ``PCG64(0)``; a double is the top 53 bits of a
    draw, as PCG64 makes it.  ``used`` counts the draws taken."""

    _fields_ = [("state", ctypes.c_void_p), ("next_uint64", _UINT64), ("next_uint32", _UINT32),
                ("next_double", _DOUBLE), ("next_raw", _UINT64)]

    def __init__(self, draws):
        rest = np.random.PCG64(0)
        self.used = 0

        def uint64(_):
            self.used += 1
            return int(draws[self.used - 1] if self.used <= len(draws) else rest.random_raw())

        self._callbacks = (_UINT64(uint64), _UINT32(lambda st: uint64(st) >> 32),
                           _DOUBLE(lambda st: (uint64(st) >> 11) * 2.0**-53))
        super().__init__(None, self._callbacks[0], self._callbacks[1], self._callbacks[2], self._callbacks[0])

    @property
    def address(self) -> int:
        return ctypes.addressof(self)


def _ziggurat_draw(strip: int, sign: int, rabs: int) -> int:
    """The 64-bit draw numpy's ziggurat reads as that strip, sign and magnitude."""
    return rabs << 9 | sign << 8 | strip


@functools.cache
def _samplers():
    """(the library's inline fill, numpy's random_standard_normal and
    random_standard_normal_fill as linked into it); skips where the library
    cannot be built, and asserts the draws take the inline fill."""
    if _lanes.kernel() is None:
        pytest.skip("the lane kernel cannot be built with numpy's samplers here")
    lib = _lanes._library().lib
    assert any((ctypes.c_uint64 * 256).in_dll(lib, "zg_ki"))  # numpy's tables were read and the fill checked
    # entry points of their own (the library's zg_normal_fill takes an address)
    inline, one, fill = lib["zg_normal_fill"], lib["random_standard_normal"], lib["random_standard_normal_fill"]
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    inline.argtypes, inline.restype = [ctypes.c_void_p, ctypes.c_long, doubles], None
    one.argtypes, one.restype = [ctypes.c_void_p], ctypes.c_double
    fill.argtypes, fill.restype = [ctypes.c_void_p, ctypes.c_ssize_t, doubles], None
    return inline, one, fill


@functools.cache
def _numpy_ki() -> tuple[int, ...]:
    """Each strip's least magnitude that numpy's random_standard_normal
    refuses on its fast path (asks for a second value at), found here
    apart from the library, by bisection; 2^52 where it refuses none and 0
    where it refuses 1."""
    one = _samplers()[1]

    def refused(strip, rabs):
        bg = _Bitgen([_ziggurat_draw(strip, 0, rabs)])
        one(bg.address)
        return bg.used > 1

    edges = []
    for strip in range(256):
        lo, hi = 1, 2**52
        if refused(strip, 1):
            lo = hi = 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if refused(strip, mid) else (mid, hi)
        edges.append(hi)
    return tuple(edges)


class _Inflated(EstimatorOracle):
    """Probes three times farther from x than its delta allows."""

    def _scaled(self, u, delta):
        du, w = super()._scaled(u, delta)
        return 3.0 * du, w


class _Scripted(Schedule):
    """Step size 0 at delta 0.3, so that the iterate stays where it is, but
    1e30 at step ``jump``, which throws it onto a bound of the box, and NaN at
    step ``poison``, which makes the step and the iterate non-finite."""

    def __init__(self, jump: int = 0, poison: int = 0):
        super().__init__("manual", 0.3, ("const", 0.0))
        self.jump, self.poison = jump, poison

    def eta_array(self, n: int, start: int = 1) -> np.ndarray:
        t = np.arange(start, max(n, start))
        return np.where(t == self.jump, 1e30, np.where(t == self.poison, np.nan, 0.0))


# at the bounds of this box, fl(x +- 0.3) - x lies beyond 0.3 plus the
# vicinity tolerance's roundoff; at 0 it is 0.3 exactly
_FAR = quadratic([1.0], [-2.0], interval(-1e5, 1e5), offset=1.5)


class TestCompiledKernel:
    @given(
        st.sampled_from(KERNEL_CELLS),
        st.integers(1, 5),
        st.integers(0, 2**16),
        st.integers(2, 3 * STEPS_PER_CHUNK + 300),
        st.lists(st.tuples(st.integers(1, 3 * STEPS_PER_CHUNK + 300), st.integers(0, 2)), min_size=4, max_size=4),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_kernel_equals_numpy_loop(self, cell, lanes, seed, n, others, record):
        # lane 0 runs to n; the others end at their own horizons, most of
        # them inside a chunk, on their own schedules (so with their own delta)
        kind, mode = cell
        oracle = KERNEL_ORACLES[kind]
        horizons = [n] + [min(h, n) for h, _ in others[:lanes - 1]]
        schedules = [SCHEDULES[0]] + [SCHEDULES[i] for _, i in others[:lanes - 1]]
        gens = lambda: [RngStream(seed, i).generator() for i in range(lanes)]
        calls = []
        with _counted_kernel(calls):
            fast = run(oracle, schedules, n, rng=gens(), mode=mode, record=record, horizons=horizons)
        assert calls
        with _numpy_loop():
            slow = run(oracle, schedules, n, rng=gens(), mode=mode, record=record, horizons=horizons)
        _assert_same_runs(fast, slow)

    @pytest.mark.parametrize("cell", KERNEL_CELLS, ids=[f"{kind}-{mode}" for kind, mode in KERNEL_CELLS])
    def test_recorded_kernel_run_equals_the_recorded_numpy_loop(self, cell, kernel_calls):
        # six lanes on mixed schedules, horizons ending at once, inside the
        # second and third chunks and at n; each record NaN past its lane's horizon
        (kind, mode), n = cell, 3 * STEPS_PER_CHUNK + 100
        horizons, schedules = [n, 1, 700, 1100, n, 1500], [SCHEDULES[i % 3] for i in range(6)]
        fast_gens, slow_gens = ([RngStream(9, i).generator() for i in range(6)] for _ in range(2))
        args = (KERNEL_ORACLES[kind], schedules, n)
        fast = run(*args, rng=fast_gens, mode=mode, record=True, horizons=horizons)
        assert kernel_calls == [6]
        with _numpy_loop():
            slow = run(*args, rng=slow_gens, mode=mode, record=True, horizons=horizons)
        _assert_same_runs(fast, slow)
        for lane, h in enumerate(horizons):
            assert not np.isnan(fast.xs[:h, lane]).any() and np.isnan(fast.xs[h:, lane]).all()
            assert not np.isnan(fast.losses_y[:h - 1, lane]).any() and np.isnan(fast.losses_y[h - 1:, lane]).all()
        assert [g.bit_generator.state for g in fast_gens] == [g.bit_generator.state for g in slow_gens]

    def test_a_record_must_fit_the_run(self):
        lanes = _lanes.lane_run(KERNEL_ORACLES["one-point"], False, [RNG(0), RNG(1)], [10, 4], SCHEDULES[:2])
        if lanes is None:
            pytest.skip("the lane kernel cannot be built here")
        x, record = np.zeros((2, 1)), [np.full((9, 2, 1), np.nan) for _ in range(3)] + [np.full((9, 2), np.nan)]
        for bad in (record[:3], record[:3] + [np.full((8, 2), np.nan)], record[:3] + [record[3].T]):
            with pytest.raises(ValueError, match="a record is four contiguous float arrays of 9 steps of 2 lanes"):
                lanes.run(x, x.copy(), x.copy(), bad)

    @pytest.mark.parametrize("bad", ["float32", "strided", "size"])
    def test_run_arrays_are_what_the_kernel_reads(self, bad, kernel_calls):
        # the kernel takes x, sum_x and regret as addresses and writes one
        # double per lane to each: an array of another dtype, a column with a
        # stride or another size is refused before the library is called
        lanes = _lanes.lane_run(KERNEL_ORACLES["one-point"], False, [RNG(0), RNG(1)], [10, 4], SCHEDULES[:2])
        wrong = {"float32": np.zeros((2, 1), np.float32), "strided": np.zeros((2, 2))[:, :1],
                 "size": np.zeros((3, 1))}[bad]
        good = lambda: np.zeros((2, 1))
        for args in ((wrong, good(), good()), (good(), wrong, good()), (good(), good(), wrong)):
            with pytest.raises(ValueError, match="x, sum_x and regret must be contiguous float arrays of one row "
                                                 "per lane, 2"):
                lanes.run(*args)
        assert kernel_calls == []
        assert lanes.run(good(), good(), good()) is None and kernel_calls == [2]

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
        args = (oracle, schedules, n)
        fast = run(*args, rng=gens(), horizons=horizons)
        assert kernel_calls == [6]  # one call for the run, with every lane
        with _numpy_loop():
            slow = run(*args, rng=gens(), horizons=horizons)
        np.testing.assert_array_equal(fast.x_hat, slow.x_hat)
        np.testing.assert_array_equal(fast.error, slow.error)

    def test_one_library_call_per_run(self, kernel_calls, monkeypatch):
        # zg_lane_run runs every chunk and fills its draws itself: the
        # scratch size is asked only as the run is built, and no probe runs
        lib, counts = _lanes._library(), {"probe": 0, "scratch": 0}

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        for name in counts:
            monkeypatch.setattr(lib, name, counted(name, getattr(lib, name)))
        n = 3 * STEPS_PER_CHUNK + 100
        run(KERNEL_ORACLES["spsa-2pt"], SCHEDULES[0], n, rng=[RNG(i) for i in range(3)])
        assert len(chunk_sizes(n - 1)) == 4 and kernel_calls == [3]
        assert counts == {"probe": 0, "scratch": 1}

    def test_the_check_suite_takes_no_numpy_step(self, kernel_calls, monkeypatch):
        # each solver run of `zograd check`, the recorded prox-inequality run
        # and the two determinism runs, is one kernel call, and no numpy
        # estimate runs: its probes' replies are the library's too
        runs, estimates, estimate = [], [], EstimatorOracle.estimate
        monkeypatch.setattr(EstimatorOracle, "estimate", lambda *args: estimates.append(1) or estimate(*args))
        monkeypatch.setattr(checks, "run", lambda *args, **kw: runs.append(kw.get("record", False)) or run(*args, **kw))
        assert checks.run_checks(verbose=False) == 0
        assert (estimates, runs, kernel_calls) == ([], [True, False, False], [1, 1, 1])

    @pytest.mark.parametrize("case", ["d2", "d3", "separable-d2", "exp-target", "exact", "adversarial-regret"])
    def test_other_runs_take_the_numpy_loop(self, case, kernel_calls):
        oracle = KERNEL_ORACLES["one-point"]
        mode = "regret" if case.endswith("regret") else "optimization"
        if case == "d2":
            oracle = ORACLES["smoothing-d2"]
        elif case == "d3":
            f = quadratic([1.0, 3.0, 0.5], [0.2, -0.4, 0.1], Box(np.full(3, -1.5), np.full(3, 1.5)))
            oracle = EstimatorOracle(f, SPSA, UncontrolledNoise(3.0), "one_point")
        elif case == "separable-d2":
            oracle = scaled_hard_coordinates("convex_smooth", 2.0, 2.0, 1.0, 1.0, 0.1, [+1, -1])
        elif case == "exp-target":
            oracle = EstimatorOracle(exp_one_d(interval(0.0, 1.0)), SPSA, UncontrolledNoise(1.0), "one_point")
        elif case == "exact":  # on a quadratic, not on an arm of a hard pair
            oracle = ORACLES["exact"]
        elif case == "adversarial-regret":
            oracle = KERNEL_ORACLES["adversarial-convex-p2+1"]
        for record in (False, True):
            run(oracle, SCHEDULES[0], 50, rng=[RNG(i) for i in range(3)], mode=mode, record=record)
        assert kernel_calls == []
        run(KERNEL_ORACLES["one-point"], SCHEDULES[0], 50, rng=[RNG(i) for i in range(3)])
        assert kernel_calls == [3]

    @pytest.mark.parametrize("missing", ["CC", "NPYRANDOM", "BITGEN_H"])
    def test_loader_failure_runs_the_numpy_loop(self, missing, monkeypatch, tmp_path, caplog):
        # no compiler, no numpy sampler library or no sampler header: no
        # kernel, the reason logged once, and the numpy loop's results
        oracle = KERNEL_ORACLES["controlled-slope-1"]
        gens = lambda: [RngStream(21, i).generator() for i in range(4)]
        args = (oracle, SCHEDULES[1], 700)
        expected = run(*args, rng=gens(), mode="regret")
        gone = tmp_path / "no-such-file"
        monkeypatch.setattr(_lanes, missing, str(gone) if missing == "CC" else gone)
        monkeypatch.setattr(_lanes, "CACHE", tmp_path / "cache")
        monkeypatch.setattr(_lanes, "_loaded", [])
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            got = run(*args, rng=gens(), mode="regret")
            again = run(*args, rng=gens(), mode="regret")
        assert _lanes.kernel() is None
        assert caplog.text.count("lane kernel unavailable") == caplog.text.count("no-such-file") == 1
        assert caplog.text.count("steps on the numpy loop") == 2
        for trace in (got, again):
            np.testing.assert_array_equal(trace.x_hat, expected.x_hat)
            np.testing.assert_array_equal(trace.error, expected.error)
            np.testing.assert_array_equal(trace.regret, expected.regret)

    def test_fresh_cache_builds_the_library(self, monkeypatch, tmp_path):
        # a build leaves no temporary file of its own and removes the
        # libraries of other inputs and every stored verdict, its own too,
        # never another build's temporary file; the load after it checks
        # the new library's premises and stores their verdict.  A cached
        # load removes nothing
        if _lanes.kernel() is None or shutil.which(_lanes.CC) is None:  # a cached library loads without cc
            pytest.skip("the lane kernel cannot be built here")
        cache = tmp_path / "cache"
        cache.mkdir()
        stale, tmp = cache / "_lanes-0000000000000000.so", cache / "_lanes-0000000000000000x1y2.tmp"
        tmp.write_bytes(b"")
        monkeypatch.setattr(_lanes, "CACHE", cache)
        library = _lanes._library_path()
        library.with_suffix(".verdict").write_text("refused: a verdict no build of this library wrote\n")
        for kept in ([], [stale.name, stale.with_suffix(".verdict").name]):
            stale.write_bytes(b"")
            stale.with_suffix(".verdict").write_text("used\n")
            monkeypatch.setattr(_lanes, "_loaded", [])
            assert _lanes.kernel() is not None
            assert sorted(p.name for p in cache.iterdir()) == sorted(
                [library.name, library.with_suffix(".verdict").name, tmp.name, *kept])
            assert library.with_suffix(".verdict").read_text() == "used\n"

    @pytest.mark.parametrize("stored", [None, b"\xff\xfe\n", b"used\nused\n", b"fast\n", b"used: why\n",
                                        b"refused: \n"],
                             ids=["missing", "not-text", "extra-lines", "unknown-word", "reason-after-used",
                                  "refused-without-reason"])
    def test_a_library_without_a_readable_verdict_is_checked_once(self, stored, unchecked_library, monkeypatch,
                                                                   caplog):
        # its premises are checked on its first load, and their verdict is
        # stored; the loads after it read the verdict and check nothing
        verdict = unchecked_library.with_suffix(".verdict")
        if stored is not None:
            verdict.write_bytes(stored)
        checks, real = [], _lanes_build.check_premises
        monkeypatch.setattr(_lanes_build, "check_premises", lambda *args: checks.append(1) or real(*args))
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            for _ in range(3):
                monkeypatch.setattr(_lanes, "_loaded", [])
                assert _lanes.kernel() is not None
                assert any((ctypes.c_uint64 * 256).in_dll(_lanes._library().lib, "zg_ki"))
        assert checks == [1]
        assert verdict.read_text() == "used\n"
        assert caplog.text.count(f"lane kernel loaded from {unchecked_library}") == 3

    @pytest.mark.parametrize("stored, logged", [
        ("used\n", "lane kernel loaded from {}"),
        ("refused: planted\n", "lane kernel unavailable, the numpy loop runs: {} refused: planted"),
    ], ids=["used", "refused"])
    def test_a_stored_verdict_is_taken_as_it_stands(self, stored, logged, unchecked_library, monkeypatch, caplog):
        # a load with a verdict checks nothing, and logs the DEBUG line of
        # the check that found it; a refused library is not even loaded
        unchecked_library.with_suffix(".verdict").write_text(stored)
        monkeypatch.setattr(_lanes_build, "check_premises", lambda *args: pytest.fail("premises checked again"))
        if stored != "used\n":
            monkeypatch.setattr(_lanes, "_Library", lambda *args: pytest.fail("a refused library loaded"))
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            library = _lanes._library()
        assert [r.getMessage() for r in caplog.records] == [logged.format(unchecked_library)]
        assert (library is None) == (stored != "used\n") and (_lanes.seed_words(5, [1]) is None) == (library is None)

    def test_tables_that_cannot_be_read_again_check_the_premises_again(self, unchecked_library, monkeypatch,
                                                                       caplog):
        # a stored verdict of a used library whose tables zg_bind_normal no
        # longer reads: the premises are checked again, the library refused
        # and the new verdict stored
        unchecked_library.with_suffix(".verdict").write_text("used\n")
        monkeypatch.setattr(_lanes, "_Library", NoTables)
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            assert _lanes.kernel() is None
        reason = "refused: numpy's random_standard_normal gave no ziggurat tables"
        assert caplog.text.count(f"{unchecked_library} {reason}") == 1
        assert unchecked_library.with_suffix(".verdict").read_text() == f"{reason}\n"

    def test_infinite_noise_names_its_lane(self, kernel_calls):
        # lane 0 ends at once: the kernel gets all three lanes and drops lane
        # 0 before its first chunk, so lane 1 is the first row it checks
        oracle = EstimatorOracle(_FQ, SPSA, UncontrolledNoise(math.inf), "one_point")
        with pytest.raises(NonFiniteIterate) as info:
            run(oracle, SCHEDULES[0], 100, rng=[RNG(i) for i in range(3)], horizons=[1, 100, 100])
        assert kernel_calls == [3]
        assert (info.value.lane, info.value.first, info.value.last) == (1, 1, 99)
        assert "replication 1" in str(info.value)

    @pytest.mark.parametrize("kind", ["adversarial-convex-p2+1", "adversarial-sc-p1-1"])
    def test_infinite_adversarial_noise_names_its_lane(self, kind, kernel_calls):
        # c2 = inf makes the noise, and so the step, infinite
        inst = KERNEL_ORACLES[kind].instance
        envelope = OracleEnvelope(**{**vars(inst.envelope), "c2": math.inf})
        oracle = AdversarialOracle(HardInstance(**{**vars(inst), "envelope": envelope}))
        with pytest.raises(NonFiniteIterate) as info:
            run(oracle, SCHEDULES[0], 100, rng=[RNG(i) for i in range(3)],
                horizons=[1, 100, 100])
        assert kernel_calls == [3]
        assert (info.value.lane, info.value.first, info.value.last) == (1, 1, 99)
        assert "replication 1" in str(info.value)

    @pytest.mark.parametrize("name", ["tanh", "exp"])
    def test_numpy_loop_ignores_its_buffer_layout(self, name):
        # the kernel hands numpy's tanh loop the tanh arguments of all lanes
        # in one interleaved buffer, where the numpy loop takes each arm's
        # column, and numpy's exp loop a probe's arms in blocks of 512, where
        # numpy's estimate takes 8192: its parity rests on numpy's ufunc
        # giving each value the same bits, on the values the loader checks
        # the bound loop on
        values, ufunc = _lanes_build.loop_premise(name), getattr(np, name)
        assert values.size == 8008
        alone = np.array([ufunc(np.array([[v]]))[0, 0] for v in values])
        column = ufunc(values[:, None])[:, 0]
        interleaved = np.stack((values, values[::-1]), axis=1)
        ufunc(interleaved, out=interleaved)
        bits = lambda a: np.ascontiguousarray(a).view(np.int64)
        np.testing.assert_array_equal(bits(column), bits(alone))
        np.testing.assert_array_equal(bits(interleaved[:, 0]), bits(alone))
        np.testing.assert_array_equal(bits(interleaved[::-1, 1]), bits(alone))

    @pytest.mark.parametrize("name, libm", [("tanh", math.tanh), ("exp", lambda v: math.exp(min(v, 709.7)))])
    def test_loop_check_sees_one_bit(self, name, libm):
        # the loader's check of a bound loop passes the numpy ufunc itself,
        # and fails libm's function and a loop one bit off on one value alone
        ufunc = getattr(np, name)
        assert _lanes_build.loop_mismatch(lambda n, pieces, count, x: ufunc(x, out=x), name) is None

        def of_libm(n, pieces, count, x):
            x[:] = [libm(v) for v in x]

        def off_alone(n, pieces, count, x):
            ufunc(x, out=x)
            if list(pieces) == [1]:
                x[100] = np.nextafter(x[100], np.inf)

        assert _lanes_build.loop_mismatch(of_libm, name) == f"it differs from np.{name} alone"
        assert _lanes_build.loop_mismatch(off_alone, name) == f"it differs from np.{name} alone"

    def test_kernel_holds_numpy_tanh(self):
        # Python.h is looked up where sysconfig puts it, without sysconfig
        assert _lanes.PYTHON_H == Path(sysconfig.get_path("include")) / "Python.h"
        if not (_lanes.PYTHON_H.is_file() and _lanes.UFUNCOBJECT_H.is_file()) or _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built against Python's and numpy's headers here")
        assert _lanes.loop_bound("tanh") and _lanes.loop_bound("exp")

    def test_kernel_loads_once_under_threads(self, monkeypatch):
        # four threads make their first kernel call, and then their first
        # softabs check, together; a sleep in the load and in the tanh bind
        # and a short switch interval widen the window between each check
        # and its act
        if _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built here")
        loads, binds, real, real_bind = [], [], _lanes._load, _lanes_build.bind_loop

        def slow_load():
            loads.append(threading.get_ident())
            time.sleep(0.05)
            return real()

        def slow_bind(loaded, name):
            binds.append(threading.get_ident())
            time.sleep(0.05)
            return real_bind(loaded, name)

        monkeypatch.setattr(_lanes, "_loaded", [])
        monkeypatch.setattr(_lanes, "_load", slow_load)
        monkeypatch.setattr(_lanes_build, "bind_loop", slow_bind)
        start, got, bound = threading.Barrier(4), [None] * 4, [None] * 4

        def first_call(i):
            start.wait(timeout=10)
            got[i] = _lanes.kernel()
            bound[i] = _lanes.loop_bound("tanh")

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
        assert len(binds) == (1 if _lanes._loaded[0].ufunc else 0)
        assert len(set(bound)) == 1

    def test_tanh_loop_is_bound_on_the_first_softabs_run(self, monkeypatch, caplog):
        # an estimator run leaves numpy's tanh loop unbound; the first run of
        # a softabs oracle binds and checks it, and runs on the kernel
        if _lanes.kernel() is None or not _lanes.loop_bound("tanh"):
            pytest.skip("the lane kernel cannot be built with numpy's tanh loop here")
        monkeypatch.setattr(_lanes, "_loaded", [])
        oracle = KERNEL_ORACLES["adversarial-convex-p2+1"]
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            run(KERNEL_ORACLES["one-point"], SCHEDULES[0], 600, rng=[RNG(i) for i in range(3)])
            assert _lanes._loaded[0].loops == {}
            assert "tanh" not in caplog.text
            for _ in range(2):
                run(oracle, SCHEDULES[0], 600, rng=[RNG(i) for i in range(3)])
        assert _lanes._loaded[0].loops == {"tanh": True}
        assert caplog.text.count("numpy's tanh loop bound in the lane kernel") == 1
        assert caplog.text.count("steps on the compiled lane kernel") == 3

    @given(st.integers(0, 2**64 - 1), st.integers(0, 3 * STEPS_PER_CHUNK + 300))
    @example(*_lanes_build.NORMAL_PREMISE)
    @settings(max_examples=100, deadline=None)
    def test_inline_normals_equal_numpy(self, seed, count):
        # numpy's ziggurat with its fast path inline: the values of
        # Generator.standard_normal, and the generator left where it leaves it
        inline = _samplers()[0]
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        got = np.empty(count)
        inline(_lanes._address(ours.bit_generator), count, got)
        np.testing.assert_array_equal(got.view(np.int64), numpys.standard_normal(count).view(np.int64))
        assert ours.bit_generator.state == numpys.bit_generator.state

    def test_inline_normals_equal_numpy_at_every_strip_edge(self):
        # a first draw of each strip and sign at the magnitudes where numpy's
        # fast path stops (edges found apart from the library), just below
        # them, at 0, 1 and the largest: the values, and the draws taken, of
        # numpy's fill, over a second normal too
        inline, _, numpys = _samplers()
        for strip, edge in enumerate(_numpy_ki()):
            for sign in (0, 1):
                for rabs in sorted({0, 1, max(edge - 1, 0), min(edge, 2**52 - 1), 2**52 - 1}):
                    draws = [_ziggurat_draw(strip, sign, rabs)]
                    ours, theirs = _Bitgen(draws), _Bitgen(draws)
                    got, want = np.empty(2), np.empty(2)
                    inline(ours.address, 2, got)
                    numpys(theirs.address, 2, want)
                    assert (got.view(np.int64).tolist(), ours.used) == (want.view(np.int64).tolist(), theirs.used), \
                        (strip, sign, rabs)

    def test_normal_premise_reaches_both_slow_paths(self):
        # the normals the loader checks the inline fill on start with a draw
        # of strip 1, which numpy refuses at every magnitude, and take draws
        # of strip 0 that numpy refuses: its tail
        seed, n = _lanes_build.NORMAL_PREMISE
        inline, one, _ = _samplers()
        draws = np.random.default_rng(seed).bit_generator.random_raw(2 * n)
        bg, values, refused = _Bitgen(draws), [], []
        for _ in range(n):
            first = bg.used
            values.append(one(bg.address))
            if bg.used > first + 1:
                refused.append(int(draws[first]) & 0xFF)
        np.testing.assert_array_equal(np.array(values).view(np.int64),
                                      np.random.default_rng(seed).standard_normal(n).view(np.int64))
        assert _numpy_ki()[1] == 0 and int(draws[0]) & 0xFF == 1 and refused[0] == 1
        assert 0 in refused
        assert _lanes_build.normal_mismatch(_lanes._library().normal) is None

    @pytest.mark.parametrize("path, scheme", [("kernel", SPSA), ("numpy", SPSA), ("d2", SURFACE), ("d2", SPSA)])
    def test_offsets_beyond_delta_raise(self, path, scheme):
        # 3 delta out: beyond delta under the Euclidean norm (surface) and the
        # max norm (spsa); on the kernel, the offsets filled in C are inflated
        f = quadratic([1.0, 2.0], [-0.5, 0.3]) if path == "d2" else _FQ
        honest = EstimatorOracle(f, scheme, UncontrolledNoise(1.0), "one_point")
        oracle = honest if path == "kernel" else _Inflated(f, scheme, UncontrolledNoise(1.0), "one_point")
        real = _lanes.lane_run

        def lane_run(*args):
            run = real(*args)
            if run is not None:
                run._table["delta"] *= 3.0  # offsets du = delta*U, the weights as they were
            return run

        inflated = mock.patch.object(_lanes, "lane_run", lane_run)
        args = (SCHEDULES[0], 600)
        calls = []
        with _counted_kernel(calls) if path == "kernel" else _numpy_loop():
            run(honest, *args, rng=[RNG(i) for i in range(3)])
            with inflated, pytest.raises(DomainError,
                                         match="lane 0: evaluation point escaped the delta-vicinity at step 1"):
                run(oracle, *args, rng=[RNG(i) for i in range(3)])
        assert calls == ([3, 3] if path == "kernel" else [])  # one call per run: the honest run, then one that raises
        if path == "d2" and scheme is SPSA:
            # the honest offsets are the corners (+-delta, +-delta): within delta
            # under the max norm, which passed them above, and beyond it under
            # the Euclidean norm
            delta = SCHEDULES[0].delta
            du = honest._draws(delta, 8, RNG(0), False)[0][0]
            np.testing.assert_array_equal(np.abs(du), delta)
            solver._check_vicinity(du[None], delta, MAX_NORM, np.arange(8), 1)
            with pytest.raises(DomainError, match="lane 0: evaluation point escaped the delta-vicinity at step 1"):
                solver._check_vicinity(du[None], delta, EUCLIDEAN, np.arange(8), 1)

    @pytest.mark.parametrize("path", ["kernel", "numpy"])
    @pytest.mark.parametrize("jump, poison, error, message", [
        # lane 2 non-finite in chunk 2, lane 0 out of its vicinity in chunk 3
        (2 * STEPS_PER_CHUNK + 10, STEPS_PER_CHUNK + 6, NonFiniteIterate,
         f"replication 2: iterate went non-finite within steps {STEPS_PER_CHUNK + 1}..{2 * STEPS_PER_CHUNK}"),
        # the reverse
        (STEPS_PER_CHUNK + 5, 2 * STEPS_PER_CHUNK + 6, DomainError,
         f"lane 0: evaluation point escaped the delta-vicinity at step {STEPS_PER_CHUNK + 6}: "
         "||x-y||=0.3000000000029104 > 0.3"),
        # both in chunk 2, the escape at the earlier step: finiteness is checked first
        (STEPS_PER_CHUNK + 5, STEPS_PER_CHUNK + 18, NonFiniteIterate,
         f"replication 2: iterate went non-finite within steps {STEPS_PER_CHUNK + 1}..{2 * STEPS_PER_CHUNK}"),
    ])
    def test_faults_are_reported_in_the_numpy_loops_order(self, path, jump, poison, error, message):
        # lane 0 jumps to a bound of _FAR at step jump, and its next
        # evaluation point escapes its vicinity; lane 2's step at poison is
        # NaN; lanes 1 and 3 stay at 0
        oracle = EstimatorOracle(_FAR, SPSA, UncontrolledNoise(1.0), "one_point")
        still = _Scripted()
        schedules = [_Scripted(jump=jump), still, _Scripted(poison=poison), still]
        calls = []
        for record in (False, True):
            with _counted_kernel(calls) if path == "kernel" else _numpy_loop():
                with pytest.raises(DomainError) as info:
                    run(oracle, schedules, 3 * STEPS_PER_CHUNK + 100, x1=np.zeros(1),
                        rng=[RNG(i) for i in range(4)], record=record)
            assert (type(info.value), str(info.value)) == (error, message)
        assert calls == ([4, 4] if path == "kernel" else [])

    def test_kernel_source_compiles_without_warnings(self, tmp_path):
        if shutil.which(_lanes.CC) is None:
            pytest.skip(f"no C compiler {_lanes.CC!r} here")
        if not (_lanes.NPYRANDOM.is_file() and _lanes.BITGEN_H.is_file()):
            pytest.skip("numpy's sampler library or its header is missing here")
        command = _lanes._command(str(tmp_path / "lanes.so"))
        done = subprocess.run([*command[:1], "-Wall", "-Wextra", "-Werror", *command[1:]], capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

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
        if _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        horizons = [n] + [min(h, n) for h, _ in others]
        schedules = [SCHEDULES[0]] + [SCHEDULES[i] for _, i in others]
        chunks, gens_c, gens_np = _draw_both(DRAW_ORACLES[kind], schedules, horizons, seed)
        assert len(chunks) >= 4
        for fast, slow in chunks:
            assert len(fast) == len(slow)
            np.testing.assert_array_equal(_bits(fast), _bits(slow))
        assert [g.bit_generator.state for g in gens_c] == [g.bit_generator.state for g in gens_np]

    @pytest.mark.parametrize("kind", sorted(DRAW_ORACLES))
    def test_c_draws_leave_each_generator_as_the_numpy_path_does(self, kind, caplog):
        # six lanes, mixed schedules, horizons ending at once, inside the
        # second and third chunks and at n
        if _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        oracle, n = DRAW_ORACLES[kind], 3 * STEPS_PER_CHUNK + 100
        horizons = [n, 1, 700, 1100, n, 1500]
        schedules = [SCHEDULES[i % 3] for i in range(6)]
        mode = "optimization" if kind.startswith("adversarial") else "regret"
        gens_c, gens_np = ([RngStream(8, i).generator() for i in range(6)] for _ in range(2))
        args = (oracle, schedules, n)
        with caplog.at_level(logging.DEBUG, logger="zograd.solver"):
            fast = run(*args, rng=gens_c, horizons=horizons, mode=mode)
        assert "steps on the compiled lane kernel" in caplog.text
        with _numpy_loop():
            slow = run(*args, rng=gens_np, horizons=horizons, mode=mode)
        np.testing.assert_array_equal(fast.x_hat, slow.x_hat)
        np.testing.assert_array_equal(fast.error, slow.error)
        np.testing.assert_array_equal(fast.regret, slow.regret)
        assert [g.bit_generator.state for g in gens_c] == [g.bit_generator.state for g in gens_np]

    @pytest.mark.parametrize("case", ["wrapped-stepper", "own-noise", "own-estimate", "adversarial-own-estimate",
                                      "shared-generator"])
    def test_draw_path_is_decided_per_run(self, case, caplog):
        # a wrapper set on the class that states the spec (a tracer's) keeps
        # the kernel; a subclass that redefines a draw method or the
        # estimate, or a generator driving two lanes, takes the numpy loop;
        # each gives the numpy loop's values
        if _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        oracle = KERNEL_ORACLES["spsa-2pt"]

        def gens():
            lanes = [RNG(i) for i in range(3)]
            return lanes[:2] + lanes[:1] if case == "shared-generator" else lanes

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
        elif case == "own-estimate":
            class Doubled(EstimatorOracle):
                def estimate(self, x, delta, *draws):
                    g, y, fy = super().estimate(x, delta, *draws)
                    return 2.0 * g, y, fy

            oracle = Doubled(oracle.target, oracle.scheme, oracle.noise, oracle.feedback)
        elif case == "adversarial-own-estimate":
            class DoubledReply(AdversarialOracle):
                def estimate(self, x, delta, xi):
                    g, y, fy = super().estimate(x, delta, xi)
                    return 2.0 * g, y, fy

            oracle = DoubledReply(KERNEL_ORACLES["adversarial-sc-p1+1"].instance)
        with patch, caplog.at_level(logging.DEBUG, logger="zograd.solver"):
            got = run(oracle, SCHEDULES[0], 600, rng=gens())
        with _numpy_loop():
            want = run(oracle if case.endswith("own-estimate") else KERNEL_ORACLES["spsa-2pt"], SCHEDULES[0], 600,
                       rng=gens())
        path = "compiled lane kernel" if case == "wrapped-stepper" else "numpy loop"
        assert f"steps on the {path}" in caplog.text
        np.testing.assert_array_equal(got.x_hat, want.x_hat)
        np.testing.assert_array_equal(got.error, want.error)

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
