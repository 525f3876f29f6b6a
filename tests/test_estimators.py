import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zograd import _lanes, core
from zograd.adversarial import AdversarialOracle, hard_pair, scaled_hard_coordinates
from zograd.core import MAX_NORM, REPLY_BLOCK, DomainError, RngStream, interval
from zograd.estimators import (
    ControlledNoise,
    EstimatorOracle,
    ExactGradientOracle,
    RDSA,
    SF,
    SPSA,
    SURFACE,
    UncontrolledNoise,
    envelope_for,
    scheme_moments,
)
from zograd.harness.probes import bias_slope, probe_bias_variance, variance_slope
from zograd.testbed import ObjectiveFunction, exp_one_d, kinked_quadratic, quadratic, softabs, strongly_convex_pair

from instruments import one_reply, smoothed_eval, value_at

RNG = lambda i: RngStream(77, i).generator()


def flat(offset=0.0):
    return quadratic([0.0], [0.0], offset=offset)


class TestSchemes:
    @pytest.mark.parametrize("scheme", [SPSA, RDSA, SF, SURFACE])
    def test_weight_direction_outer_product_is_identity(self, scheme):
        d, m = 3, 1_000_000
        u = scheme.sample_u(d, RNG(1), m)
        v = scheme.v_of(u)
        for i in range(d):
            for j in range(d):
                prod = v[:, i] * u[:, j]
                se = prod.std() / math.sqrt(m) + 1e-12
                target = 1.0 if i == j else 0.0
                assert abs(prod.mean() - target) <= 5 * se, (scheme.kind, i, j)

    @pytest.mark.parametrize("scheme", [SPSA, RDSA, SF])
    def test_weights_centered(self, scheme):
        u = scheme.sample_u(2, RNG(2), 1_000_000)
        v = scheme.v_of(u)
        se = np.std(v, axis=0) / 1000.0
        assert np.all(np.abs(v.mean(axis=0)) <= 5 * se)

    def test_spsa_moments_are_exact_ones(self):
        m = scheme_moments(SPSA, 1)
        for key in ("v_u2", "v2", "v_u3", "v2_u4"):
            assert m[key] == pytest.approx(1.0)

    @pytest.mark.parametrize("scheme, d", [(SF, 1), (SF, 3), (RDSA, 2), (SURFACE, 3), (SPSA, 2)])
    def test_closed_form_moments_match_sampling(self, scheme, d):
        m = 400_000
        u = scheme.sample_u(d, RNG(30), m)
        v_dual, u_norm = np.linalg.norm(scheme.v_of(u), axis=1), np.linalg.norm(u, axis=1)
        sampled = {"v_u2": v_dual * u_norm**2, "v2": v_dual**2,
                   "v_u3": v_dual * u_norm**3, "v2_u4": v_dual**2 * u_norm**4}
        exact = scheme_moments(scheme, d)
        for key, values in sampled.items():
            se = values.std() / math.sqrt(m) + 1e-12
            assert abs(values.mean() - exact[key]) <= 5 * se, (scheme.kind, d, key)

    @pytest.mark.parametrize("scheme", [RDSA, SURFACE, SF])
    def test_moments_without_a_closed_form_are_refused(self, scheme):
        # spsa's norms are constant under the max norm too, and at d = 1 every
        # scheme's are; the other schemes have no closed form there at d > 1
        assert scheme_moments(SPSA, 3, MAX_NORM)["v2"] == 9.0
        assert scheme_moments(scheme, 1, MAX_NORM) == scheme_moments(scheme, 1)
        with pytest.raises(DomainError, match="no closed-form moments"):
            scheme_moments(scheme, 3, MAX_NORM)

    def test_moment_cache_reproducible(self):
        a = scheme_moments(SF, 2)
        b = scheme_moments(SF, 2)
        assert a is b

    def test_vicinity_bounds(self):
        assert SPSA.u_bound(5) == 1.0  # max norm
        assert SURFACE.u_bound(5) == 1.0  # euclidean sphere
        assert RDSA.u_bound(4) == 2.0
        assert SF.u_bound(1) == math.inf


class TestOnePoint:
    def test_zero_function_gives_zero(self):
        o = EstimatorOracle(flat(), SPSA, UncontrolledNoise(0.0), "one_point")
        g = o.sample_gradients(np.array([0.2]), 0.3, 64, RNG(3))
        np.testing.assert_array_equal(g, np.zeros((64, 1)))

    def test_constant_function_mean_zero(self):
        o = EstimatorOracle(flat(offset=2.5), SPSA, UncontrolledNoise(0.0), "one_point")
        res = probe_bias_variance(o, np.array([0.1]), 0.2, 20_000, RNG(4))
        assert res.bias_est <= 5 * res.bias_se + 1e-12

    def test_quadratic_bias_within_envelope(self):
        f = quadratic([1.0])
        o = EstimatorOracle(f, SF, UncontrolledNoise(0.0), "one_point")
        res = probe_bias_variance(o, np.array([0.0]), 0.1, 50_000, RNG(5), antithetic=True)
        assert res.bias_est <= o.envelope.c1_value(0.1) + 5 * res.bias_se

    def test_reply_reports_probe_arm_for_both_feedbacks(self):
        f = quadratic([1.0])
        for feedback in ("one_point", "two_point"):
            o = EstimatorOracle(f, SPSA, UncontrolledNoise(0.0), feedback)
            assert one_reply(o, np.array([0.0]), 0.2, RNG(6))[1][0] in (0.2, -0.2)


class TestTwoPoint:
    def test_linear_function_exact(self):
        f = quadratic([0.0], [1.7])
        o = EstimatorOracle(f, SPSA, UncontrolledNoise(0.0), "two_point")
        g = o.sample_gradients(np.array([0.1]), 0.25, 16, RNG(7))
        np.testing.assert_allclose(g, 1.7, rtol=1e-12)

    def test_even_function_at_center(self):
        f = quadratic([1.0])
        for scheme in (SPSA, SF):
            o = EstimatorOracle(f, scheme, UncontrolledNoise(0.0), "two_point")
            g = o.sample_gradients(np.zeros(1), 0.3, 16, RNG(8))
            np.testing.assert_allclose(g, 0.0, atol=1e-14)

    def test_controlled_noise_cancels(self):
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        o = EstimatorOracle(f, SPSA, ControlledNoise(sigma=5.0), "two_point")  # slope 0: purely common
        delta = 0.2
        psi = np.array([0.0, -3.0, 0.7, 123.0]).reshape(4, 1, 1)  # one lane per psi
        x = np.full((4, 1), 0.4)
        du, w = o._scaled(np.ones((4, 1)), delta)
        g, _, _ = o.estimate(x, delta, du, w, psi)
        # cancellation is exact in exact arithmetic; floats keep ulp residue
        # of the common offset, so the estimate is psi-independent to ~1e-14
        for lane in range(1, 4):
            assert g[lane, 0] == pytest.approx(g[0, 0], abs=1e-11)

    def test_state_scaled_residual_has_constant_variance(self):
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        o = EstimatorOracle(f, SPSA, ControlledNoise(2.0, slope=1.0), "two_point")
        assert o.envelope.q == 0.0
        for delta in (0.5, 0.05):
            res = probe_bias_variance(o, np.array([0.5]), delta, 50_000, RNG(9))
            assert res.var_est == pytest.approx(4.0, rel=0.05)

    def test_surface_two_point_rejected(self):
        with pytest.raises(DomainError):
            EstimatorOracle(quadratic([1.0]), SURFACE, UncontrolledNoise(0.0), "two_point")

    def test_controlled_one_point_rejected(self):
        f = quadratic([1.0])
        with pytest.raises(DomainError):
            EstimatorOracle(f, SPSA, ControlledNoise(1.0), "one_point")

    def test_controlled_noise_needs_a_1d_target(self):
        with pytest.raises(DomainError, match="1-d"):
            EstimatorOracle(quadratic([1.0, 2.0]), SPSA, ControlledNoise(1.0), "two_point")

    def test_negative_sigma_rejected(self):
        for noise in (UncontrolledNoise, ControlledNoise):
            with pytest.raises(DomainError, match="sigma"):
                noise(-1.0)

    def test_nan_sigma_rejected(self):
        for noise in (UncontrolledNoise, ControlledNoise):
            with pytest.raises(DomainError, match="sigma"):
                noise(math.nan)


class TestSmoothing:
    def test_constant_function_mean_zero(self):
        o = EstimatorOracle(flat(offset=3.0), SURFACE, UncontrolledNoise(0.0), "one_point")
        res = probe_bias_variance(o, np.array([0.0]), 0.5, 20_000, RNG(10))
        assert res.bias_est <= 5 * res.bias_se + 1e-12

    def test_smoothed_eval_linear_identity(self):
        f = quadratic([0.0], [2.0])
        val = smoothed_eval(f, np.array([0.4]), 0.5, 200_000, RNG(11))
        assert val == pytest.approx(value_at(f, np.array([0.4])), abs=5e-3)

    def test_smoothed_eval_quadratic_shift(self):
        # averaging x^2/2 over [x - d, x + d] lifts the value by d^2/6
        f = quadratic([1.0])
        x = np.array([0.2])
        val = smoothed_eval(f, x, 0.3, 400_000, RNG(12))
        assert val - value_at(f, x) == pytest.approx(0.015, abs=4e-4)

    def test_smoothed_eval_vanishing_tolerance(self):
        f = quadratic([1.0])
        val = smoothed_eval(f, np.array([0.3]), 1e-3, 100_000, RNG(13))
        assert abs(val - value_at(f, np.array([0.3]))) <= 1e-6

    def test_unbiased_for_smoothed_surrogate(self):
        # E[G] matches the finite-difference slope of the smoothed value
        f = quadratic([1.0])
        o = EstimatorOracle(f, SURFACE, UncontrolledNoise(0.0), "one_point")
        x, delta = 0.3, 0.1
        res = probe_bias_variance(o, np.array([x]), delta, 100_000, RNG(14), antithetic=True)
        g_mean = o.sample_gradients(np.array([x]), delta, 100_000, RNG(15), antithetic=True).mean()
        h = 1e-3
        fd = (
            smoothed_eval(f, np.array([x + h]), delta, 400_000, RNG(16))
            - smoothed_eval(f, np.array([x - h]), delta, 400_000, RNG(16))
        ) / (2 * h)
        # the smoothed surrogate of a quadratic has the same slope: 0.3
        assert fd == pytest.approx(x, abs=5e-3)
        assert g_mean == pytest.approx(fd, abs=5 * res.bias_se + 5e-3)

    def test_smoothed_eval_rejects_zero_samples(self):
        with pytest.raises(DomainError):
            smoothed_eval(quadratic([1.0]), np.array([0.0]), 0.1, 0, RNG(18))


def _scaled(f: ObjectiveFunction, lam: float) -> ObjectiveFunction:
    """lam*f: its value, gradient, L, mu and third-derivative bound times lam, on the same domain."""
    b3 = f.third_derivative_bound
    return ObjectiveFunction(f"{lam}*{f.name}", f.domain, lam * f.smoothness, lam * f.strong_convexity,
                             lambda x: lam * f.value(x), lambda x: lam * f.gradient(x), f.argmin,
                             None if b3 is None else lam * b3)


# the 1-d families, each at parameters with nothing special about them
ONE_D = [softabs(+1, 0.1), strongly_convex_pair(-1, 0.3), kinked_quadratic(),
         exp_one_d(interval(-0.5, 1.0)), quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)]


class TestEnvelopeTable:
    def test_cell_exponents(self):
        f = quadratic([1.0])
        fe = exp_one_d()
        u = UncontrolledNoise(1.0)
        c = ControlledNoise(1.0)
        assert (envelope_for("convex_smooth", u, "one_point", SPSA, f).p,
                envelope_for("convex_smooth", u, "one_point", SPSA, f).q) == (1.0, 2.0)
        assert (envelope_for("c3", u, "two_point", SPSA, fe).p,
                envelope_for("c3", u, "two_point", SPSA, fe).q) == (2.0, 2.0)
        ctrl = envelope_for("convex_smooth", c, "two_point", SPSA, f)
        assert (ctrl.p, ctrl.q) == (1.0, 0.0)
        smooth = envelope_for("convex_smooth", u, "one_point", SURFACE, f)
        assert (smooth.p, smooth.q) == (2.0, 2.0)
        assert smooth.oracle_type == "type_II"

    def test_surface_constant_uses_ball_average(self):
        f = quadratic([1.0])
        env = envelope_for("convex_smooth", UncontrolledNoise(0.0), "one_point", SURFACE, f)
        assert env.c1 == pytest.approx(f.smoothness / 2.0 / 3.0)  # E w^2 = 1/3 in 1-d

    def test_unsupported_cells(self):
        f = quadratic([1.0])
        with pytest.raises(DomainError):
            envelope_for("convex_smooth", ControlledNoise(1.0), "one_point", SPSA, f)
        with pytest.raises(DomainError):
            # the kinked family carries no third-derivative bound
            envelope_for("c3", UncontrolledNoise(1.0), "one_point", SPSA, kinked_quadratic())
        with pytest.raises(DomainError):
            envelope_for("weird", UncontrolledNoise(1.0), "one_point", SPSA, f)

    # (c1, c2) of the controlled two-point SPSA cells, bit for bit, for
    # sigma in {1, 3} and slope in {0, 0.5, 1} in both classes
    CONTROLLED = {
        ("quadratic", "convex_smooth", 1.0, 0.0): (0.5, 2.5),
        ("quadratic", "convex_smooth", 1.0, 0.5): (0.5, 3.0),
        ("quadratic", "convex_smooth", 1.0, 1.0): (0.5, 4.5),
        ("quadratic", "convex_smooth", 3.0, 0.0): (0.5, 2.5),
        ("quadratic", "convex_smooth", 3.0, 0.5): (0.5, 7.0),
        ("quadratic", "convex_smooth", 3.0, 1.0): (0.5, 20.5),
        ("quadratic", "c3", 1.0, 0.0): (0.0, 16.0),
        ("quadratic", "c3", 1.0, 0.5): (0.0, 20.0),
        ("quadratic", "c3", 1.0, 1.0): (0.0, 32.0),
        ("quadratic", "c3", 3.0, 0.0): (0.0, 16.0),
        ("quadratic", "c3", 3.0, 0.5): (0.0, 52.0),
        ("quadratic", "c3", 3.0, 1.0): (0.0, 160.0),
        ("exp", "convex_smooth", 1.0, 0.0): (3.694528049465325, 33.204059900597244),
        ("exp", "convex_smooth", 1.0, 0.5): (3.694528049465325, 33.704059900597244),
        ("exp", "convex_smooth", 1.0, 1.0): (3.694528049465325, 35.204059900597244),
        ("exp", "convex_smooth", 3.0, 0.0): (3.694528049465325, 33.204059900597244),
        ("exp", "convex_smooth", 3.0, 0.5): (3.694528049465325, 37.704059900597244),
        ("exp", "convex_smooth", 3.0, 1.0): (3.694528049465325, 51.204059900597244),
        ("exp", "c3", 1.0, 0.0): (1.231509349821775, 77.05525375824136),
        ("exp", "c3", 1.0, 0.5): (1.231509349821775, 81.05525375824136),
        ("exp", "c3", 1.0, 1.0): (1.231509349821775, 93.05525375824136),
        ("exp", "c3", 3.0, 0.0): (1.231509349821775, 77.05525375824136),
        ("exp", "c3", 3.0, 0.5): (1.231509349821775, 113.05525375824136),
        ("exp", "c3", 3.0, 1.0): (1.231509349821775, 221.05525375824135),
    }

    @pytest.mark.parametrize("cell", sorted(CONTROLLED))
    def test_controlled_envelopes_are_pinned(self, cell):
        name, function_class, sigma, slope = cell
        f = quadratic([1.0]) if name == "quadratic" else exp_one_d()
        env = envelope_for(function_class, ControlledNoise(sigma, slope), "two_point", SPSA, f)
        assert (env.c1, env.c2) == self.CONTROLLED[cell]

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(f=st.sampled_from(ONE_D), lam=st.floats(1e-2, 1e3), sigma=st.floats(0.0, 3.0), slope=st.floats(0.0, 1.0),
           scheme=st.sampled_from([SPSA, RDSA, SF, SURFACE]), feedback=st.sampled_from(["one_point", "two_point"]),
           controlled=st.booleans(), function_class=st.sampled_from(["convex_smooth", "c3"]))
    def test_c2_is_homogeneous_of_degree_two(self, f, lam, sigma, slope, scheme, feedback, controlled,
                                             function_class):
        # c2(lam*f, lam*sigma) = lam**2 * c2(f, sigma) and c1(lam*f) = lam*c1(f), in every cell envelope_for accepts
        noise = (lambda s: ControlledNoise(s, slope)) if controlled else UncontrolledNoise
        try:
            base = envelope_for(function_class, noise(sigma), feedback, scheme, f)
        except DomainError:
            with pytest.raises(DomainError):
                envelope_for(function_class, noise(lam * sigma), feedback, scheme, _scaled(f, lam))
            return
        got = envelope_for(function_class, noise(lam * sigma), feedback, scheme, _scaled(f, lam))
        assert (got.p, got.q, got.oracle_type) == (base.p, base.q, base.oracle_type)
        assert got.c1 == pytest.approx(lam * base.c1, rel=1e-12, abs=0)
        assert got.c2 == pytest.approx(lam**2 * base.c2, rel=1e-12, abs=0)

    def test_c3_quadratic_has_zero_bias_coefficient(self):
        # quadratics carry B3 = 0, so the C^3 cell envelope collapses on them
        f = quadratic([1.0])
        env = envelope_for("c3", UncontrolledNoise(1.0), "two_point", SPSA, f)
        assert env.c1 == 0.0


class TestEnvelopeInvariants:
    DELTAS = (0.5, 0.2, 0.1, 0.05)

    def cells(self):
        fq = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        fe = exp_one_d()
        fk = kinked_quadratic()
        return [
            (EstimatorOracle(fk, SF, UncontrolledNoise(1.0), "one_point"), (0.0, 0.4, -0.3)),
            (EstimatorOracle(fq, SURFACE, UncontrolledNoise(1.0), "one_point"), (0.25, 0.6, 0.9)),
            (EstimatorOracle(fe, SPSA, UncontrolledNoise(1.0), "two_point", function_class="c3"), (0.0, 0.4, -0.5)),
            (EstimatorOracle(fe, SF, UncontrolledNoise(1.0), "two_point"), (0.0, 0.4, -0.5)),
            (EstimatorOracle(fq, SPSA, ControlledNoise(1.0, slope=1.0), "two_point"), (0.25, 0.6, 0.9)),
        ]

    def test_bias_and_variance_inside_envelope(self):
        for idx, (oracle, xs) in enumerate(self.cells()):
            env = oracle.envelope
            for j, delta in enumerate(self.DELTAS):
                for k, x in enumerate(xs):
                    rng = RngStream(31, (idx << 12) | (j << 6) | k).generator()
                    res = probe_bias_variance(oracle, np.array([x]), delta, 100_000, rng)
                    assert res.bias_est <= env.c1_value(delta) + 5 * res.bias_se, (
                        oracle.scheme.kind, oracle.feedback, delta, x)
                    assert res.var_est <= 1.05 * env.c2_value(delta) + 5 * res.var_se, (
                        oracle.scheme.kind, oracle.feedback, delta, x)

    def test_bias_slopes_match_exponents(self):
        fk = kinked_quadratic()
        fe = exp_one_d()
        cells = [
            (EstimatorOracle(fk, SF, UncontrolledNoise(0.0), "one_point"), 1.0, 100_000),
            (EstimatorOracle(fe, SPSA, UncontrolledNoise(0.0), "two_point", function_class="c3"), 2.0, 5_000),
            (EstimatorOracle(fe, SURFACE, UncontrolledNoise(0.0), "one_point"), 2.0, 5_000),
        ]
        for idx, (oracle, p, reps) in enumerate(cells):
            slope, _ = bias_slope(oracle, np.array([0.0]), self.DELTAS, reps, RngStream(32, idx).generator())
            assert abs(slope - p) <= 0.2, (oracle.scheme.kind, slope)

    def test_variance_slopes_match_exponents(self):
        fk = kinked_quadratic()
        fe = exp_one_d()
        cells = [
            EstimatorOracle(fk, SF, UncontrolledNoise(1.0), "one_point"),
            EstimatorOracle(fe, SPSA, UncontrolledNoise(1.0), "two_point", function_class="c3"),
            EstimatorOracle(fe, SURFACE, UncontrolledNoise(1.0), "one_point"),
        ]
        for idx, oracle in enumerate(cells):
            slope, _ = variance_slope(oracle, np.array([0.0]), self.DELTAS, 60_000, RngStream(33, idx).generator())
            assert abs(slope + 2.0) <= 0.2, (oracle.scheme.kind, slope)


class TestEnvelopeCache:
    def test_replace_recomputes_the_envelope(self):
        # c2 = 4*(sigma^2 + sup|f|^2) for one-point SPSA on x^2/2, sup|f| = 2
        cell = EstimatorOracle(quadratic([1.0]), SPSA, UncontrolledNoise(1.0), "one_point")
        assert cell.envelope.c2 == pytest.approx(20.0)
        louder = EstimatorOracle(cell.target, cell.scheme, UncontrolledNoise(10.0), cell.feedback)
        assert louder.envelope.c2 == pytest.approx(416.0)


_F1 = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
# (oracle, antithetic, point) of every kind of reply sample_gradients
# evaluates in blocks: estimators of each feedback, noise and antithetic
# pairs, adversarial and exact oracles, at d = 1 (where the library makes
# the replies, on the "library" path) and at d = 2 (numpy makes them)
BLOCK_CASES = {
    "one-point": (EstimatorOracle(_F1, SPSA, UncontrolledNoise(3.0), "one_point"), False),
    "one-point-antithetic": (EstimatorOracle(_F1, SPSA, UncontrolledNoise(3.0), "one_point"), True),
    "smoothing-antithetic": (EstimatorOracle(exp_one_d(), SURFACE, UncontrolledNoise(1.0), "one_point"), True),
    "two-point": (EstimatorOracle(exp_one_d(), SPSA, UncontrolledNoise(1.0), "two_point", "c3"), False),
    "two-point-sf": (EstimatorOracle(_F1, SF, UncontrolledNoise(1.0), "two_point"), False),
    "controlled": (EstimatorOracle(_F1, SPSA, ControlledNoise(3.0, slope=1.0), "two_point"), False),
    "one-point-d2": (EstimatorOracle(quadratic([1.0, 2.0]), SF, UncontrolledNoise(1.0), "one_point"), False),
    "adversarial": (AdversarialOracle(hard_pair("convex_smooth", 2.0, 2.0, 1.0, 1.0, 0.1)[0]), False),
    "adversarial-d2": (scaled_hard_coordinates("strongly_convex", 1.0, 2.0, 1.0, 1.0, 0.2, [+1, -1]), False),
    "exact": (ExactGradientOracle(softabs(-1, 0.1)), False),
    "exact-d2": (ExactGradientOracle(quadratic([1.0, 2.0])), False),
}
BLOCK_ORACLES = {kind: oracle for kind, (oracle, _) in BLOCK_CASES.items()}


class TestReplyBlocks:
    # sample_gradients draws its m replies in one pass and, without the
    # library, evaluates them REPLY_BLOCK rows at a time: the bits of one
    # estimate call on all rows, and at d = 1 of the library's one call
    @pytest.mark.parametrize("path", ["library", "numpy"])
    @pytest.mark.parametrize("kind", sorted(BLOCK_CASES))
    def test_blocks_give_the_bits_of_one_call(self, kind, path, monkeypatch):
        if path == "library" and _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        oracle, antithetic = BLOCK_CASES[kind]
        x = np.full(oracle.dim, 0.3)
        for m in (1, REPLY_BLOCK - 1, REPLY_BLOCK, REPLY_BLOCK + 1, 2 * REPLY_BLOCK + 3):
            blocked, whole = RNG(30 + m), RNG(30 + m)
            with monkeypatch.context() as numpy_blocks:
                numpy_blocks.setattr(_lanes, "kernel", lambda: None)
                got = oracle.sample_gradients(x, 0.2, m, blocked, antithetic)
            with monkeypatch.context() as one_call:  # the library's call, else numpy's one block
                if path == "numpy":
                    one_call.setattr(_lanes, "kernel", lambda: None)
                one_call.setattr(core, "REPLY_BLOCK", 10 * m)
                want = oracle.sample_gradients(x, 0.2, m, whole, antithetic)
            assert got.shape == want.shape == (m, oracle.dim)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            assert blocked.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("path", ["library", "numpy"])
    def test_a_probe_holds_block_sized_temporaries(self, path, monkeypatch):
        # all 10^5 rows of a two-point probe at once took a traced peak of
        # 9.2 MiB on numpy's estimate, and in blocks 5.1; the library's one
        # call, its draws and its replies, takes 6.1
        if path == "library" and _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        if path == "numpy":
            monkeypatch.setattr(_lanes, "kernel", lambda: None)
        oracle, x = BLOCK_ORACLES["two-point"], np.array([0.0])
        probe_bias_variance(oracle, x, 0.1, 1000, RNG(40))  # builds or loads the library untraced
        tracemalloc.start()
        try:
            probe_bias_variance(oracle, x, 0.1, 100_000, RNG(41))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("path, mib", [("library", 7.0), ("numpy", 5.0)])
    def test_an_antithetic_probe_negates_its_mirror_block_by_block(self, path, mib, monkeypatch):
        # negating all 10^5 mirror draws before the blocks took a traced peak
        # of 5.6 MiB on numpy's estimate, and per block 4.2; the library's
        # one call, its draws and its replies, takes 6.1
        if path == "library" and _lanes.kernel() is None:
            pytest.skip("the lane kernel cannot be built with numpy's samplers here")
        if path == "numpy":
            monkeypatch.setattr(_lanes, "kernel", lambda: None)
        oracle, x = EstimatorOracle(quadratic([1.0]), SPSA, UncontrolledNoise(1.0), "one_point"), np.array([0.3])
        oracle.sample_gradients(x, 0.1, 1000, RNG(42), antithetic=True)  # builds or loads the library untraced
        tracemalloc.start()
        try:
            oracle.sample_gradients(x, 0.1, 100_000, RNG(43), antithetic=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20


class TestVicinityAndDeterminism:
    def test_sf_reports_query_point(self):
        f = quadratic([1.0])
        o = EstimatorOracle(f, SF, UncontrolledNoise(0.0), "one_point")
        np.testing.assert_array_equal(one_reply(o, np.array([0.2]), 0.1, RNG(20))[1], [0.2])

    def test_spsa_reports_probe_arm(self):
        f = quadratic([1.0])
        o = EstimatorOracle(f, SPSA, UncontrolledNoise(0.0), "one_point")
        assert abs(one_reply(o, np.array([0.2]), 0.1, RNG(21))[1][0] - 0.2) == pytest.approx(0.1)

    @pytest.mark.parametrize("kind", ["one-point", "two-point", "controlled", "exact", "adversarial",
                                      "adversarial-d2"])
    def test_one_reply_draws_what_one_sample_draws(self, kind):
        # estimate over the draws of one reply gives the bits of the batched
        # path (the lane kernel at d = 1) and is charged for a point within delta
        f = quadratic([1.0])
        oracle = {
            "one-point": EstimatorOracle(f, SPSA, UncontrolledNoise(1.0), "one_point"),
            "two-point": EstimatorOracle(f, SF, UncontrolledNoise(1.0), "two_point"),
            "controlled": EstimatorOracle(f, SPSA, ControlledNoise(1.0, slope=1.0), "two_point"),
            "exact": ExactGradientOracle(f),
            "adversarial": AdversarialOracle(hard_pair("convex_smooth", 2.0, 2.0, 1.0, 1.0, 0.1)[1]),
            "adversarial-d2": scaled_hard_coordinates("strongly_convex", 1.0, 2.0, 1.0, 1.0, 0.2, [+1, -1]),
        }[kind]
        x = np.full(oracle.dim, 0.3)
        g, y = one_reply(oracle, x, 0.1, RNG(23))
        np.testing.assert_array_equal(g, oracle.sample_gradients(x, 0.1, 1, RNG(23))[0])
        assert y.shape == x.shape and float(np.max(np.abs(y - x))) <= 0.1 * (1 + 1e-12)

    def test_out_of_domain_reply_rejected(self):
        f = quadratic([1.0])
        o = EstimatorOracle(f, SPSA, UncontrolledNoise(0.0), "one_point")
        with pytest.raises(DomainError):
            o.sample_gradients(np.array([5.0]), 0.1, 1, RNG(22))

    @pytest.mark.parametrize("kind", sorted(k for k in BLOCK_ORACLES if not k.endswith("antithetic")))
    def test_out_of_domain_samples_rejected_before_any_draw(self, kind):
        oracle, rng, start = BLOCK_ORACLES[kind], RNG(24), RNG(24)
        with pytest.raises(DomainError, match="escapes the domain"):
            oracle.sample_gradients(np.full(oracle.dim, 5.0), 0.1, 100, rng)
        assert rng.bit_generator.state == start.bit_generator.state

    def test_all_oracles_unbiased_in_y(self):
        f = quadratic([1.0])
        oracles = [
            EstimatorOracle(f, s, UncontrolledNoise(0.0), "one_point") for s in (SPSA, SF, SURFACE)
        ] + [ExactGradientOracle(f)]
        assert all(o.unbiased for o in oracles)

    def test_equal_streams_equal_samples(self):
        f = quadratic([1.0])
        o = EstimatorOracle(f, SF, UncontrolledNoise(1.0), "two_point")
        a = o.sample_gradients(np.array([0.1]), 0.2, 500, RngStream(9, 4).generator())
        b = o.sample_gradients(np.array([0.1]), 0.2, 500, RngStream(9, 4).generator())
        np.testing.assert_array_equal(a, b)

    def test_stepper_chunk_feeds_estimate(self):
        f = quadratic([1.0])
        o = EstimatorOracle(f, SPSA, UncontrolledNoise(1.0), "two_point")
        (chunk,) = o.make_stepper(8, 0.2, RngStream(10, 0).generator())
        du, w, xi = chunk
        for t in range(8):
            g, y, _ = o.estimate(np.array([[0.3]]), 0.2, du[t:t + 1], w[t:t + 1], xi[t:t + 1])
            assert g.shape == (1, 1)
            assert abs(y[0, 0] - 0.3) == pytest.approx(0.2)


class TestLaneSpec:
    F = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)

    def test_quadratic_cells_hand_over_their_formula_data(self):
        f = self.F
        one = EstimatorOracle(f, SPSA, UncontrolledNoise(3.0), "one_point").lane_spec()
        assert one[:2] == (_lanes.SIGNS | _lanes.EVAL_POINT, (0.5, -2.0, 1.5, 0.0, 0.0))
        sf = EstimatorOracle(f, SF, UncontrolledNoise(1.0), "two_point").lane_spec()
        assert sf[:2] == (_lanes.PLAIN | _lanes.TWO_POINT, (0.5, -2.0, 1.5, 0.0, 0.0))
        controlled = EstimatorOracle(f, SPSA, ControlledNoise(3.0, slope=0.5), "two_point")
        assert controlled.lane_spec()[:2] == (
            _lanes.SIGNS | _lanes.TWO_POINT | _lanes.EVAL_POINT | _lanes.CONTROLLED, (0.5, -2.0, 1.5, 3.0, 0.5))

    def test_coefficients_reproduce_the_value(self):
        # each 1-d family's formula, in the order the kernel computes it, gives its value's bits
        y = np.linspace(-1.5, 2.5, 101)
        kinked, exp = kinked_quadratic(0.3, 1.7), exp_one_d()
        assert (kinked.formula_1d, exp.formula_1d) == (("kinked", 0.3, 1.7), ("exp",))
        kind, ca, cb, cc = self.F.formula_1d
        assert kind == "quadratic"
        np.testing.assert_array_equal((ca * y + cb) * y + cc, self.F.value(y))
        half = np.where(y < 0, 0.5 * 0.3, 0.5 * 1.7)
        np.testing.assert_array_equal(half * y * y, kinked.value(y))
        np.testing.assert_array_equal(np.exp(y) - y, exp.value(y))

    def test_other_targets_are_not_covered(self):
        # another 1-d target's draws are stated, but not its formula, so
        # numpy runs it and makes its probe replies; the kinked and exp
        # targets hand their formula to probes, but runs take the numpy loop;
        # d > 1 is run and drawn by numpy only
        for target, kind in ((softabs(+1, 0.1), 0), (kinked_quadratic(), _lanes.KINKED), (exp_one_d(), _lanes.EXP)):
            for noise, feedback in ((UncontrolledNoise(1.0), "one_point"), (ControlledNoise(1.0), "two_point")):
                spec = EstimatorOracle(target, SPSA, noise, feedback).lane_spec()
                covered = EstimatorOracle(self.F, SPSA, noise, feedback).lane_spec()
                assert (spec.data is None) == (kind == 0)
                assert (spec.flags, spec.weight, spec.noise(0.2)) == (covered.flags | kind, covered.weight,
                                                                       covered.noise(0.2))
                oracle = EstimatorOracle(target, SPSA, noise, feedback)
                assert _lanes.lane_run(oracle, False, [np.random.default_rng(0)], [10], [None]) is None
        oracles = [
            EstimatorOracle(quadratic([1.0, 2.0]), SPSA, UncontrolledNoise(1.0), "one_point"),
            EstimatorOracle(quadratic([1.0, 2.0]), SF, UncontrolledNoise(1.0), "one_point"),
        ]
        assert [o.lane_spec() for o in oracles] == [None] * 2

    @pytest.mark.parametrize("scheme", [SPSA, RDSA, SF])
    def test_every_controlled_cell_is_covered(self, scheme):
        for sigma in (0.0, 1.0, 3.0):
            for slope in (0.0, 0.5, 1.0):
                spec = EstimatorOracle(self.F, scheme, ControlledNoise(sigma, slope), "two_point").lane_spec()
                assert spec.flags & _lanes.CONTROLLED
                assert spec.data == (0.5, -2.0, 1.5, sigma, slope)

    def test_draw_specs_name_direction_weight_and_noise(self):
        f = self.F
        spec = lambda scheme, noise, feedback: EstimatorOracle(f, scheme, noise, feedback).lane_spec()
        directions = _lanes.SIGNS | _lanes.UNIT | _lanes.PLAIN
        one = spec(SPSA, UncontrolledNoise(3.0), "one_point")
        assert (one.flags & directions, one.weight, one.noise(0.2)) == (_lanes.SIGNS, 1.0, 3.0)
        smoothing = spec(SURFACE, UncontrolledNoise(0.0), "one_point")
        assert (smoothing.flags & directions, smoothing.weight, smoothing.noise) == (_lanes.UNIT, 1.0, None)
        # rdsa's U = (z/|z|)*sqrt(d) is z/|z| at d = 1
        rdsa = spec(RDSA, UncontrolledNoise(1.0), "two_point")
        assert (rdsa.flags & directions, rdsa.weight, rdsa.noise(0.2)) == (_lanes.UNIT, 0.5, 1.0)
        # controlled noise hands the kernel the plain normal psi
        controlled = spec(SF, ControlledNoise(3.0), "two_point")
        assert (controlled.flags & directions, controlled.weight, controlled.noise(0.2)) == (_lanes.PLAIN, 0.5, 1.0)
        assert spec(SPSA, UncontrolledNoise(3.0), "two_point").shift is None
        exact = ExactGradientOracle(softabs(-1, 0.1)).lane_spec()
        assert (exact.flags & directions, exact.noise, exact.shift) == (0, None, None)

    def test_exact_gradient_of_a_pair_arm(self):
        assert ExactGradientOracle(softabs(-1, 0.1)).lane_spec()[:2] == (_lanes.AT_X | _lanes.SOFTABS, (-1.0, 0.1))
        assert ExactGradientOracle(strongly_convex_pair(+1, 0.2)).lane_spec()[:2] == (_lanes.AT_X, (1.0, 0.2))
        assert ExactGradientOracle(self.F).lane_spec() is None
