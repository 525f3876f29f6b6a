import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zograd import _lanes
from zograd.adversarial import (
    EPS_CAP_CONVEX,
    GRID_DELTA,
    GRID_X,
    AdversarialOracle,
    HardInstance,
    bias_excess_on_grid,
    convex_gap_slack,
    gap_deviation_on_grid,
    hard_pair,
    kl_divergence_bound,
    mean_response_convex,
    mean_response_strongly_convex,
    minimax_lower_bound,
    optimal_separation,
    scaled_hard_coordinates,
    worst_case_tolerance,
)
from zograd.core import DomainError, OracleEnvelope, RngStream
from zograd.testbed import softabs

from instruments import one_reply

ENV22 = OracleEnvelope(c1=1.0, p=2.0, c2=1.0, q=2.0)
ENV12 = OracleEnvelope(c1=1.0, p=1.0, c2=1.0, q=2.0)


class TestMeanResponses:
    @pytest.mark.parametrize("response, x", [(mean_response_convex, -1.0), (mean_response_strongly_convex, 0.05)])
    def test_per_lane_deltas_match_one_delta_each(self, response, x):
        # numpy's array power differs from Python's float power in the last
        # bit for the first two deltas; a lane's reply must not depend on
        # whether its delta came alone or in a column of lanes.  At these x
        # the reply is -eps + shift (convex) or the shift itself (strongly
        # convex), so a last-bit change of the shift shows.
        eps, c1, p = 0.05, 0.15, 2.0
        deltas = np.array([[0.5129835547887271], [0.2666643374642336], [0.3]])
        column = response(+1, np.full((3, 1), x), deltas, eps, c1, p)
        for lane in range(3):
            assert column[lane, 0] == response(+1, np.array([[x]]), float(deltas[lane, 0]), eps, c1, p)[0, 0]

    def test_full_shift_merges_the_means(self):
        # once the bias budget covers eps, the two replies coincide off x=0,
        # and at the branch point they differ by the closed-form residual
        eps, delta = 0.1, 1.0  # c1*delta^p = 1 >= eps
        xs = GRID_X[GRID_X != 0.0]
        gp = mean_response_convex(+1, xs, delta, eps, 1.0, 2.0)
        gm = mean_response_convex(-1, xs, delta, eps, 1.0, 2.0)
        np.testing.assert_allclose(gp, gm, atol=1e-15)
        at0 = abs(
            float(mean_response_convex(+1, 0.0, delta, eps, 1.0, 2.0))
            - float(mean_response_convex(-1, 0.0, delta, eps, 1.0, 2.0))
        )
        assert at0 == pytest.approx(convex_gap_slack(eps), rel=1e-9)

    def test_far_left_limit(self):
        # shifted slope approaches -eps + min(eps, c1 d^p) far below the well
        eps, delta, p = 0.1, 0.2, 2.0
        val = float(mean_response_convex(+1, -50.0, delta, eps, 1.0, p))
        assert val == pytest.approx(-eps + min(eps, delta**p), abs=1e-12)

    def test_antisymmetry(self):
        eps = 0.1
        for delta in (0.05, 0.3, 1.0):
            gp = mean_response_convex(+1, GRID_X, delta, eps, 1.0, 2.0)
            gm_flipped = -mean_response_convex(-1, -GRID_X, delta, eps, 1.0, 2.0)
            np.testing.assert_allclose(gp, gm_flipped, atol=1e-15)

    def test_sc_gap_identity_everywhere(self):
        eps = 0.2
        for delta in (0.01, 0.3, 1.0):
            gap = np.abs(
                mean_response_strongly_convex(+1, GRID_X, delta, eps, 1.0, 1.0)
                - mean_response_strongly_convex(-1, GRID_X, delta, eps, 1.0, 1.0)
            )
            target = 2.0 * max(eps - delta, 0.0)
            np.testing.assert_allclose(gap, target, atol=1e-12)

    def test_sc_bias_is_exactly_the_shift(self):
        eps, delta, p = 0.2, 0.3, 1.0
        f = mean_response_strongly_convex(+1, GRID_X, delta, eps, 1.0, p)
        true_grad = GRID_X - eps
        np.testing.assert_allclose(np.abs(f - true_grad), min(eps, delta**p), atol=1e-15)


class TestGridValidity:
    @pytest.mark.parametrize("problem,eps", [("convex_smooth", 0.1), ("strongly_convex", 0.2)])
    @pytest.mark.parametrize("p,q", [(1.0, 2.0), (2.0, 2.0)])
    def test_bias_never_exceeds_envelope(self, problem, eps, p, q):
        plus, minus = hard_pair(problem, p, q, 1.0, 1.0, eps)
        assert bias_excess_on_grid(plus) <= 1e-12
        assert bias_excess_on_grid(minus) <= 1e-12

    @pytest.mark.parametrize("problem,eps", [("convex_smooth", 0.1), ("strongly_convex", 0.2)])
    def test_gap_bound_with_slack(self, problem, eps):
        plus, minus = hard_pair(problem, 2.0, 2.0, 1.0, 1.0, eps)
        excess, defect = gap_deviation_on_grid(plus, minus)
        assert excess <= 1e-12
        if problem == "strongly_convex":
            assert defect <= 1e-12


class TestGridOnePass:
    """The one (25, 401) pass equals the per-delta loop, bit for bit."""

    @staticmethod
    def _bias_per_delta(inst):
        f, worst = inst.objective(), -math.inf
        for delta in GRID_DELTA:
            excess = np.abs(inst.mean_response(GRID_X, delta) - f.gradient(GRID_X)) - inst.envelope.c1_value(delta)
            worst = max(worst, float(np.max(excess)))
        return worst

    @staticmethod
    def _gap_per_delta(plus, minus):
        slack = convex_gap_slack(plus.eps) if plus.problem_class == "convex_smooth" else 0.0
        worst_excess, worst_defect = -math.inf, 0.0
        for delta in GRID_DELTA:
            target = 2.0 * max(plus.eps - plus.envelope.c1_value(delta), 0.0)
            gap = np.abs(plus.mean_response(GRID_X, delta) - minus.mean_response(GRID_X, delta))
            worst_excess = max(worst_excess, float(np.max(gap - target)) - slack)
            if plus.problem_class == "strongly_convex":
                worst_defect = max(worst_defect, float(np.max(np.abs(gap - target))))
        return worst_excess, worst_defect

    # the check's four pairs, a bias budget that covers eps on most of the grid, and a fractional p
    @pytest.mark.parametrize("problem,p,q,c1,eps", [
        ("convex_smooth", 1.0, 2.0, 1.0, 0.1), ("convex_smooth", 2.0, 2.0, 1.0, 0.1),
        ("strongly_convex", 1.0, 2.0, 1.0, 0.2), ("strongly_convex", 2.0, 2.0, 1.0, 0.2),
        ("convex_smooth", 2.0, 2.0, 40.0, 0.3), ("strongly_convex", 0.7, 1.0, 0.15, 0.05),
    ])
    def test_equals_the_per_delta_loop(self, problem, p, q, c1, eps):
        plus, minus = hard_pair(problem, p, q, c1, 1.0, eps)
        for inst in (plus, minus):
            assert bias_excess_on_grid(inst) == self._bias_per_delta(inst)
        assert gap_deviation_on_grid(plus, minus) == self._gap_per_delta(plus, minus)


class TestClosedForms:
    def test_worst_case_tolerance_values(self):
        assert worst_case_tolerance(1.0, 1.0, 2.0, 2.0) == pytest.approx(math.sqrt(1.0 / 3.0))
        assert worst_case_tolerance(1.0, 1.0, 1.0, 2.0) == pytest.approx(0.5)

    def test_worst_case_tolerance_against_grid_search(self):
        # independent oracle: dense scan of ((eps - c1 d^p)+)^2 d^q
        for eps, c1, p, q in ((1.0, 1.0, 2.0, 2.0), (0.3, 1.5, 1.0, 2.0), (0.2, 0.7, 2.0, 1.0)):
            d_star = worst_case_tolerance(eps, c1, p, q)
            objective = lambda d: max(eps - c1 * d**p, 0.0) ** 2 * d**q
            best = d_star
            grid = np.linspace(1e-9, (eps / c1) ** (1.0 / p), 10_000)
            vals = (eps - c1 * grid**p) ** 2 * grid**q
            assert objective(d_star) >= float(vals.max()) * (1.0 - 1e-9)
            assert objective(best) >= objective(0.9 * best)
            assert objective(best) >= objective(1.1 * best)

    def test_worst_case_tolerance_degenerate_q(self):
        assert worst_case_tolerance(1.0, 1.0, 2.0, 0.0) == 0.0

    def test_kl_bound_zero_rounds(self):
        assert kl_divergence_bound(0, 0.5, ENV22) == 0.0

    def test_kl_bound_halves_with_doubled_variance(self):
        big = OracleEnvelope(c1=1.0, p=2.0, c2=2.0, q=2.0)
        assert kl_divergence_bound(100, 0.5, big) == pytest.approx(
            0.5 * kl_divergence_bound(100, 0.5, ENV22)
        )

    def test_kl_bound_constant_variance_limit(self):
        env = OracleEnvelope(c1=1.0, p=1.0, c2=4.0, q=0.0)
        assert kl_divergence_bound(10, 0.5, env) == pytest.approx(2 * 10 * 0.25 / 4.0)

    def test_kl_bound_at_optimal_separation(self):
        # at the optimizing separation the per-pair divergence collapses to
        # the horizon-free constant 2*(2p/(4p+q))^2
        for p, q, n in ((2.0, 2.0, 100), (1.0, 2.0, 10_000)):
            env = OracleEnvelope(c1=1.0, p=p, c2=1.0, q=q)
            eps = optimal_separation("convex_smooth", p, q, 1.0, 1.0, n)
            expected = 2.0 * (2.0 * p / (4.0 * p + q)) ** 2
            assert kl_divergence_bound(n, eps, env) == pytest.approx(expected, rel=1e-12)

    def test_lower_bound_quoted_values(self):
        n = 10_000
        lb = minimax_lower_bound("convex_smooth", 1.0, 2.0, 1.0, 1.0, n)
        assert lb == pytest.approx(1.0 / (3 * math.sqrt(3)) * n**-0.25)
        lb = minimax_lower_bound("convex_smooth", 2.0, 2.0, 1.0, 1.0, n)
        assert lb == pytest.approx(9.0 / 20.0 * (1.0 / 25.0) ** (1 / 3) * n ** (-1 / 3))
        lb = minimax_lower_bound("strongly_convex", 1.0, 2.0, 1.0, 1.0, n)
        assert lb == pytest.approx(0.5 * n**-0.5)
        lb = minimax_lower_bound("strongly_convex", 2.0, 2.0, 1.0, 1.0, n)
        assert lb == pytest.approx(27.0 * (2.0 / 7.0**7) ** (1 / 3) * n ** (-2 / 3))

    @pytest.mark.parametrize("closed_form", [minimax_lower_bound, optimal_separation], ids=lambda f: f.__name__)
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(problem=st.sampled_from(["convex_smooth", "strongly_convex"]), p=st.floats(0.25, 4.0),
           q=st.floats(0.0, 4.0), c1=st.floats(1e-3, 1e3), c2=st.floats(1e-3, 1e3), n=st.integers(1, 10**8),
           lam1=st.floats(1e-3, 1e3), lam2=st.floats(1e-3, 1e3))
    def test_lower_bound_scales_with_constants(self, closed_form, problem, p, q, c1, c2, n, lam1, lam2):
        # both separations and the convex floor go as c1^(q/(2p+q)) c2^(p/(2p+q));
        # the strongly convex floor, eps^2 up to a constant, as their squares
        two_pq = 2.0 * p + q
        power = lam1 ** (q / two_pq) * lam2 ** (p / two_pq)
        k = 2 if closed_form is minimax_lower_bound and problem == "strongly_convex" else 1
        base = closed_form(problem, p, q, c1, c2, n)
        scaled = closed_form(problem, p, q, lam1 * c1, lam2 * c2, n)
        assert scaled == pytest.approx(base * power**k, rel=1e-12, abs=0.0)

    def test_lower_bound_monotonicity(self):
        for problem in ("convex_smooth", "strongly_convex"):
            args = (2.0, 2.0, 1.0, 1.0)
            assert minimax_lower_bound(problem, *args, 1000) > minimax_lower_bound(problem, *args, 10_000)
            assert minimax_lower_bound(problem, 2.0, 2.0, 2.0, 1.0, 1000) > minimax_lower_bound(
                problem, *args, 1000
            )
            assert minimax_lower_bound(problem, 2.0, 2.0, 1.0, 2.0, 1000) > minimax_lower_bound(
                problem, *args, 1000
            )

    def test_separation_consistency_convex(self):
        # plugging the optimizing separation back into the floor expression
        # reproduces the closed form to 1e-12 relative
        for p, q, c1, c2, n in ((2.0, 2.0, 1.0, 1.0, 10_000), (1.0, 2.0, 0.5, 3.0, 500)):
            eps = optimal_separation("convex_smooth", p, q, c1, c2, n)
            lb = minimax_lower_bound("convex_smooth", p, q, c1, c2, n)
            assert lb == pytest.approx(eps * (2 * p + q) / (4 * (4 * p + q)), rel=1e-12)

    def test_separation_consistency_sc(self):
        for p, q, c1, c2, n in ((1.0, 2.0, 1.0, 1.0, 10_000), (2.0, 2.0, 2.0, 0.5, 2000)):
            eps = optimal_separation("strongly_convex", p, q, c1, c2, n)
            lb = minimax_lower_bound("strongly_convex", p, q, c1, c2, n)
            assert lb == pytest.approx(eps**2 * (2 * p + q) / (2 * (6 * p + q)), rel=1e-12)

    def test_separation_decreasing_in_n(self):
        hi = optimal_separation("convex_smooth", 2.0, 2.0, 1.0, 1.0, 100)
        lo = optimal_separation("convex_smooth", 2.0, 2.0, 1.0, 1.0, 10_000)
        assert lo < hi

    def test_separation_below_cap_at_acceptance_horizon(self):
        eps = optimal_separation("convex_smooth", 2.0, 2.0, 1.0, 1.0, 10_000)
        assert eps < EPS_CAP_CONVEX


class TestHardInstance:
    @pytest.mark.parametrize("problem, eps", [
        ("convex_smooth", math.nan), ("strongly_convex", math.nan), ("strongly_convex", math.inf),
        ("strongly_convex", -math.inf), ("strongly_convex", 0.0),
    ])
    def test_eps_must_be_finite_and_positive(self, problem, eps):
        with pytest.raises(DomainError, match="eps must be finite and positive"):
            HardInstance(problem, +1, eps, ENV12)

    def test_convex_cap_enforced(self):
        with pytest.raises(DomainError):
            HardInstance("convex_smooth", +1, 0.5, ENV22)  # 0.5 > 1/(4 ln 2)

    def test_degenerate_envelope_rejected(self):
        with pytest.raises(DomainError):
            HardInstance("strongly_convex", +1, 0.2, OracleEnvelope(c1=0.0, p=1.0, c2=1.0, q=2.0))

    def test_type_ii_envelope_rejected(self):
        env = OracleEnvelope(c1=1.0, p=2.0, c2=1.0, q=2.0, oracle_type="type_II")
        with pytest.raises(DomainError):
            HardInstance("convex_smooth", +1, 0.1, env)

    def test_objective_matches_family(self):
        inst = HardInstance("convex_smooth", -1, 0.1, ENV22)
        f = inst.objective()
        ref = softabs(-1, 0.1)
        xs = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(np.asarray(f.value(xs)), np.asarray(ref.value(xs)))

    def test_oracle_reports_query_point(self):
        inst = HardInstance("strongly_convex", +1, 0.2, ENV12)
        y = one_reply(AdversarialOracle(inst), np.array([0.3]), 0.1, RngStream(1, 0).generator())[1]
        np.testing.assert_array_equal(y, [0.3])

    def test_oracle_noise_variance(self):
        inst = HardInstance("strongly_convex", +1, 0.2, ENV12)
        oracle = AdversarialOracle(inst)
        delta = 0.2
        g = oracle.sample_gradients(np.array([0.1]), delta, 1_000_000, RngStream(2, 0).generator())
        target = inst.envelope.c2_value(delta)
        assert float(np.var(g)) == pytest.approx(target, rel=0.01)

    def test_oracle_mean_matches_closed_form(self):
        inst = HardInstance("strongly_convex", -1, 0.2, ENV12)
        oracle = AdversarialOracle(inst)
        g = oracle.sample_gradients(np.array([0.4]), 0.3, 200_000, RngStream(3, 0).generator())
        expected = float(mean_response_strongly_convex(-1, 0.4, 0.3, 0.2, 1.0, 1.0))
        se = float(np.std(g)) / math.sqrt(g.size)
        assert float(np.mean(g)) == pytest.approx(expected, abs=5 * se)

    def test_lane_spec_and_shift(self):
        convex = AdversarialOracle(HardInstance("convex_smooth", -1, 0.1, ENV22))
        sc = AdversarialOracle(HardInstance("strongly_convex", +1, 0.2, ENV12))
        assert convex.lane_spec()[:3] == (_lanes.AT_X | _lanes.SOFTABS, (-1.0, 0.1), 1.0)
        assert sc.lane_spec()[:3] == (_lanes.AT_X, (1.0, 0.2), 1.0)
        # each lane's shift as estimate computes it for that lane's delta alone
        deltas = np.array([[0.05], [0.3], [0.9]])
        for oracle in (convex, sc):
            env, shift = oracle.envelope, oracle.lane_spec().shift
            expected = [min(oracle.instance.eps, env.c1 * d**env.p) for d in deltas[:, 0].tolist()]
            np.testing.assert_array_equal([shift(d) for d in deltas[:, 0].tolist()], expected)
        shift = convex.lane_spec().shift
        assert 0.0 < shift(0.05) < 0.1 == shift(0.9)  # unsaturated, saturated

    def test_lane_spec_draws(self):
        # no direction; the noise sd*z, with sd that of make_stepper's lane delta
        oracle = AdversarialOracle(HardInstance("convex_smooth", -1, 0.1, ENV22))
        spec = oracle.lane_spec()
        assert not spec.flags & (_lanes.SIGNS | _lanes.UNIT | _lanes.PLAIN)
        assert spec.noise(0.3) == math.sqrt(oracle.envelope.c2_value(0.3))


class TestSeparableComposition:
    def test_single_coordinate_matches_base(self):
        inst = HardInstance("strongly_convex", +1, 0.2, ENV12)
        composed = AdversarialOracle(inst)
        x = np.array([0.3])
        np.testing.assert_allclose(
            composed.mean_response(x, 0.2), [float(inst.mean_response(0.3, 0.2))]
        )

    def test_mixed_classes_rejected(self):
        a = HardInstance("strongly_convex", +1, 0.2, ENV12)
        b = HardInstance("convex_smooth", +1, 0.1, ENV22)
        with pytest.raises(DomainError):
            AdversarialOracle(a, b)

    def test_envelope_arithmetic_exact(self):
        oracle = scaled_hard_coordinates("strongly_convex", 1.0, 2.0, 1.0, 1.0, 0.2, [+1, -1, +1, -1])
        env = oracle.envelope
        assert env.c1 == pytest.approx(1.0, abs=1e-15)
        assert env.c2 == pytest.approx(1.0, abs=1e-15)
        # each coordinate saturates c1 * d^p / sqrt(d); the l2 norm recovers c1 * d^p
        delta = 0.05
        x = np.zeros(4)
        bias = oracle.mean_response(x, delta) - oracle.target.gradient_at(x)
        per_coord = oracle.instances[0].envelope.c1_value(delta)
        np.testing.assert_allclose(np.abs(bias), per_coord, atol=1e-15)
        assert float(np.linalg.norm(bias)) == pytest.approx(env.c1_value(delta), rel=1e-12)

    def test_variances_add(self):
        oracle = scaled_hard_coordinates("strongly_convex", 1.0, 2.0, 1.0, 1.0, 0.2, [+1, -1])
        delta = 0.3
        total = sum(inst.envelope.c2_value(delta) for inst in oracle.instances)
        assert total == pytest.approx(oracle.envelope.c2_value(delta))
        g = oracle.sample_gradients(np.zeros(2), delta, 400_000, RngStream(4, 0).generator())
        sampled = float(np.mean(np.sum((g - g.mean(axis=0)) ** 2, axis=1)))
        assert sampled == pytest.approx(total, rel=0.02)

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="at least one instance"):
            AdversarialOracle()
        with pytest.raises(DomainError, match="at least one instance"):
            scaled_hard_coordinates("convex_smooth", 2.0, 2.0, 1.0, 1.0, 0.1, [])

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_mixed_exponents_rejected(self, order):
        # composed p and q would be the first coordinate's: at delta = 0.05,
        # (p=2, q=2) then (p=1, q=1) declares a bias bound of 0.0035 against a
        # true 0.050, and the reverse a variance bound of 40 against 420
        envs = (OracleEnvelope(c1=1.0, p=2.0, c2=1.0, q=2.0), OracleEnvelope(c1=1.0, p=1.0, c2=1.0, q=1.0))
        insts = [HardInstance("strongly_convex", +1, 0.2, envs[i]) for i in order]
        with pytest.raises(DomainError, match="problem class, p and q"):
            AdversarialOracle(*insts)

    @pytest.mark.parametrize("c1, c2", [(1.0, 2.0), (0.3, 1e-300), (1e200, 1.0), (2.5, math.inf), (1e200, math.inf)])
    def test_one_coordinate_keeps_its_envelope(self, c1, c2):
        # hypot(c1) is c1 exactly, where sqrt(c1**2) overflows from ~1.3e154
        inst = HardInstance("strongly_convex", -1, 0.2, OracleEnvelope(c1=c1, p=1.0, c2=c2, q=2.0))
        assert AdversarialOracle(inst).envelope == inst.envelope

    def test_one_coordinate_is_the_instance_oracle(self):
        # its replies are the instance's mean plus noise of the instance's
        # variance, and its target is the instance's function
        for inst in (HardInstance("convex_smooth", -1, 0.1, ENV22), HardInstance("strongly_convex", +1, 0.2, ENV12)):
            oracle, x = AdversarialOracle(inst), np.array([0.3])
            noise = math.sqrt(inst.envelope.c2_value(0.2)) * RngStream(5, 0).generator().standard_normal((1000, 1))
            np.testing.assert_array_equal(oracle.sample_gradients(x, 0.2, 1000, RngStream(5, 0).generator()),
                                          inst.mean_response(x, 0.2) + noise)
            f, target = inst.objective(), oracle.target
            assert (target.name, target.f_star, target.hard_pair_arm) == (f.name, f.f_star, f.hard_pair_arm)
            assert target.hard_pair_arm is not None
            np.testing.assert_array_equal([target.domain.lower, target.domain.upper], [f.domain.lower, f.domain.upper])

    def test_several_coordinates_have_no_lane_spec(self):
        assert scaled_hard_coordinates("convex_smooth", 2.0, 2.0, 1.0, 1.0, 0.1, [+1, -1]).lane_spec() is None
