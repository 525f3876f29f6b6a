import math

import numpy as np
import pytest

from zograd.core import Ball, Box, DomainError, RngStream, interval
from zograd.estimators import SPSA, SURFACE, ControlledNoise, EstimatorOracle, ExactGradientOracle, UncontrolledNoise
from zograd.solver import manual_schedule, run
from zograd.testbed import (
    ObjectiveFunction,
    exp_one_d,
    finite_diff_check,
    kinked_quadratic,
    quadratic,
    separable,
    softabs,
    strongly_convex_pair,
)

from instruments import value_at

RNG = lambda i: RngStream(2024, i).generator()


def _rebuilt(f: ObjectiveFunction, **changes) -> ObjectiveFunction:
    """f built again with ``changes`` to its arguments (its dim is its domain's, not an argument)."""
    return ObjectiveFunction(**{**{k: v for k, v in vars(f).items() if k != "dim"}, **changes})


def sample_convexity_smoothness(f, n=200, seed=3):
    """f(y) >= f(x) + <g, y-x> - tol and f(y) <= ... + (L/2)|y-x|^2 + tol."""
    rng = RngStream(seed, 0).generator()
    if f.dim == 1:
        lo, hi = f.domain.lower[0], f.domain.upper[0]
        xs = rng.uniform(lo, hi, size=(n, 2))
        for x, y in xs:
            fx, fy = float(f.value(x)), float(f.value(y))
            g = float(f.gradient(x))
            lin = fx + g * (y - x)
            assert fy >= lin - 1e-9
            assert fy <= lin + 0.5 * f.smoothness * (y - x) ** 2 + 1e-9
    else:
        for _ in range(n):
            x = rng.uniform(f.domain.lower, f.domain.upper)
            y = rng.uniform(f.domain.lower, f.domain.upper)
            fx, fy = value_at(f, x), value_at(f, y)
            g = f.gradient_at(x)
            lin = fx + float(np.dot(g, y - x))
            assert fy >= lin - 1e-9
            assert fy <= lin + 0.5 * f.smoothness * float(np.sum((y - x) ** 2)) + 1e-9


class TestSoftAbs:
    def test_value_at_minimizer(self):
        f = softabs(+1, 0.1)
        assert value_at(f, np.array([1.0])) == pytest.approx(2 * 0.1**2 * math.log(2))
        assert f.f_star == pytest.approx(0.013862943611198906)

    def test_gradient_zero_at_center(self):
        for eps in (0.3, 0.05):
            f = softabs(+1, eps)
            assert float(f.gradient(1.0)) == 0.0

    def test_gradient_limits(self):
        # slopes approach +-eps far from the center (checked at x = +-50)
        f = softabs(+1, 0.1)
        assert float(f.gradient(50.0)) == pytest.approx(0.1, abs=1e-12)
        assert float(f.gradient(-50.0)) == pytest.approx(-0.1, abs=1e-12)

    def test_stable_far_from_center(self):
        f = softabs(-1, 0.01)
        e = 0.01
        for x in (-500.0, 500.0):
            v = float(f.value(np.array([x]))[0])
            assert math.isfinite(v)
            # log(1 + e^-u) in the overflow-free form
            u = (x + 1.0) / e
            ref = e * (x + 1.0) + 2.0 * e * e * (-min(u, 0.0) + math.log1p(math.exp(-abs(u))))
            assert v == pytest.approx(ref, rel=1e-12)

    def test_second_derivative_band(self):
        # numeric curvature stays in [0, 1/2] on a dense grid
        f = softabs(+1, 0.1)
        xs = np.linspace(-2.0, 2.0, 10_000)
        h = 1e-4
        second = (np.asarray(f.value(xs + h)) - 2 * np.asarray(f.value(xs)) + np.asarray(f.value(xs - h))) / h**2
        assert np.all(second >= -1e-6)
        assert np.all(second <= 0.5 + 1e-6)

    def test_separation_below_center(self):
        # once eps < 1/(4 log 2), points on the wrong side cost at least eps/2
        eps = 0.1
        assert eps < 1.0 / (4 * math.log(2))
        for v in (+1, -1):
            f = softabs(v, eps)
            xs = np.linspace(-2.0, 2.0, 2001)
            mask = xs * v <= 0
            gaps = np.asarray(f.value(xs[mask])) - f.f_star
            assert np.all(gaps > eps / 2)

    def test_convex_and_smooth(self):
        sample_convexity_smoothness(softabs(+1, 0.1))

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            softabs(+1, 0.0)
        with pytest.raises(DomainError):
            softabs(2, 0.1)


class TestStronglyConvexPair:
    def test_value_at_minimizer(self):
        f = strongly_convex_pair(+1, 0.2)
        assert value_at(f, np.array([0.2])) == pytest.approx(-0.02)
        assert f.f_star == pytest.approx(-0.02)
        np.testing.assert_allclose(f.x_star, [0.2])

    def test_gradient_at_zero(self):
        f = strongly_convex_pair(-1, 0.2)
        assert float(f.gradient(0.0)) == pytest.approx(0.2)

    def test_stationarity(self):
        f = strongly_convex_pair(+1, 0.2)
        assert float(f.gradient(0.2)) == 0.0

    @pytest.mark.parametrize("v, eps, domain", [(+1, 1.377, None), (-1, 2.5e99, None), (+1, 0.2, interval(-1.0, 0.1))])
    def test_minimizer_off_the_domain_rejected(self, v, eps, domain):
        # f* = -eps^2/2 holds only where v*eps lies in the domain
        with pytest.raises(DomainError, match="outside its domain"):
            strongly_convex_pair(v, eps, domain)

    def test_minimizer_on_the_boundary_accepted(self):
        assert strongly_convex_pair(-1, 1.0).f_star == -0.5

    def test_separation(self):
        eps = 0.2
        for v in (+1, -1):
            f = strongly_convex_pair(v, eps)
            xs = np.linspace(-2.0, 2.0, 2001)
            mask = xs * v < 0
            gaps = np.asarray(f.value(xs[mask])) - f.f_star
            assert np.all(gaps >= eps**2 / 2 - 1e-12)


class TestSeparable:
    def test_sum_of_optima(self):
        f = separable([softabs(+1, 0.1), softabs(-1, 0.1)])
        val = value_at(f, np.array([1.0, -1.0]))
        assert val == pytest.approx(2 * 2 * 0.1**2 * math.log(2))
        assert f.f_star == pytest.approx(val)

    def test_gradient_zero_at_optimum(self):
        comps = [strongly_convex_pair(+1, 0.2) for _ in range(3)]
        f = separable(comps)
        np.testing.assert_allclose(f.gradient_at(f.x_star), np.zeros(3), atol=1e-15)

    def test_value_off_center(self):
        # evaluate the closed form twice by hand
        c = softabs(+1, 0.1)
        f = separable([c, c])
        assert value_at(f, np.zeros(2)) == pytest.approx(2 * float(c.value(0.0)))

    def test_gradient_is_concatenation(self):
        comps = [softabs(+1, 0.1), strongly_convex_pair(-1, 0.2), quadratic([2.0])]
        f = separable(comps)
        x = np.array([0.3, -0.4, 0.9])
        expected = np.array([float(c.gradient(x[i])) for i, c in enumerate(comps)])
        np.testing.assert_array_equal(f.gradient_at(x), expected)

    def test_constants(self):
        f = separable([softabs(+1, 0.1), strongly_convex_pair(+1, 0.1)])
        assert f.smoothness == 1.0
        assert f.strong_convexity == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            separable([])

    @pytest.mark.parametrize("c", [
        softabs(+1, 0.1), strongly_convex_pair(-1, 0.3), quadratic([2.0], [-1.0]), exp_one_d(), kinked_quadratic(),
    ], ids=lambda c: c.name)
    def test_one_component_is_that_component(self, c):
        # the identity relation: separable([c]) is c in value, gradient, envelope and run errors
        f = separable([c])
        x = np.linspace(c.domain.lower[0], c.domain.upper[0], 7)[:, None]
        assert f.value_rows(x).shape == (7, 1)
        np.testing.assert_array_equal(f.value_rows(x), c.value_rows(x))
        np.testing.assert_array_equal(f.gradient(x), c.gradient(x))
        assert (f.f_star, f.smoothness, f.strong_convexity) == (c.f_star, c.smoothness, c.strong_convexity)
        oracles = [
            ExactGradientOracle,
            lambda g: EstimatorOracle(g, SURFACE, UncontrolledNoise(1.0), "one_point"),
            lambda g: EstimatorOracle(g, SPSA, ControlledNoise(1.0, 0.5), "two_point"),
        ]
        for oracle in oracles:
            assert oracle(f).envelope == oracle(c).envelope
            for mode in ("optimization", "regret"):
                traces = [run(oracle(g), manual_schedule(0.5, ("const", 0.1)), 50, rng=[RNG(i) for i in range(3)],
                              mode=mode) for g in (f, c)]
                np.testing.assert_array_equal(traces[0].error, traces[1].error)
                np.testing.assert_array_equal(traces[0].regret, traces[1].regret)


class TestQuadratic:
    def test_plain_value(self):
        f = quadratic([1.0, 1.0])
        assert value_at(f, np.ones(2)) == pytest.approx(1.0)

    def test_constants(self):
        f = quadratic([2.0, 0.5])
        assert f.smoothness == 2.0
        assert f.strong_convexity == 0.5

    def test_vertex_inside(self):
        f = quadratic([1.0], [-1.0], interval(-2.0, 2.0))
        np.testing.assert_allclose(f.x_star, [1.0])
        assert f.f_star == pytest.approx(-0.5)

    def test_vertex_clipped_to_boundary(self):
        f = quadratic([1.0], [-2.0], interval(0.0, 1.0), offset=1.5)
        np.testing.assert_allclose(f.x_star, [1.0])
        assert f.f_star == pytest.approx(0.0)

    def test_offset_moves_values_not_gradients(self):
        base = quadratic([1.0], [-2.0])
        lifted = quadratic([1.0], [-2.0], offset=1.5)
        assert value_at(lifted, np.array([0.3])) == pytest.approx(value_at(base, np.array([0.3])) + 1.5)
        assert float(lifted.gradient(0.3)) == float(base.gradient(0.3))

    def test_convex_and_smooth(self):
        sample_convexity_smoothness(quadratic([2.0, 0.5], [0.1, -0.2]))

    def test_sups_search_the_whole_2d_grid(self):
        # f = |x|^2/2 + x_2 peaks at the corner (2, 2) of the dilated box,
        # in the grid's last row; its minimum -1/2 sits at (0, -1)
        f = quadratic([1.0, 1.0], [0.0, 1.0])
        assert f.sup_abs() == 6.0
        assert f.span() == pytest.approx(6.5, abs=1e-3)
        assert f.sup_gradient_dual() == pytest.approx(math.sqrt(5.0))


class TestKinkedAndExp:
    def test_kinked_gradient_continuous(self):
        f = kinked_quadratic(0.5, 1.5)
        assert float(f.gradient(0.0)) == 0.0
        assert float(f.gradient(-1e-12)) == pytest.approx(0.0, abs=1e-12)
        assert f.strong_convexity == 0.5
        assert f.smoothness == 1.5

    def test_kinked_convex_and_smooth(self):
        sample_convexity_smoothness(kinked_quadratic())

    def test_exp_minimum(self):
        f = exp_one_d()
        assert f.f_star == pytest.approx(1.0)
        assert float(f.gradient(0.0)) == 0.0
        assert f.third_derivative_bound == pytest.approx(math.e**2)

    def test_exp_convex_and_smooth(self):
        sample_convexity_smoothness(exp_one_d())


class TestDimension:
    @pytest.mark.parametrize("build", [
        lambda dom: softabs(+1, 0.1, dom), lambda dom: strongly_convex_pair(-1, 0.2, dom),
        lambda dom: kinked_quadratic(domain=dom), lambda dom: exp_one_d(dom),
    ])
    def test_a_1d_family_takes_intervals_only(self, build):
        assert build(interval(-0.5, 0.5)).dim == 1
        for dom, got in ((Box(-np.ones(2), np.ones(2)), "a box of dimension 2"),
                         (Ball(np.zeros(1), 0.5), "a ball of dimension 1")):
            with pytest.raises(DomainError, match=f"needs an interval, got {got}$"):
                build(dom)


class TestFiniteDiff:
    def test_quadratic_nearly_exact(self):
        err = finite_diff_check(quadratic([1.0, 2.0], [0.3, 0.0]), 100, RNG(1))
        assert err <= 1e-6

    def test_softabs_within_tolerance(self):
        err = finite_diff_check(softabs(+1, 0.1), 100, RNG(2))
        assert err <= 1e-4

    def test_constant_function_absolute_fallback(self):
        f = quadratic([0.0], [0.0])
        assert finite_diff_check(f, 10, RNG(3)) == 0.0

    def test_all_testbeds_match(self):
        for f in (
            softabs(-1, 0.05),
            strongly_convex_pair(+1, 0.2),
            kinked_quadratic(),
            exp_one_d(),
            separable([softabs(+1, 0.1), strongly_convex_pair(-1, 0.3)]),
        ):
            assert finite_diff_check(f, 100, RNG(4)) <= 1e-4

    def test_rejects_zero_samples(self):
        with pytest.raises(DomainError):
            finite_diff_check(quadratic([1.0]), 0, RNG(5))

    @pytest.mark.parametrize("rows", ["every", "one"])
    def test_a_nan_gradient_gives_nan(self, rows):
        f = exp_one_d()
        if rows == "every":
            nan = lambda x: np.full(np.shape(x), np.nan)
        else:  # only the second of the points
            nan = lambda x: np.where(np.arange(np.size(x)).reshape(np.shape(x)) == 1, np.nan, f.gradient(x))
        assert math.isnan(finite_diff_check(_rebuilt(f, gradient=nan), 5, RNG(8)))


def _finite_diff_per_point(f, samples, rng, step=1e-5):
    """``finite_diff_check`` one point at a time: the reference its row pass
    must equal bit for bit."""
    worst = 0.0
    for _ in range(samples):
        if isinstance(f.domain, Box):
            x = f.domain.lower + rng.random(f.dim) * (f.domain.upper - f.domain.lower)
        else:
            z = rng.standard_normal(f.dim)
            z /= np.linalg.norm(z)
            x = f.domain.center + f.domain.radius * rng.random() ** (1.0 / f.dim) * z
        g = f.gradient_at(x)
        fd = np.empty_like(g)
        for i in range(f.dim):
            e = np.zeros(f.dim)
            e[i] = step
            fd[i] = (value_at(f, x + e) - value_at(f, x - e)) / (2.0 * step)
        worst = max(worst, float(np.linalg.norm(fd - g)) / max(float(np.linalg.norm(g)), 1.0))
    return worst


# the seven testbeds of `zograd check`, then 2-d, separable and ball-domain ones
ROW_PASS_CASES = [
    quadratic([1.0]),
    quadratic([2.0, 0.5], [0.3, -0.1]),
    softabs(+1, 0.1),
    softabs(-1, 0.05),
    strongly_convex_pair(+1, 0.2),
    kinked_quadratic(),
    exp_one_d(),
    quadratic([1.0, 2.0], [0.3, 0.0]),
    separable([softabs(+1, 0.1), strongly_convex_pair(-1, 0.3)]),
    quadratic([1.0, 3.0, 0.5], [0.2, -0.4, 0.1], domain=Ball(np.zeros(3), 1.5)),
    quadratic([2.0], [0.5], domain=Ball(np.zeros(1), 0.8)),
]


class TestFiniteDiffRowPass:
    @pytest.mark.parametrize("samples", [1, 7, 100])
    @pytest.mark.parametrize("f", ROW_PASS_CASES, ids=lambda f: f.name)
    def test_equals_the_per_point_loop(self, f, samples):
        rows, points = RNG(6), RNG(6)
        assert finite_diff_check(f, samples, rows) == _finite_diff_per_point(f, samples, points)
        # the same draws: both generators end in one state
        assert rows.bit_generator.state == points.bit_generator.state

    def test_the_checks_shared_stream_gives_the_per_point_worst(self):
        # `zograd check` draws the seven testbeds' points from one generator in turn
        rows, points = RngStream(4242, 1).generator(), RngStream(4242, 1).generator()
        worst = [max(check(f, 100, rng) for f in ROW_PASS_CASES[:7])
                 for check, rng in ((finite_diff_check, rows), (_finite_diff_per_point, points))]
        assert worst[0] == worst[1] and f"{worst[0]:.1e}" == "6.4e-11"

    def test_each_rows_norm_is_the_per_point_norm(self):
        # one point per call exposes that row's norms; a sum of squares by
        # np.sum or norm(axis=1) differs from BLAS's dot in the last bit for
        # about one 3-d row in ten
        f = quadratic([1.0, 3.0, 0.5], [0.2, -0.4, 0.1])
        off = _rebuilt(f, gradient=lambda x: f.gradient(x) + 1e-3 * np.asarray(x)[..., ::-1])
        for seed in range(60):
            assert finite_diff_check(off, 1, RNG(seed)) == _finite_diff_per_point(off, 1, RNG(seed))

    def test_a_wrong_gradient_shows_in_its_row(self):
        f = quadratic([1.0, 2.0])
        off = _rebuilt(f, gradient=lambda x: f.gradient(x) + np.array([0.0, 1e-3]))
        assert finite_diff_check(off, 5, RNG(7)) == _finite_diff_per_point(off, 5, RNG(7)) > 1e-4
