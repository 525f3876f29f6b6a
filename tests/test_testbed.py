import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zograd.core import Box, DomainError, RngStream, interval
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
    """f built again with ``changes`` to its arguments (its dim, x* and f*
    follow from its domain and argmin, and are no arguments)."""
    return ObjectiveFunction(**{**{k: v for k, v in vars(f).items() if k not in ("dim", "x_star", "f_star")},
                                **changes})


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

    def test_a_tiny_curvature_keeps_its_interior_vertex(self):
        # the vertex (0.2, 0.3) lies inside: no coordinate is clamped, and f* is f there
        f = quadratic([1.0, 1e-6], [-0.2, -3e-7])
        np.testing.assert_allclose(f.x_star, [0.2, 0.3], rtol=1e-12)
        assert f.f_star == pytest.approx(-0.02 - 4.5e-8, rel=1e-12)

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

    def test_sups_are_exact_on_a_2d_box(self):
        # f = |x|^2/2 + x_2 peaks at the corner (2, 2) of the dilated box, at
        # 6, and its minimum -1/2 sits at (0, -1); on [-1, 1]^2 each
        # coordinate of the gradient x + (0, 1) is largest at a corner: (1, 2)
        f = quadratic([1.0, 1.0], [0.0, 1.0])
        assert f.sup_abs() == 6.0
        assert f.span() == 6.5
        assert f.sup_gradient_dual() == math.sqrt(5.0)

    @pytest.mark.parametrize("d", [3, 4, 6, 8])
    def test_sups_are_taken_at_a_vertex_in_d_dimensions(self, d):
        # |x|^2/2 on [-2, 2]^d, the default box dilated, is 2d at every vertex and 0 at the origin
        f = quadratic([1.0] * d)
        assert f.sup_abs() == f.span() == 2.0 * d


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


class TestConstrainedMinimizer:
    """Where a family's unconstrained minimizer lies outside the domain, x*
    is the constrained one: it lies in the domain, and f* is the least value
    of f there."""

    @pytest.mark.parametrize("f, x_star", [
        (exp_one_d(interval(1.0, 2.0)), 1.0),  # the unconstrained minimum is 1, at 0
        (kinked_quadratic(0.5, 1.5, interval(0.5, 1.0)), 0.5),  # and 0 at 0
        (softabs(+1, 0.1, interval(-1.0, 0.5)), 0.5),  # and 2*eps^2*log(2) at 1
    ], ids=["exp", "kinked", "softabs"])
    def test_x_star_minimizes_f_over_the_domain(self, f, x_star):
        assert f.domain.contains(f.x_star, tol=0.0)
        np.testing.assert_array_equal(f.x_star, [x_star])
        grid = np.linspace(f.domain.lower[0], f.domain.upper[0], 100_001)
        assert f.f_star == pytest.approx(float(np.min(f.value(grid))), rel=4 * np.finfo(float).eps, abs=0)

    def test_separable_clips_each_coordinate(self):
        f = separable([exp_one_d(interval(1.0, 2.0)), softabs(-1, 0.1), kinked_quadratic(domain=interval(-2.0, -1.0))])
        np.testing.assert_array_equal(f.x_star, [1.0, -1.0, -1.0])
        assert f.f_star == pytest.approx(math.e - 1.0 + 2 * 0.01 * math.log(2.0) + 0.25, rel=1e-15)


def _one_d(draw, lower: float, upper: float) -> ObjectiveFunction:
    """A 1-d family with random parameters on [lower, upper]."""
    dom = interval(lower, upper)
    family = draw(st.sampled_from(["softabs", "sc_pair", "kinked", "exp", "quadratic"]))
    v, eps = draw(st.sampled_from([+1, -1])), draw(st.floats(0.01, 1.0))
    if family == "softabs":
        return softabs(v, eps, dom)
    if family == "sc_pair":  # its minimizer must lie in the domain
        return strongly_convex_pair(v, eps, interval(min(lower, v * eps), max(upper, v * eps + 0.1)))
    if family == "kinked":
        return kinked_quadratic(draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)), dom)
    if family == "exp":
        return exp_one_d(dom)
    return quadratic([draw(st.floats(0.0, 3.0))], [draw(st.floats(-3.0, 3.0))], dom, draw(st.floats(-3.0, 3.0)))


@st.composite
def _coordinatewise_convex(draw) -> ObjectiveFunction:
    """A 1-d family or a diagonal quadratic of d <= 4, with random parameters
    on a random box."""
    d = draw(st.integers(1, 4))
    lower = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
    upper = lower + np.array(draw(st.lists(st.floats(0.05, 4.0), min_size=d, max_size=d)))
    if d == 1 and draw(st.booleans()):
        return _one_d(draw, float(lower[0]), float(upper[0]))
    a = draw(st.lists(st.just(0.0) | st.floats(1e-6, 3.0), min_size=d, max_size=d))
    b = draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
    return quadratic(a, b, Box(lower, upper), draw(st.floats(-3.0, 3.0)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(f=_coordinatewise_convex(), seed=st.integers(0, 2**32 - 1))
def test_each_sup_bounds_f_at_random_points(f, seed):
    # sup|f| and span over the dilated box, sup ||grad f|| over the box
    rng = np.random.default_rng(seed)
    wide, box = f.domain.dilate(1.0), f.domain
    x = wide.lower + rng.random((256, f.dim)) * (wide.upper - wide.lower)
    values = f.value_rows(x)[:, 0]
    g = np.asarray(f.gradient(box.lower + rng.random((256, f.dim)) * (box.upper - box.lower)), dtype=float)
    sup_abs, span, sup_gradient = f.sup_abs(), f.span(), f.sup_gradient_dual()
    rounding = 1e-12 * (1.0 + sup_abs)
    assert np.max(np.abs(values)) <= sup_abs + rounding
    assert np.max(values) - np.min(values) <= span + rounding
    assert np.max(np.sqrt(np.sum(g * g, axis=-1))) <= sup_gradient * (1.0 + 1e-12)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(f=_coordinatewise_convex(), seed=st.integers(0, 2**32 - 1))
def test_x_star_is_least_at_random_points(f, seed):
    # every minimizer branch on a box: curved, linear and flat coordinates, and the 1-d families'
    rng = np.random.default_rng(seed)
    box = f.domain
    assert box.contains(f.x_star, tol=0.0)
    values = f.value_rows(box.lower + rng.random((256, f.dim)) * (box.upper - box.lower))[:, 0]
    assert f.f_star <= np.min(values) + 1e-12 * (1.0 + np.max(np.abs(values)))


class TestDimension:
    @pytest.mark.parametrize("build", [
        lambda dom: softabs(+1, 0.1, dom), lambda dom: strongly_convex_pair(-1, 0.2, dom),
        lambda dom: kinked_quadratic(domain=dom), lambda dom: exp_one_d(dom),
    ])
    def test_a_1d_family_takes_intervals_only(self, build):
        assert build(interval(-0.5, 0.5)).dim == 1
        with pytest.raises(DomainError, match="needs an interval, got a box of dimension 2$"):
            build(Box(-np.ones(2), np.ones(2)))


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
        x = f.domain.lower + rng.random(f.dim) * (f.domain.upper - f.domain.lower)
        g = f.gradient_at(x)
        fd = np.empty_like(g)
        for i in range(f.dim):
            e = np.zeros(f.dim)
            e[i] = step
            fd[i] = (value_at(f, x + e) - value_at(f, x - e)) / (2.0 * step)
        worst = max(worst, float(np.linalg.norm(fd - g)) / max(float(np.linalg.norm(g)), 1.0))
    return worst


# the seven testbeds of `zograd check`, then 2-d, separable, 3-d and off-center ones
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
    quadratic([1.0, 3.0, 0.5], [0.2, -0.4, 0.1], domain=Box(np.array([-1.5, -1.5, -1.5]), np.array([1.5, 0.5, 2.5]))),
    quadratic([2.0], [0.5], domain=interval(-0.3, 0.8)),
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
