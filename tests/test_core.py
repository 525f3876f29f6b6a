import logging
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import MT19937, PCG64, PCG64DXSM

from zograd import _streams
from zograd.core import (
    Ball,
    Box,
    DomainError,
    EUCLIDEAN,
    MAX_NORM,
    Norm,
    OracleEnvelope,
    OracleQuery,
    RngStream,
    checked_response,
    generators,
    interval,
    jumped,
)

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=6
)


class TestNorms:
    def test_euclidean_dual_is_euclidean(self):
        assert EUCLIDEAN.dual().value(np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_max_dual_is_one(self):
        assert MAX_NORM.dual().value(np.array([1.0, -2.0, 3.0])) == pytest.approx(6.0)

    def test_zero_vector(self):
        for norm in (EUCLIDEAN, MAX_NORM):
            assert norm.dual().value(np.zeros(3)) == 0.0

    @given(finite_vectors)
    def test_dual_of_dual_is_identity(self, xs):
        x = np.array(xs)
        for norm in (EUCLIDEAN, MAX_NORM, Norm("one")):
            assert norm.dual().dual().kind == norm.kind
            assert norm.dual().dual().value(x) == norm.value(x)

    @given(finite_vectors, finite_vectors)
    def test_holder_inequality(self, gs, xs):
        d = min(len(gs), len(xs))
        g, x = np.array(gs[:d]), np.array(xs[:d])
        for norm in (EUCLIDEAN, MAX_NORM):
            lhs = abs(float(np.dot(g, x)))
            assert lhs <= norm.dual().value(g) * norm.value(x) * (1 + 1e-9) + 1e-9

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            Norm("manhattan-ish")


class TestBodies:
    def test_box_clamp(self):
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(box.project(np.array([0.5, 2.0])), [0.5, 1.0])

    def test_ball_radial_scaling(self):
        ball = Ball(np.zeros(2), 1.0)
        np.testing.assert_allclose(ball.project(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_interior_point_fixed(self):
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(box.project(np.zeros(2)), [0.0, 0.0])

    def test_empty_interior_rejected(self):
        with pytest.raises(DomainError):
            Box(np.array([0.0]), np.array([0.0]))
        with pytest.raises(DomainError):
            Ball(np.zeros(2), 0.0)

    @given(
        st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=2),
        st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=2),
    )
    @settings(max_examples=250)
    def test_projection_nonexpansive(self, xs, ys):
        x, y = np.array(xs), np.array(ys)
        for body in (Box(np.array([-1.0, -0.5]), np.array([0.7, 1.0])), Ball(np.zeros(2), 1.3)):
            px, py = body.project(x), body.project(y)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
            np.testing.assert_allclose(body.project(px), px, atol=1e-12)

    def test_projection_nonexpansive_bulk(self):
        rng = RngStream(99, 0).generator()
        bodies = (Box(np.array([-1.0, -0.5]), np.array([0.7, 1.0])), Ball(np.ones(3), 0.8))
        for body in bodies:
            x = rng.normal(scale=4.0, size=(1000, body.dim))
            y = rng.normal(scale=4.0, size=(1000, body.dim))
            for xi, yi in zip(x, y):
                assert np.linalg.norm(body.project(xi) - body.project(yi)) <= np.linalg.norm(
                    xi - yi
                ) + 1e-12


class TestQueryResponse:
    def test_delta_out_of_range(self):
        for delta in (0.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                OracleQuery(np.array([0.0]), delta)

    def test_response_vicinity_enforced(self):
        q = OracleQuery(np.array([0.0]), 0.1)
        checked_response(np.array([1.0]), np.array([0.1]), q)
        with pytest.raises(DomainError):
            checked_response(np.array([1.0]), np.array([0.2]), q)

    def test_response_vicinity_max_norm(self):
        q = OracleQuery(np.array([0.0, 0.0]), 0.5)
        # l-inf ball allows corners that the Euclidean ball rejects
        y = np.array([0.5, 0.5])
        checked_response(np.zeros(2), y, q, MAX_NORM)
        with pytest.raises(DomainError):
            checked_response(np.zeros(2), y, q, EUCLIDEAN)


class TestEnvelope:
    def test_substitution(self):
        env = OracleEnvelope(c1=1.0, p=2.0, c2=1.0, q=2.0)
        assert (env.c1_value(0.1), env.c2_value(0.1)) == (pytest.approx(0.01), pytest.approx(100.0))

    def test_unbiased_constant_variance(self):
        env = OracleEnvelope(c1=0.0, p=1.0, c2=1.0, q=0.0)
        assert (env.c1_value(0.5), env.c2_value(0.5)) == (0.0, 1.0)

    def test_delta_one_boundary(self):
        env = OracleEnvelope(c1=2.0, p=1.0, c2=3.0, q=2.0)
        assert (env.c1_value(1.0), env.c2_value(1.0)) == (2.0, 3.0)

    @given(st.floats(min_value=1e-3, max_value=1.0), st.floats(min_value=1e-3, max_value=1.0))
    def test_monotone(self, d1, d2):
        env = OracleEnvelope(c1=1.3, p=1.7, c2=0.8, q=2.2)
        lo, hi = min(d1, d2), max(d1, d2)
        assert env.c1_value(lo) <= env.c1_value(hi) + 1e-15
        assert env.c2_value(lo) >= env.c2_value(hi) - 1e-15


class TestRngStream:
    def test_equal_streams_equal_draws(self):
        a = RngStream(1234, 7).generator().standard_normal(100)
        b = RngStream(1234, 7).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(1234, 7).generator().standard_normal(100)
        b = RngStream(1234, 8).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_interval_helper(self):
        box = interval(-1.0, 1.0)
        assert box.dim == 1
        assert box.center[0] == 0.0


def _states(gens) -> list:
    return [g.bit_generator.state for g in gens]


# stream ids of one key word, and of two or three (2**32 and above)
stream_ids = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96))


class TestGenerators:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**160)), ids=st.lists(stream_ids, max_size=10))
    @example(seed=0, ids=[])
    @example(seed=2**128 - 1, ids=[0, 2**32 - 1, 2**32, 5])  # a master seed of 4 words, key widths mixed
    @example(seed=2**128, ids=[2**64, 1, 2**32 + 1])  # 5 words: one mixed in after the pool
    @example(seed=20260810, ids=[(tag << 20) | rep for tag in (0, 1, 2, 40) for rep in (0, 15)])
    def test_each_generator_is_its_streams(self, seed, ids):
        assert _states(generators(seed, ids)) == _states(RngStream(seed, i).generator() for i in ids)

    def test_a_generator_draws_and_pickles_as_its_streams(self):
        ours, = generators(77, [3])
        twin = pickle.loads(pickle.dumps(ours))
        want = RngStream(77, 3).generator().standard_normal(64)
        np.testing.assert_array_equal(ours.standard_normal(64), want)
        np.testing.assert_array_equal(twin.standard_normal(64), want)

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
    def test_a_seed_numpy_refuses_is_refused(self, seed, error):
        with pytest.raises(error):
            RngStream(seed, 0).generator()
        with pytest.raises(error):
            generators(seed, [0])
        with pytest.raises(ValueError):
            generators(1, [0, -1])


class TestJumped:
    @pytest.mark.parametrize("jumps", [1, 2, 3])
    @pytest.mark.parametrize("draws", [0, 1, 7])  # an odd count keeps half of a 64-bit draw back
    def test_a_twin_is_numpys_jumped(self, jumps, draws):
        bg = RngStream(11, 3).generator().bit_generator
        np.random.Generator(bg).integers(1 << 32, size=draws, dtype=np.uint32)
        before = bg.state
        twin = jumped(bg, jumps)
        assert type(twin) is PCG64 and twin.state == bg.jumped(jumps).state
        assert bg.state == before

    @pytest.mark.parametrize("cls", [MT19937, PCG64DXSM])
    def test_other_bit_generators_take_their_own_jumped(self, cls):
        bg = cls(5)
        twin = jumped(bg, 2)
        assert type(twin) is cls
        np.testing.assert_array_equal(twin.random_raw(8), bg.jumped(2).random_raw(8))

    def test_a_subclass_of_pcg64_takes_its_own_jumped(self):
        class Counted(PCG64):
            calls = []

            def jumped(self, jumps=1):
                self.calls.append(jumps)
                return super().jumped(jumps)

        assert jumped(Counted(5), 3).state["state"] == PCG64(5).jumped(3).state["state"]
        assert Counted.calls == [3]


class TestPremise:
    SEED, IDS = 20260810, [0, 1, 2**32 + 7]

    @pytest.mark.parametrize("broken", ["off", "raises"])
    def test_a_failed_premise_falls_back_to_numpy(self, broken, monkeypatch, caplog):
        real_generators, real_jumped = _streams._fast_generators, _streams._fast_jumped
        if broken == "off":  # another seed's generators, one jump too many
            fast = (lambda seed, ids: real_generators(seed + 1, ids), lambda bg, jumps=1: real_jumped(bg, jumps + 1))
        else:
            fast = (lambda seed, ids: 1 / 0, lambda bg, jumps=1: 1 / 0)
        monkeypatch.setattr(_streams, "_fast_generators", fast[0])
        monkeypatch.setattr(_streams, "_fast_jumped", fast[1])
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            chosen = _streams._choose()
        assert chosen == (_streams._numpy_generators, _streams._numpy_jumped)
        assert caplog.text.count("stream generators from numpy's way") == 1
        assert caplog.text.count("jumped twins from numpy's way") == 1
        assert ("ZeroDivisionError" in caplog.text) == (broken == "raises")
        monkeypatch.setattr(_streams, "generators", chosen[0])
        monkeypatch.setattr(_streams, "jumped", chosen[1])
        gens = generators(self.SEED, self.IDS)
        assert _states(gens) == _states(RngStream(self.SEED, i).generator() for i in self.IDS)
        assert jumped(gens[0].bit_generator, 2).state == gens[0].bit_generator.jumped(2).state

    def test_the_premise_holds_silently_on_this_numpy(self, caplog):
        # else every run takes numpy's way, and the tests above compare it with itself
        fast = (_streams._fast_generators, _streams._fast_jumped)
        assert (_streams.generators, _streams.jumped) == fast
        with caplog.at_level(logging.DEBUG, logger="zograd"):
            assert _streams._choose() == fast
        assert caplog.text == ""
