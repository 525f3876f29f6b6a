"""The box domain, norms, randomness contract, and the gradient-oracle interface.

The conventions shared by every estimator and adversarial instance live here:

* an oracle replies at a point ``x`` of its target's domain, for a
  tolerance ``delta`` in ``(0, 1]``, with a gradient estimate ``g`` and an
  evaluation point ``y`` with ``||x - y|| <= delta`` under its vicinity norm
  (``vicinity_tolerance``; the solver checks it chunk by chunk);
* an oracle declares its bias/variance envelope ``c1(d) = C1 * d**p`` and
  ``c2(d) = C2 * d**-q``;
* a run's lanes draw from the generators of ``(master_seed, stream_id)``,
  numpy's SeedSequence seeding, hashed by the lane library where it loads
  (``generators``), and their noise from twins (``jumped``).

The types here are plain classes and ``NamedTuple``s, never changed after
they are built, so they are safe to share across workers.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np


class DomainError(ValueError):
    """An argument escaped the contract it was declared under."""


class Value:
    """A record that equals a record of its own class with equal attributes,
    and hashes and prints by them."""

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


class Norm(Value):
    """A norm on R^d, ``euclidean`` or ``max`` (the vicinity norm of sign
    directions)."""

    def __init__(self, kind: str = "euclidean"):
        if kind not in ("euclidean", "max"):
            raise DomainError(f"unknown norm kind {kind!r}")
        self.kind = kind

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if self.kind == "euclidean":
            return float(np.sqrt(np.sum(x * x)))
        return float(np.max(np.abs(x))) if x.size else 0.0

    def rows(self, x: np.ndarray) -> np.ndarray:
        """The norm of each row of x (..., d)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "euclidean":
            return np.sqrt(np.sum(x * x, axis=-1))
        return np.max(np.abs(x), axis=-1)


EUCLIDEAN = Norm("euclidean")
MAX_NORM = Norm("max")


# ---------------------------------------------------------------------------
# The domain
# ---------------------------------------------------------------------------


class Box:
    """Axis-aligned box ``[lower, upper]`` with nonempty interior: every
    target's domain, and so every run's feasible set, is one."""

    def __init__(self, lower: np.ndarray, upper: np.ndarray):
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        up = np.atleast_1d(np.asarray(upper, dtype=float))
        if lo.shape != up.shape or lo.ndim != 1:
            raise DomainError("box bounds must be 1-d arrays of equal length")
        if not np.all(lo < up):
            raise DomainError("box must have a nonempty interior (lower < upper)")
        self.lower, self.upper = lo, up
        # 1-d bounds as 0-d arrays: numpy clamps a stack of points (..., 1)
        # against those without its slower general broadcasting path
        self._clamp = (lo.reshape(()), up.reshape(())) if lo.size == 1 else (lo, up)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def project(self, x: np.ndarray) -> np.ndarray:
        """The Euclidean projection of a point (d,) or of each row of a stack
        (..., d): each coordinate clamped to its interval."""
        lo, up = self._clamp
        return np.minimum(np.maximum(np.asarray(x, dtype=float), lo), up)

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def dilate(self, margin: float) -> "Box":
        return Box(self.lower - margin, self.upper + margin)

    def sup_norm(self) -> float:
        """sup over the box of ||x||_2; attained at a vertex."""
        corner = np.maximum(np.abs(self.lower), np.abs(self.upper))
        return EUCLIDEAN.value(corner)


def interval(lower: float, upper: float) -> Box:
    """Convenience constructor for a 1-d box."""
    return Box(np.array([lower]), np.array([upper]))


# ---------------------------------------------------------------------------
# Replies, envelopes
# ---------------------------------------------------------------------------


def vicinity_tolerance(delta):
    """The largest ||x - y|| accepted for tolerance delta: delta up to
    roundoff.  delta may be an array."""
    return delta * (1.0 + 1e-12) + 1e-15


# rows per ``estimate`` call of ``sample_gradients``: the temporaries of all 10^5
# rows of a two-point probe (~10 MB) go back to the kernel and fault in again
REPLY_BLOCK = 8192


class Oracle:
    """``sample_gradients`` from an oracle's one ``estimate(x, delta,
    *draws)``, which returns the replies ``g``, their evaluation points ``y``
    and f there at the rows of x, and its ``_draws(delta, m, rng,
    antithetic)``: the draws of m replies at one point (leading axis m),
    made with numpy, and None or a function of a row slice that returns the
    draws of those replies' antithetic mirrors.  By default there are no
    draws.  The solver takes its draws from ``make_stepper`` and checks each
    chunk's evaluation points against ``vicinity_tolerance``."""

    def _draws(self, delta, m, rng, antithetic):
        return (), None

    def probe_point(self, x) -> np.ndarray:
        """x as the (1, d) point of a probe, which must lie in the target's domain."""
        x = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, -1)
        if not self.target.domain.contains(x):
            raise DomainError(f"probe point {x[0]} escapes the domain")
        return x

    def sample_gradients(self, x, delta: float, m: int, rng: np.random.Generator,
                         antithetic: bool = False) -> np.ndarray:
        """``m`` independent gradient estimates (m, d) at a point x of the
        target's domain, drawn in one pass (``_draws``) and evaluated
        ``REPLY_BLOCK`` rows at a time, the bits of one elementwise
        ``estimate`` call.  With ``antithetic=True`` each row of an
        estimator averages its estimates at +U and -U (same noise law), which
        keeps the mean and makes bias probes converge far faster; oracles
        without directions ignore it.  The reference the lane library's
        probes are held to (``_lanes_probe.probe_replies``)."""
        x = self.probe_point(x)
        draws, mirror = self._draws(delta, m, rng, antithetic)
        g = np.empty((m, x.shape[1]))
        for start in range(0, m, REPLY_BLOCK):
            rows = slice(start, start + REPLY_BLOCK)
            g[rows] = self.estimate(x, delta, *(a[rows] for a in draws))[0]
            if mirror is not None:
                g[rows] = 0.5 * (g[rows] + self.estimate(x, delta, *mirror(rows))[0])
        return g


class OracleEnvelope(Value):
    """The declared bias/variance contract ``(C1 * d**p, C2 * d**-q)`` of an
    ``oracle_type`` "type_I" or "type_II" oracle."""

    def __init__(self, c1: float, p: float, c2: float, q: float, oracle_type: str = "type_I"):
        if c1 < 0 or c2 < 0 or p < 0 or q < 0:
            raise DomainError("envelope coefficients and exponents must be nonnegative")
        if oracle_type not in ("type_I", "type_II"):
            raise DomainError(f"unknown oracle type {oracle_type!r}")
        self.c1, self.p, self.c2, self.q, self.oracle_type = c1, p, c2, q, oracle_type

    def c1_value(self, delta: float) -> float:
        return self.c1 * delta**self.p

    def c2_value(self, delta: float) -> float:
        return self.c2 * delta ** (-self.q)


# ---------------------------------------------------------------------------
# Randomness contract
# ---------------------------------------------------------------------------


class RngStream(NamedTuple):
    """Counter-style stream derivation: the generator is a pure function of
    ``(master_seed, stream_id)``, so parallel replications are reproducible
    independent of execution order.  ``generator()`` is numpy's
    ``default_rng(SeedSequence(master_seed, spawn_key=(stream_id,)))``: the
    reference ``generators`` is checked against, and its way where the lane
    library cannot seed."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(seq)


def generators(master_seed: int, stream_ids: Sequence[int]) -> list[np.random.Generator]:
    """``[RngStream(master_seed, i).generator() for i in stream_ids]``, state
    for state, each PCG64 seeded from (and its ``seed_seq`` holding) words the
    lane library hashes for all the ids in one call, or by SeedSequence."""
    from . import _lanes  # imports numpy.random, which importing zograd's modules leaves out

    words = _lanes.seed_words(master_seed, stream_ids)
    if words is None:
        return [RngStream(master_seed, i).generator() for i in stream_ids]
    return [np.random.Generator(np.random.PCG64(_lanes.Words(row))) for row in words]


def jumped(bit_generator, jumps: int = 1):
    """``bit_generator.jumped(jumps)``: a twin of the bit generator advanced
    ``jumps`` times by its jump size from its state now, a stream that does
    not overlap it.  A PCG64's twin is reached by numpy's documented
    ``advance``, without the seeding ``jumped`` does and then discards
    (``_lanes.twin``)."""
    from ._lanes import twin

    return twin(bit_generator, jumps)


# Solver steps draw their randomness in chunks of at most this many steps,
# so a run's memory does not grow with its horizon.  A chunk of a 64-lane
# run holds 512 x 64 draws of each kind; doubling it costs a pool worker of
# the lower-bound experiment about 0.5 MB more peak memory, halving it about
# 5% more time per step on 16 lanes.
STEPS_PER_CHUNK = 512


def chunk_sizes(n: int) -> list[int]:
    """Step counts of the consecutive chunks that cover n steps."""
    return [min(STEPS_PER_CHUNK, n - start) for start in range(0, n, STEPS_PER_CHUNK)]


def draw_chunks(
    rng: np.random.Generator,
    n: int,
    blocks: Sequence[Callable[[np.random.Generator, int], np.ndarray]],
) -> Iterator[tuple[np.ndarray, ...]]:
    """The randomness of n steps, one tuple of arrays per chunk.

    ``blocks`` are the draws of one kind, ``block(generator, m) -> array``
    with leading axis m.  Block 0 (an estimator's directions) reads rng
    itself.  Block i > 0 (its noise) reads a twin of rng jumped i times,
    a generator on numpy's ``rng.bit_generator.jumped(i)``, reached by its
    documented advance (``jumped``), taken here, from rng's state before
    any draw: numpy's way to a stream that does not overlap rng's.
    Concatenated over the chunks, block i returns bit for bit what
    ``block(generator, n)`` returns in one call, so chunking changes no
    value, and a step's draws do not depend on n.  rng is left past block
    0's draws only.
    """
    gens = [rng] + [np.random.Generator(jumped(rng.bit_generator, i)) for i in range(1, len(blocks))]
    return (tuple(block(g, m) for block, g in zip(blocks, gens)) for m in chunk_sizes(n))
