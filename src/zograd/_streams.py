"""A run's generators and their jumped twins, without the seeding numpy
does for each object and then discards.

Importing zograd imports neither this module nor ``numpy.random``, which it
imports: ``core.generators`` and ``core.jumped`` import it on first use.

``generators(master_seed, ids)`` equals, state for state,
``[RngStream(master_seed, i).generator() for i in ids]``, that is
``default_rng(SeedSequence(master_seed, spawn_key=(i,)))``.  SeedSequence
hashes the master seed's 32-bit words, padded with zeros to its pool of 4,
into that pool, mixes the pool, then mixes in each further word (the master
seed's fifth and later, then the key's), and hashes the pool into the 8
words PCG64 seeds from.  Its hash constants do not depend on the data, so
the pool after the master seed depends on the master seed alone: it is
computed once per call, and each id costs its key words and the 8 output
words, hashed as uint64 array operations over all the ids of the call.
That pass has a fixed cost of some tens of microseconds, so it pays for a
run's lanes, not for one generator.  The words reach PCG64 through
``ISeedSequence``, numpy's interface for custom seed sequences, and PCG64
seeds from them as it does from SeedSequence's.  The algorithm and its
constants are numpy's (``numpy/random/bit_generator.pyx``); NEP 19 keeps
SeedSequence's output stable across numpy versions.

``jumped(bg, jumps)`` equals ``bg.jumped(jumps)``, which seeds a new PCG64
from the operating system's entropy and then overwrites its state.  Here a
PCG64 seeded from fixed words takes ``bg.state`` and advances by ``jumps``
times PCG64's jump size, as ``PCG64.jumped`` documents it.  A bit generator
that is not exactly a PCG64 goes to its own ``jumped``.

When this module is imported, both are checked against numpy's way on one
case (``PREMISE``).  Where one of them differs, the reason is logged once at
DEBUG and numpy's way is used for it.
"""

from __future__ import annotations

import logging
import operator
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

_log = logging.getLogger(__name__)

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
POOL = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715
MASK = 0xFFFFFFFF
# PCG64.jumped advances by this many steps per jump
JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835
# (master seed, stream id) of the check: a master seed of 5 words, so that
# one is mixed in after the pool, and a key of 2
PREMISE = ((1 << 130) | 20260810, (7 << 32) | 5)


class Words(ISeedSequence):
    """The 4 64-bit words a PCG64 seeds from, a contiguous uint64 array,
    handed over as they are."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, np.dtype(dtype)) != (4, np.dtype(np.uint64)):
            raise ValueError("holds the 4 uint64 words of one PCG64 seeding")
        return self.words


_FIXED = Words(np.zeros(4, np.uint64))


def _hash_pairs(h: int, mult: int) -> Iterator[tuple[int, int]]:
    """The (xor, multiplier) pairs of successive hashes from hash constant
    h: SeedSequence hashes v as ``v ^= h; h *= mult; v *= h; v ^= v >> 16``,
    mod 2**32."""
    while True:
        nxt = h * mult & MASK
        yield h, nxt
        h = nxt


# SeedSequence's hashmix and mix, on Python integers or on uint64 arrays,
# whose products of 32-bit words do not overflow and whose differences wrap
# mod 2**64, which leaves the low 32 bits right
def _hash(value, xor, mult):
    v = (value ^ xor) * mult & MASK
    return v ^ v >> 16


def _mix(x, y):
    r = (MIX_L * x - MIX_R * y) & MASK
    return r ^ r >> 16


def _pairs(pairs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The xors and the multipliers of ``pairs``, as uint64 arrays."""
    return tuple(np.array(column, np.uint64) for column in zip(*pairs))


# the hashes of the 8 output words, each of pool word j % 4
_OUT = _pairs(list(islice(_hash_pairs(INIT_B, MULT_B), 8)))
_OUT_SOURCE = np.arange(8) % POOL


def _words(n: int) -> list[int]:
    """The 32-bit words of a nonnegative integer, least significant first; [0] for 0."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & MASK]
    while n > MASK:
        n >>= 32
        words.append(n & MASK)
    return words


def _seeded_pool(master_seed: int) -> tuple[list[int], Iterator[tuple[int, int]]]:
    """SeedSequence's pool after the master seed's words, and its hashes
    from the first key word on."""
    entropy = _words(master_seed)
    entropy += [0] * (POOL - len(entropy))
    hashes = _hash_pairs(INIT_A, MULT_A)
    pool = [_hash(word, *next(hashes)) for word in entropy[:POOL]]
    for src in range(POOL):
        for dst in range(POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(hashes)))
    for word in entropy[POOL:]:
        for dst in range(POOL):
            pool[dst] = _mix(pool[dst], _hash(word, *next(hashes)))
    return pool, hashes


def _fast_generators(master_seed: int, stream_ids: Sequence[int]) -> list[Generator]:
    """Every id's key words hashed into the master seed's pool, and the pool
    hashed into its 8 output words, as array operations over the ids: one
    pass per key word, over the ids that have that word."""
    start, hashes = _seeded_pool(master_seed)
    keys = [_words(i) for i in stream_ids]
    width = max(map(len, keys), default=0)
    words = np.array([key + [0] * (width - len(key)) for key in keys], np.uint64).reshape(len(keys), width, 1)
    lengths = np.array([len(key) for key in keys]).reshape(-1, 1)
    pool = np.tile(np.array(start, np.uint64), (len(keys), 1))
    for k in range(width):
        mixed = _mix(pool, _hash(words[:, k], *_pairs(list(islice(hashes, POOL)))))
        pool = np.where(lengths > k, mixed, pool)
    out = _hash(pool[:, _OUT_SOURCE], *_OUT)
    # PCG64 reads the words from the array's data: each row must be contiguous
    state = np.ascontiguousarray(out[:, 0::2] | out[:, 1::2] << 32)
    return [Generator(PCG64(Words(row))) for row in state]


def _numpy_generators(master_seed: int, stream_ids: Sequence[int]) -> list[Generator]:
    return [np.random.default_rng(SeedSequence(master_seed, spawn_key=(i,))) for i in stream_ids]


def _fast_jumped(bit_generator, jumps: int = 1):
    if type(bit_generator) is not PCG64:
        return bit_generator.jumped(jumps)
    twin = PCG64(_FIXED)
    twin.state = bit_generator.state
    return twin.advance(jumps * JUMP)


def _numpy_jumped(bit_generator, jumps: int = 1):
    return bit_generator.jumped(jumps)


def _holds(what: str, check: Callable[[], bool]) -> bool:
    """Whether ``check()`` is true; where it is not, or raises, logs that
    numpy's way makes ``what``."""
    try:
        if check():
            return True
        reason = "they differ from numpy's on the premise"
    except Exception as exc:  # any fault of the fast way leaves numpy's in force
        reason = f"{type(exc).__name__}: {exc}"
    _log.debug("%s from numpy's way: %s", what, reason)
    return False


def _same_generator() -> bool:
    seed, stream = PREMISE
    (ours,), (numpys,) = _fast_generators(seed, [stream]), _numpy_generators(seed, [stream])
    return ours.bit_generator.state == numpys.bit_generator.state


def _same_twin() -> bool:
    """Jumped 3 times, from a state with a 32-bit half of a draw kept back."""
    bg = PCG64(PREMISE[0])
    Generator(bg).integers(1 << 32, dtype=np.uint32)
    return _fast_jumped(bg, 3).state == bg.jumped(3).state


def _choose() -> tuple[Callable, Callable]:
    """``generators`` and ``jumped``: the fast ways where they hold on ``PREMISE``."""
    return (_fast_generators if _holds("stream generators", _same_generator) else _numpy_generators,
            _fast_jumped if _holds("jumped twins", _same_twin) else _numpy_jumped)


generators, jumped = _choose()
