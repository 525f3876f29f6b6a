"""Build, cache and load the compiled lane kernel (``_lanes.c``).

No zograd module imports this one when it is imported: ``core`` imports
it the first time a run's generators are seeded, and the oracles and the
solver the first time a run asks for the kernel.  Where Python keeps no
bytecode cache, every line a process imports is compiled as it starts, so
the code that only some processes run is elsewhere, imported only then: a
build, the check of a library's premises and a bind of numpy's loops in
``_lanes_build``, and a probe's moments in ``_lanes_probe``.

``kernel()`` compiles the C source with the system C compiler the first
time it is asked for (never at import), against numpy's sampler library
(``numpy/random/lib/libnpyrandom.a``) and bit generator header
(``numpy/random/bitgen.h``), caches the library under ``__pycache__``
beside this file, named by a hash of its inputs (removing those of other
inputs, and every stored verdict), and loads it with ctypes, once per
process, under a lock.  If any of that fails (no compiler, sampler library
or header, a read-only directory, a library that does not load), it logs
the reason once at DEBUG and returns None, and numpy computes everything.
A ctypes call releases the interpreter lock, and the library never takes
it back, so runs on several threads run in parallel.  Its entry points
take arrays as addresses (``ctypes.c_void_p``), so the arrays handed in
from outside, a run's (``LaneRun.run``), are checked for the dtype, layout
and size the C code reads.

A library's premises, that its inline normals, its seeding and its
probe moments each give numpy's bits, are checked once per library, not
once per process: the first load of a library without a stored verdict
(one just built, or whose verdict is missing or unreadable) checks them
(``_lanes_build.check_premises``) and writes their verdict beside it,
``_lanes-<hash>.verdict``, with the same hash: one line, ``used``, or
``refused: `` and the reason of the first premise that failed.  A
refused library is not loaded, and numpy computes everything, as without
a compiler.  Every later load reads the verdict and logs the same DEBUG
line as the check.

Where Python's header (``Python.h``) and numpy's ufunc header
(``numpy/ufuncobject.h``) exist, the library is built against them and, on
the first reply that needs one, binds the ``d->d`` inner loop of
``np.tanh`` (softabs runs and probes) or of ``np.exp`` (probes of
``exp_one_d``) and checks it against that ufunc bit for bit
(``loop_bound()``), once per process and never when the library loads.
Where a header is missing, the loop cannot be bound or the check fails,
the reason is logged once at DEBUG and those replies are numpy's.

A kernel run is a ``LaneRun``, which ``lane_run()`` builds where the
kernel covers the run, from the oracle's ``lane_spec()`` (``LaneSpec``).
The whole run, recorded or not, is one library call, which advances every
lane to its horizon chunk by chunk, fills each chunk's draws in C with
numpy's samplers, and checks each chunk as the numpy loop does.  Its
normals take numpy's ziggurat fast path inline, with the tables read out
of numpy's own sampler each time the library loads and every other draw
handed back to that sampler (``_lanes_build.NORMAL_PREMISE``); where a
later load cannot read the tables, the premises are checked again.

The moments of a probe's m replies at one point at d = 1 are one library
call too (``_lanes_probe``).

The library also seeds a run's lanes (``seed_words``): one call hashes
every stream's words as numpy's SeedSequence does (NEP 19 keeps its
output stable; ``_lanes_build.SEED_PREMISE``).
"""

from __future__ import annotations

import ctypes
import functools
import logging
import operator
import sys
import threading
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .core import STEPS_PER_CHUNK, Box, vicinity_tolerance

_log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_lanes.c")
CACHE = SOURCE.parent / "__pycache__"
CC = "cc"
# no -ffast-math and no -march: results must equal the numpy loop's bit for bit
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# numpy's samplers, the C functions its Generator calls, and their header
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
BITGEN_H = Path(np.get_include()) / "numpy" / "random" / "bitgen.h"
# the headers that give the layout of a ufunc's loop table.  Python.h is where sysconfig's
# posix_prefix scheme puts it, found without sysconfig, whose paths take ~2 ms to build.
PYTHON_H = (Path(sys.base_prefix) / "include" / f"python{sys.version_info[0]}.{sys.version_info[1]}{sys.abiflags}"
            / "Python.h")
UFUNCOBJECT_H = Path(np.get_include()) / "numpy" / "ufuncobject.h"
# the numpy loops the library can bind, in its order, and the replies that need each
LOOPS = {"tanh": "softabs runs and probes", "exp": "exp probes"}

# flag bits of zg_lane_run and zg_probe, as in _lanes.c: the oracle's formula and draws, and the run's mode
TWO_POINT, EVAL_POINT, CONTROLLED, MIRROR, REGRET = 1, 2, 4, 8, 16
AT_X, SOFTABS, SHIFTED, NOISE, SIGNS, UNIT, PLAIN, KINKED, EXP = 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192
DIRECTIONS = SIGNS | UNIT | PLAIN
LONG = np.dtype(ctypes.c_long)  # the kernel's integers
# a lane of a kernel run, as struct lane in _lanes.c
LANE = np.dtype([("delta", float), ("weight", float), ("scale", float), ("shift", float), ("tol", float),
                 ("eta", np.uintp), ("left", LONG), ("index", LONG), ("dir", np.uintp), ("noise", np.uintp)],
                align=True)
# the first fault of a kernel run, as struct fault in _lanes.c, and its kinds
FAULT = np.dtype([("lane", LONG), ("first", LONG), ("last", LONG), ("dist", float)], align=True)
NONFINITE, ESCAPED = 1, 2
# a stored verdict (_lanes_build.check_premises): the one line of a library
# that is used, or the start of the line of one that is refused, then the reason
USED, REFUSED = "used", "refused: "


class LaneSpec(NamedTuple):
    """An oracle's ``estimate`` and ``make_stepper`` as the compiled lane
    kernel computes and draws them for one lane-step of a 1-d run
    (``lane_spec()``), and so its m replies at one point (``probe_replies``).

    ``flags`` are the formula's bits (``TWO_POINT``, ``EVAL_POINT``,
    ``CONTROLLED``, ``KINKED`` or ``EXP``, or ``AT_X`` and ``SOFTABS``) and
    the direction's: SIGNS for U = 2b - 1 of bits from ``integers(0, 2)``
    and V = 1/U, UNIT for U = z/|z| and PLAIN for U = z of a
    ``standard_normal`` z, with V = U.  ``data`` is the formula data: (c0,
    c1, c2, sigma, slope) of an estimator, with (ca, cb, cc) of a quadratic,
    (a_neg, a_pos, 0) of the kinked one, zeros for exp; (v, eps) of an arm
    of a hard pair; None where the kernel draws for the oracle but computes
    no reply (another 1-d target).  The offsets are du = delta*U, and -du
    for a second arm, and the weight is w = V*(weight/delta).
    ``noise(delta)`` scales the standard normals of xi (None: xi is zeros),
    and ``shift(delta)`` is the adversarial reply's shift (None: none)."""

    flags: int
    data: Optional[tuple[float, ...]]
    weight: float = 1.0
    noise: Optional[Callable[[float], float]] = None
    shift: Optional[Callable[[float], float]] = None


class _Library:
    """The loaded library: its entry points, declared for ctypes, each array
    an address, whether it was built against the headers of numpy's loops,
    and which of those loops are bound and checked (``loops``: name ->
    bool, once asked)."""

    def __init__(self, lib, ufunc: bool):
        address, longs = ctypes.c_void_p, [ctypes.c_long] * 3
        self.lib, self.ufunc, self.loops = lib, ufunc, {}
        self.run = _declare(lib.zg_lane_run, longs + [address] * 8, ctypes.c_long)
        self.probe = _declare(lib.zg_probe, longs[:2] + [address] * 2 + [ctypes.c_double] + [address] * 2,
                              ctypes.c_long)
        self.moments = _declare(lib.zg_moments, [ctypes.c_long, address, address])
        self.scratch = _declare(lib.zg_scratch, longs, ctypes.c_long)
        self.normal = _declare(lib.zg_normal_fill, [address, ctypes.c_long, address])
        self.seed = _declare(lib.zg_seed, [address, ctypes.c_long, address, address, ctypes.c_long, address])


def _declare(fn, argtypes: list, restype=None):
    fn.argtypes, fn.restype = argtypes, restype
    return fn


# [the _Library, or None once loading failed]
_loaded: list = []
_loading = threading.Lock()


def kernel() -> Optional[Callable]:
    """``zg_lane_run`` of the compiled library, or None where it cannot be
    built or loaded.  Built and loaded on the first call only."""
    loaded = _library()
    return None if loaded is None else loaded.run


def loop_bound(name: str) -> bool:
    """Whether the kernel holds numpy's own loop of ``np.tanh`` or
    ``np.exp`` (``name``), checked against that ufunc: only then does it
    compute the replies that need it (``LOOPS``).  The first call for a name
    binds and checks its loop, once per process."""
    loaded = _library()
    if loaded is None:
        return False
    with _loading:
        if name not in loaded.loops:
            from ._lanes_build import bind_loop  # only a bind needs it

            unbound = bind_loop(loaded, name)
            if unbound is None:
                _log.debug("numpy's %s loop bound in the lane kernel", name)
            else:
                _log.debug("lane kernel without numpy's %s loop (%s take numpy): %s", name, LOOPS[name], unbound)
            loaded.loops[name] = unbound is None
        return loaded.loops[name]


class Words(ISeedSequence):
    """The 4 64-bit words a PCG64 seeds from, a contiguous uint64 array,
    handed over as they are: numpy's interface for custom seed sequences."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, np.dtype(dtype)) != (4, np.dtype(np.uint64)):
            raise ValueError("holds the 4 uint64 words of one PCG64 seeding")
        return self.words


# the words a twin is seeded from before it takes a state
_FIXED = Words(np.zeros(4, np.uint64))
# PCG64.jumped advances by this many steps per jump
JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


def twin(bit_generator, jumps: int = 1):
    """``bit_generator.jumped(jumps)`` (``core.jumped``), which seeds a new
    bit generator from the system's entropy and then overwrites its state.
    A PCG64's twin is a PCG64 seeded from fixed words that takes its state
    and advances ``jumps * JUMP`` steps, as ``PCG64.jumped`` documents it,
    where that gives ``jumped``'s state on one case (``_twin_holds``)."""
    if type(bit_generator) is not PCG64 or not _twin_holds():
        return bit_generator.jumped(jumps)
    return _advanced(bit_generator, jumps)


def _advanced(bit_generator, jumps: int):
    advanced = PCG64(_FIXED)
    advanced.state = bit_generator.state
    return advanced.advance(jumps * JUMP)


@functools.cache
def _twin_holds() -> bool:
    """Whether ``_advanced`` gives ``jumped``'s state jumped 3 times, from a
    state with a 32-bit half of a draw kept back; where it does not, or
    raises, logs once that numpy's ``jumped`` makes the twins."""
    bg = PCG64(20260810)
    Generator(bg).integers(1 << 32, dtype=np.uint32)
    try:
        if _advanced(bg, 3).state == bg.jumped(3).state:
            return True
        reason = "they differ from numpy's on the premise"
    except Exception as exc:  # any fault of the twin leaves numpy's jumped in force
        reason = f"{type(exc).__name__}: {exc}"
    _log.debug("jumped twins from numpy's jumped: %s", reason)
    return False


def seed_words(master_seed: int, stream_ids: Sequence[int]) -> Optional[np.ndarray]:
    """The 4 words a PCG64 seeds from for each id of ``stream_ids``, a row
    each, as ``SeedSequence(master_seed, spawn_key=(id,)).generate_state(4,
    np.uint64)`` gives them, from one library call (``zg_seed``); or None
    where there is no library.  A seed or id that is negative raises
    ValueError, and one that is no integer TypeError, as SeedSequence does."""
    loaded = _library()
    return None if loaded is None else _seed(loaded.seed, master_seed, stream_ids)


def _seed(seed: Callable, master_seed: int, stream_ids: Sequence[int]) -> np.ndarray:
    """``zg_seed`` (``seed``) of each id's key words, appended, under the master seed's words."""
    master, keys, lengths = _words(master_seed), [], []
    for i in stream_ids:
        key = _words(i)
        keys += key
        lengths.append(len(key))
    words, keys, lengths = np.array(master, np.uint32), np.array(keys, np.uint32), np.array(lengths, LONG)
    out = np.empty((lengths.size, 4), np.uint64)
    seed(words.ctypes.data, words.size, keys.ctypes.data, lengths.ctypes.data, lengths.size, out.ctypes.data)
    return out


def _words(n: int) -> list[int]:
    """The 32-bit words of a nonnegative integer, least significant first;
    [0] for 0: SeedSequence's words of an entropy or a key."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _spec(oracle, redefined: Sequence[str]) -> Optional[LaneSpec]:
    """``oracle.lane_spec()``, or None where its class has no ``lane_spec``
    or redefines one of the methods ``redefined`` below the class that
    defines it.  Looked up at call time, so that a wrapper set on that class
    itself, such as a tracer's, leaves the spec in force."""
    mro = type(oracle).__mro__
    depth = lambda name: next((i for i, cls in enumerate(mro) if name in vars(cls)), len(mro))
    own = depth("lane_spec")
    if own == len(mro) or min(map(depth, redefined)) < own:
        return None
    return oracle.lane_spec()


def lane_run(oracle, regret: bool, rngs: Sequence[np.random.Generator], horizons: Sequence[int],
             schedules) -> Optional["LaneRun"]:
    """The run of ``oracle`` on the compiled lane kernel, for lanes of
    generators ``rngs``, ``horizons`` and ``schedules``; or None where the
    numpy loop runs it: a domain of more than one dimension, one generator
    driving two lanes, no spec (``_spec``: no ``lane_spec``, a class that
    redefines ``estimate``, ``make_stepper``, ``_scaled`` or ``_noise``, or
    a spec of None), a spec without formula data or of the kinked or exp
    target, an estimator without a vicinity norm, a regret run of an oracle
    that answers at x, a softabs oracle without a checked tanh loop, or no
    kernel.  Builds the kernel on the first run it covers."""
    box = oracle.target.domain
    if box.dim != 1 or len({id(g) for g in rngs}) < len(rngs):
        return None
    spec = _spec(oracle, ("estimate", "make_stepper", "_scaled", "_noise"))
    if spec is None or spec.data is None or spec.flags & (KINKED | EXP) or (spec.flags & AT_X and regret):
        return None
    if not (spec.flags & AT_X or getattr(oracle, "vicinity_norm", None)):  # the kernel writes y - x
        return None
    if kernel() is None or (spec.flags & SOFTABS and not loop_bound("tanh")):
        return None
    return LaneRun(spec, regret, box, oracle.target.f_star, rngs, horizons, schedules)


def _flags(spec: LaneSpec) -> int:
    return spec.flags | (NOISE if spec.noise else 0) | (SHIFTED if spec.shift else 0)  # the kernel's flags of spec


def _table(spec: LaneSpec, deltas: Sequence[float]) -> np.ndarray:
    """A ``LANE`` row per delta: the delta, the weight over it, and the noise scale and shift of ``spec`` there."""
    table = np.zeros(len(deltas), LANE)
    table["delta"], table["weight"] = deltas, [spec.weight / d for d in deltas]
    for name, of in (("scale", spec.noise), ("shift", spec.shift)):
        if of:
            table[name] = [of(d) for d in deltas]
    return table


class LaneRun:
    """A run on the compiled lane kernel (see ``lane_run``): one call of
    the loaded library's ``zg_lane_run``, which runs every lane to its
    horizon in chunks of ``STEPS_PER_CHUNK`` steps, filling each chunk's
    draws in C, and writes a recorded run's steps into its record buffer.  Every value,
    every record, every fault it reports, and every generator's final state
    are those of the numpy loop fed by the steppers
    ``make_stepper(h - 1, schedule.delta, rng)`` of an oracle whose
    ``lane_spec()`` is ``spec``.

    Its state is one ``LANE`` row per lane (``_table``), then the vicinity
    tolerance of its delta, its schedule's step sizes (``eta_array`` of
    each distinct schedule, once, to the longest horizon of its lanes), its
    steps left, its row of the run's arrays, and its generators.
    Directions read each lane's own generator.  Noise reads it too where
    there are no directions; otherwise the twin of that generator jumped
    once (``twin``), taken from its state at the start of the run,
    as ``core.draw_chunks`` takes it."""

    def __init__(self, spec: LaneSpec, regret: bool, box: Box, f_star: float,
                 rngs: Sequence[np.random.Generator], horizons: Sequence[int], schedules):
        lib = _library()
        self._advance = lib.run
        self._flags = _flags(spec) | (REGRET if regret else 0)
        self._data = np.array([box.lower[0], box.upper[0], f_star, *spec.data])
        self._scratch = np.empty(lib.scratch(STEPS_PER_CHUNK, len(rngs), self._flags))
        # each distinct schedule's step sizes, once, to the longest horizon of its lanes
        distinct = {id(s): s for s in schedules}
        longest = dict.fromkeys(distinct, 1)
        for s, h in zip(schedules, horizons):
            longest[id(s)] = max(longest[id(s)], h)
        etas = [distinct[key].eta_array(h) for key, h in longest.items()]
        self._eta = np.concatenate(etas)  # kept alive while C reads it
        starts = np.cumsum([0] + [e.size for e in etas[:-1]])
        address = dict(zip(longest, self._eta.ctypes.data + self._eta.itemsize * starts))
        table = self._table = _table(spec, [s.delta for s in schedules])
        table["left"], table["index"] = [h - 1 for h in horizons], range(len(rngs))
        table["tol"] = vicinity_tolerance(table["delta"])
        table["eta"] = [address[id(s)] for s in schedules]
        # the generators of the directions and of the noise, kept alive while C holds their pointers
        self._dir = [g.bit_generator for g in rngs]
        twins = self._flags & DIRECTIONS and spec.noise
        self._noise = [twin(bg) for bg in self._dir] if twins else self._dir
        table["dir"], table["noise"] = ([_address(bg) for bg in gens] for gens in (self._dir, self._noise))

    def run(self, x: np.ndarray, sum_x: np.ndarray, regret: np.ndarray,
            record: Sequence[np.ndarray] = ()) -> Optional[tuple]:
        """Run every lane to its horizon, updating its iterate, sum and
        regret, rows of the (lanes, 1) arrays x, sum_x and regret, in place,
        so that its sum and regret are then those at its last step; each
        lane-step's new iterate, y, G and, for an estimator, loss go to
        ``record``, where given: ``RunTrace``'s xs[1:], ys, gs and losses_y
        (steps, lanes, ...), left as they are past each horizon.  Returns
        None, or the first fault, as the numpy loop finds it after each
        chunk: (``NONFINITE``, lane, the chunk's first and last steps, 0.0)
        for a lane whose steps eta*G, sum or regret went non-finite, else
        (``ESCAPED``, lane, step, step, |y - x|) for an evaluation point
        beyond the lane's vicinity tolerance.  The run then stops.  Call it
        once."""
        lanes, steps = self._table.size, self._table["left"].max(initial=0)
        if not all(_fits(a, lanes) for a in (x, sum_x, regret)):  # C writes one row per lane
            raise ValueError(f"x, sum_x and regret must be contiguous float arrays of one row per lane, {lanes}")
        if record and (len(record) != 4 or not all(_fits(a, steps * lanes) for a in record)):
            raise ValueError(f"a record is four contiguous float arrays of {steps} steps of {lanes} lanes")
        fault, pointers = np.zeros(1, FAULT), np.array([a.ctypes.data for a in record], np.uintp)  # double *[4]
        arrays = (self._data, self._table, x, sum_x, regret, self._scratch)
        kind = self._advance(STEPS_PER_CHUNK, lanes, self._flags, *(a.ctypes.data for a in arrays),
                             pointers.ctypes.data if record else None, fault.ctypes.data)
        return None if kind == 0 else (kind, *fault[0].tolist())


def _fits(a: np.ndarray, size: int) -> bool:
    """Whether C may read and write ``a`` as ``size`` doubles in a row: a C-contiguous float64 array of that size."""
    return a.dtype == np.float64 and a.flags.c_contiguous and a.size == size


def _address(bit_generator) -> int:
    """The address of the ``bitgen_t`` of a numpy bit generator, read from
    its capsule: its ``ctypes`` interface would build and keep about 1 kB of
    ctypes objects per generator."""
    return _capsule_pointer()(bit_generator.capsule, b"BitGenerator")


@functools.cache
def _capsule_pointer():
    return ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))


def _ufunc_args() -> tuple[str, ...]:
    """Compile arguments that build numpy's loops in, against Python's
    header and numpy's ufunc header; empty where either file is missing."""
    if not (PYTHON_H.is_file() and UFUNCOBJECT_H.is_file()):
        return ()
    return "-DZG_UFUNC", f"-I{PYTHON_H.parent}", f"-I{UFUNCOBJECT_H.parents[1]}"


def _command(out: str) -> list[str]:
    """The compiler command that builds the library into ``out``."""
    return [CC, *FLAGS, f"-I{BITGEN_H.parents[2]}", *_ufunc_args(), "-o", out, str(SOURCE), str(NPYRANDOM), "-lm"]


def _library_path() -> Path:
    """Where the library of this source, this command, this machine, this
    numpy's sampler library and header and, when built in, Python's and
    numpy's ufunc headers under this Python, is cached.  Raises OSError
    where the sampler library or header is missing."""
    import hashlib
    import platform

    command = _command("")
    key, ufunc = hashlib.sha256(SOURCE.read_bytes()), "-DZG_UFUNC" in command
    key.update(" ".join((*command, platform.machine(), np.__version__, sys.version if ufunc else "")).encode())
    for part in (NPYRANDOM, BITGEN_H, *((PYTHON_H, UFUNCOBJECT_H) if ufunc else ())):
        key.update(part.read_bytes())
    return CACHE / f"_lanes-{key.hexdigest()[:16]}.so"


def _library():
    with _loading:
        if not _loaded:
            _loaded.append(_load())
        return _loaded[0]


def _load():
    try:
        path = _library_path()
        if not path.exists():
            from ._lanes_build import build  # only a build needs it

            build(path)
        verdict = _stored_verdict(path)
        loaded = None if verdict not in (None, USED) else _Library(ctypes.CDLL(str(path)), bool(_ufunc_args()))
    except (OSError, AttributeError) as exc:  # the numpy loop runs instead
        _log.debug("lane kernel unavailable, the numpy loop runs: %s: %s", type(exc).__name__, exc)
        return None
    if loaded is not None and (verdict is None or loaded.lib.zg_bind_normal() != 0):
        from ._lanes_build import check_premises  # only a library without a verdict, or that it no longer fits

        verdict = check_premises(loaded, path)
    if verdict != USED:  # a refused library is not loaded
        _log.debug("lane kernel unavailable, the numpy loop runs: %s %s", path, verdict)
        return None
    _log.debug("lane kernel loaded from %s", path)
    return loaded


def _stored_verdict(path: Path) -> Optional[str]:
    """The verdict stored beside the library at ``path``, its one line:
    ``USED``, or ``REFUSED`` and a reason; or None where there is none, or
    it cannot be read or does not parse."""
    try:
        text = path.with_suffix(".verdict").read_text(encoding="utf-8")
    except (OSError, ValueError):  # none, or not text
        return None
    lines = text.splitlines()
    line = lines[0] if len(lines) == 1 else ""
    return line if line == USED or line.startswith(REFUSED) and line != REFUSED else None
