"""Build, cache and load the compiled lane kernel (``_lanes.c``).

No zograd module imports this one when it is imported: the oracles and
the solver import it the first time a run, or a 1-d oracle's draws at one
point, ask for the kernel.  Where Python keeps no bytecode cache, every line a process
imports is compiled as it starts.

``kernel()`` compiles the C source with the system C compiler the first
time it is asked for (never at import), against numpy's sampler library
(``numpy/random/lib/libnpyrandom.a``) and the header of its bit generators
(``numpy/random/bitgen.h``), caches the shared library under
``__pycache__`` next to this file, named by a hash of its inputs, removes
the libraries of other inputs there once the build is in place, and loads
it with ctypes, once per process, under a lock, so that threads running
their first runs together share one load.  If any of that fails (no
compiler, no sampler library or header, a read-only package directory, a
library that does not load), it logs the reason once at DEBUG and returns
None, and the solver keeps its numpy loop.  A ctypes call releases the
interpreter lock, and nothing the library runs takes it back, so runs on
several threads run in parallel.

Where Python's header (``Python.h``) and numpy's ufunc header
(``numpy/ufuncobject.h``) exist, the library is built against them and, on
the first run of an oracle of the softabs pair, binds the ``d->d`` inner
loop of ``np.tanh`` and checks it against ``np.tanh`` bit for bit
(``tanh_bound()``), once per process; the kernel applies that loop to the
tanh arguments of those lower-bound oracles.  Where a header is missing,
the loop cannot be bound or the check fails, the reason is logged once at
DEBUG and those runs take the numpy loop.

A kernel run is a ``LaneRun``, which ``lane_run()`` builds where the
kernel covers the run, from the oracle's ``lane_spec()`` (``LaneSpec``).
The whole run is one library call, which advances every lane to its
horizon chunk by chunk, fills each chunk's draws in C with numpy's
samplers, and checks each chunk as the numpy loop does.  Its normals take
numpy's ziggurat fast path inline, with the tables read out of numpy's own
sampler when the library loads and every other draw handed back to that
sampler; the fill is checked against numpy's normals then
(``NORMAL_PREMISE``).  Where the tables cannot be read or the check fails,
every normal is handed to numpy's sampler and the fill is checked again;
the reason is logged once at DEBUG, and where the second check fails too
there is no kernel.

The same fill makes the draws of an oracle's replies at one point at d = 1
(``_draws``, under ``query``, ``sample_gradients`` and the probes):
``probe_draws`` fills them on one lane and returns them to the oracle's
numpy ``estimate``; where it returns None, numpy draws them.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
import sys
import threading
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import STEPS_PER_CHUNK, Box, jumped, vicinity_tolerance

_log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_lanes.c")
CACHE = SOURCE.parent / "__pycache__"
CC = "cc"
# no -ffast-math and no -march: results must equal the numpy loop's bit for bit
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# numpy's samplers, the C functions its Generator calls, and their header
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
BITGEN_H = Path(np.get_include()) / "numpy" / "random" / "bitgen.h"
# the headers that give the layout of np.tanh's loop table, and the loop the
# kernel calls.  Python.h is where sysconfig's posix_prefix scheme puts it,
# found without sysconfig, whose paths take ~2 ms to build in each process.
PYTHON_H = (Path(sys.base_prefix) / "include" / f"python{sys.version_info[0]}.{sys.version_info[1]}{sys.abiflags}"
            / "Python.h")
UFUNCOBJECT_H = Path(np.get_include()) / "numpy" / "ufuncobject.h"
TANH_SIGNATURE = "d->d"

# flag bits of zg_lane_run, as in _lanes.c: the oracle's formula and draws, and the run's mode
TWO_POINT, EVAL_POINT, CONTROLLED, REGRET = 1, 2, 4, 16
AT_X, SOFTABS, SHIFTED, NOISE, SIGNS, UNIT, PLAIN = 32, 64, 128, 256, 512, 1024, 2048
DIRECTIONS = SIGNS | UNIT | PLAIN
LONG = np.dtype(ctypes.c_long)  # the kernel's integers
# a lane of a kernel run, as struct lane in _lanes.c
LANE = np.dtype([("delta", float), ("weight", float), ("scale", float), ("shift", float), ("tol", float),
                 ("eta", np.uintp), ("left", LONG), ("index", LONG), ("dir", np.uintp), ("noise", np.uintp)],
                align=True)
# the first fault of a kernel run, as struct fault in _lanes.c, and its kinds
FAULT = np.dtype([("lane", LONG), ("first", LONG), ("last", LONG), ("dist", float)], align=True)
NONFINITE, ESCAPED = 1, 2
# (seed, count) of the normals the inline normal fill is checked on when the
# library loads: the first normal of default_rng(seed) is drawn in strip 1 of
# numpy's ziggurat, which numpy's tables send to the slow path every time,
# and the count takes the draws past tail values and wedge rejections
# (tests/test_solver.py pins both)
NORMAL_PREMISE = (15, 8192)


class LaneSpec(NamedTuple):
    """An oracle's ``estimate`` and ``make_stepper`` as the compiled lane
    kernel computes and draws them for one lane-step of a 1-d run
    (``lane_spec()``), and so the draws of its ``_draws``
    (``probe_draws``).

    ``flags`` are the formula's bits (``TWO_POINT``, ``EVAL_POINT``,
    ``CONTROLLED``, or ``AT_X`` and ``SOFTABS``) and the direction's: SIGNS
    for U = 2b - 1 of bits from ``integers(0, 2)`` and V = 1/U, UNIT for
    U = z/|z| and PLAIN for U = z of a ``standard_normal`` z, with V = U.
    ``data`` is the formula data: (ca, cb, cc, sigma, slope) of an
    estimator of a 1-d quadratic, (v, eps) of an arm of a hard pair; None
    where the kernel draws for the oracle but does not compute its formula
    (an estimator of another 1-d target), which ``lane_run`` refuses.  The
    offsets are du = delta*U, and -du for a second arm, and the weight is
    w = V*(weight/delta).  ``noise(delta)`` scales the standard normals of
    xi (None: xi is zeros), and ``shift(delta)`` is the adversarial reply's
    shift (None: the oracle is not shifted)."""

    flags: int
    data: Optional[tuple[float, ...]]
    weight: float = 1.0
    noise: Optional[Callable[[float], float]] = None
    shift: Optional[Callable[[float], float]] = None


class _Library:
    """The loaded library: its entry points, declared for ctypes, whether it
    was built against the headers of numpy's tanh loop, and whether that
    loop is bound and checked (None until a softabs run asks)."""

    def __init__(self, lib, ufunc: bool):
        doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
        table, longs = np.ctypeslib.ndpointer(LANE, flags="C_CONTIGUOUS"), [ctypes.c_long] * 3
        fault = np.ctypeslib.ndpointer(FAULT, flags="C_CONTIGUOUS")
        self.lib, self.ufunc, self.tanh = lib, ufunc, None
        self.run = _declare(lib.zg_lane_run, longs + [doubles, table] + [doubles] * 4 + [fault], ctypes.c_long)
        self.fill = _declare(lib.zg_lane_draws, longs + [table, doubles], ctypes.c_long)
        self.scratch = _declare(lib.zg_scratch, longs, ctypes.c_long)
        self.normal = _declare(lib.zg_normal_fill, [ctypes.c_void_p, ctypes.c_long, doubles])


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


def tanh_bound() -> bool:
    """Whether the kernel holds numpy's own tanh loop, checked against
    ``np.tanh``: only then does it run the oracles of the softabs pair.
    The first call binds and checks the loop, once per process."""
    loaded = _library()
    if loaded is None:
        return False
    with _loading:
        if loaded.tanh is None:
            unbound = _bind_tanh(loaded.lib) if loaded.ufunc else f"{PYTHON_H} or {UFUNCOBJECT_H} is missing"
            if unbound is None:
                _log.debug("numpy's tanh loop bound in the lane kernel")
            else:
                _log.debug("lane kernel without numpy's tanh loop (softabs runs take the numpy loop): %s", unbound)
            loaded.tanh = unbound is None
        return loaded.tanh


def tanh_premise() -> np.ndarray:
    """The values the bound tanh loop is checked on: tanh arguments of the
    adversarial reply at +1 and -1 over a spread of iterates and
    separations, standard normals, and signed zeros, a subnormal, values
    where tanh saturates and infinities."""
    rng = np.random.default_rng(20260810)
    x = rng.uniform(-1.0, 1.0, 3000)
    eps = rng.uniform(0.005, 0.35, 3000)
    return np.concatenate([(x - 1.0) * (0.5 / eps), (x - -1.0) * (0.5 / eps), rng.standard_normal(2000),
                           [0.0, -0.0, 1e-300, 19.0, 25.0, -40.0, np.inf, -np.inf]])


def _tanh_mismatch(apply: Callable) -> Optional[str]:
    """Why ``apply(n, pieces, count, x)``, the bound loop applied in place
    to x in consecutive pieces, the k-th of ``pieces[k % count]`` values,
    does not give ``np.tanh``'s bits on ``tanh_premise()``, or None where it
    gives them for each value alone, for all values in one buffer and
    interleaved with their reverse, and in pieces of 2 to 17 values, past
    the widths of its vector steps and into their tails."""
    values = tanh_premise()
    interleaved = np.stack((values, values[::-1]), axis=1).ravel()
    cases = {"alone": (values, [1]), "in one buffer": (values, [values.size]),
             "interleaved": (interleaved, [interleaved.size]), "in pieces of 2 to 17": (values, range(2, 18))}
    for name, (buffer, pieces) in cases.items():
        got = buffer.copy()
        apply(got.size, np.array(pieces, LONG), len(pieces), got)
        if not np.array_equal(got.view(np.int64), np.tanh(buffer).view(np.int64)):
            return f"it differs from np.tanh {name}"
    return None


def _bind_tanh(lib) -> Optional[str]:
    """Bind np.tanh's d->d inner loop in the library and check it: None
    where the kernel may call it, else the reason it may not."""
    if TANH_SIGNATURE not in np.tanh.types:
        return f"np.tanh has no {TANH_SIGNATURE} loop"
    index = np.tanh.types.index(TANH_SIGNATURE)
    # holds the interpreter lock: it reads np.tanh itself
    bind = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.py_object, ctypes.c_long)(("zg_bind_tanh", lib))
    if bind(np.tanh, index) != 0:
        return f"loop {index} of np.tanh is not a d->d loop"
    apply = lib.zg_tanh
    apply.argtypes = [ctypes.c_long, np.ctypeslib.ndpointer(LONG, flags="C_CONTIGUOUS"), ctypes.c_long,
                      np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")]
    apply.restype = None
    return _tanh_mismatch(apply)


def _normal_mismatch(fill: Callable) -> Optional[str]:
    """Why ``fill(bit generator address, n, out)`` does not give the bits of
    ``Generator.standard_normal(n)`` on ``NORMAL_PREMISE``, or leaves its
    generator in another state, or None where it gives them."""
    seed, n = NORMAL_PREMISE
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    got = np.empty(n)
    fill(_address(ours.bit_generator), n, got)
    if not np.array_equal(got.view(np.int64), numpys.standard_normal(n).view(np.int64)):
        return "its normals differ from numpy's"
    if ours.bit_generator.state != numpys.bit_generator.state:
        return "it leaves the generator in another state than numpy's"
    return None


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
    numpy loop runs it: a target whose domain is not a 1-d box, one
    generator driving two lanes, no spec (``_spec``: an oracle with no
    ``lane_spec``, a class that redefines ``estimate``, ``make_stepper``,
    ``_scaled`` or ``_noise``, or a spec of None), a spec without formula data, an
    estimator without a vicinity norm, a regret run of an oracle that
    answers at x (the kernel evaluates f only for a quadratic), an oracle of
    the softabs pair where the kernel holds no checked numpy tanh loop, or a
    kernel that could not be built.  Builds the kernel on the first run it
    covers."""
    body = oracle.target.domain
    if not isinstance(body, Box) or body.dim != 1 or len({id(g) for g in rngs}) < len(rngs):
        return None
    spec = _spec(oracle, ("estimate", "make_stepper", "_scaled", "_noise"))
    if spec is None or spec.data is None or (spec.flags & AT_X and regret):
        return None
    if not (spec.flags & AT_X or getattr(oracle, "vicinity_norm", None)):  # the kernel writes y - x
        return None
    advance = kernel()
    if advance is None or (spec.flags & SOFTABS and not tanh_bound()):
        return None
    return LaneRun(advance, spec, regret, body, oracle.target.f_star, rngs, horizons, schedules)


def probe_draws(oracle, delta: float, m: int, rng: np.random.Generator, two_arms: bool = False):
    """The draws ``oracle._draws`` makes for m replies at delta, bit for bit, from
    one call of the library's fill (``zg_lane_draws``) on one lane whose
    directions and noise both read rng: all m directions, then the noise
    arm by arm in blocks of m.  ``two_arms`` draws a one-point estimator's
    as a two-point one's, two blocks of noise, for antithetic pairs.
    Returns (du, w, xi), views of one buffer: du (m, 1), or (m, 2, 1) with
    du and -du, w (m, 1), both empty without directions, and xi (blocks, m,
    1).  None where numpy draws them: m < 1, no spec (``_spec``: d > 1, or a
    class that redefines ``_scaled``, ``_noise`` or ``_draws``), or no
    kernel."""
    spec = _spec(oracle, ("_scaled", "_noise", "_draws")) if m >= 1 else None
    if spec is None or kernel() is None:
        return None
    lib = _library()
    flags = spec.flags | (TWO_POINT if two_arms else 0) | (NOISE if spec.noise else 0)
    lane = np.zeros(1, LANE)
    lane["delta"], lane["weight"], lane["left"] = delta, spec.weight / delta, m
    if spec.noise:
        lane["scale"] = spec.noise(delta)
    out = np.empty(lib.scratch(m, 1, flags))
    with rng.bit_generator.lock:  # as a Generator holds it while it draws
        lane["dir"] = lane["noise"] = _address(rng.bit_generator)
        count = lib.fill(m, 1, flags, lane, out)
    # on one lane, the fill's (steps, 1, arms) noise is in the order it was drawn: arm by arm it is (arms, m)
    arms, directions = (2 if flags & TWO_POINT else 1), (m if flags & DIRECTIONS else 0)
    du, w, xi = np.split(out[:count], [arms * directions, (arms + 1) * directions])
    return du.reshape(m, 2, 1) if arms == 2 else du.reshape(-1, 1), w.reshape(-1, 1), xi.reshape(-1, m, 1)


class LaneRun:
    """A run on the compiled lane kernel (see ``lane_run``): one call of
    ``advance``, ``zg_lane_run``, which runs every lane to its horizon in
    chunks of ``STEPS_PER_CHUNK`` steps, filling each chunk's draws in C.
    Every value, every fault it reports, and every generator's final state
    are those of the numpy loop fed by the steppers
    ``make_stepper(h - 1, schedule.delta, rng)`` of an oracle whose
    ``lane_spec()`` is ``spec``.

    Its state is one ``LANE`` row per lane: the lane's delta, its weight
    over delta, noise scale and shift, computed once from its delta, the
    vicinity tolerance of its schedule's delta, its schedule's step sizes,
    the steps it has left, its row of the run's arrays, and its
    generators.  The step sizes are ``eta_array`` of each distinct
    schedule, computed once to the longest horizon of its lanes.
    Directions read each lane's own generator.  Noise reads it too where
    there are no directions; otherwise it reads the twin of the lane's
    generator jumped once, numpy's ``jumped()`` reached by its documented
    advance (``core.jumped``), taken here from its state at the start of
    the run, as ``core.draw_chunks`` takes it."""

    def __init__(self, advance: Callable, spec: LaneSpec, regret: bool, body: Box, f_star: float,
                 rngs: Sequence[np.random.Generator], horizons: Sequence[int], schedules):
        lib = _library()
        self._advance, self._fill = advance, lib.fill
        self._flags = spec.flags | (REGRET if regret else 0) | (NOISE if spec.noise else 0) | (
            SHIFTED if spec.shift else 0)
        self._data = np.array([body.lower[0], body.upper[0], f_star, *spec.data])
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
        deltas = [s.delta for s in schedules]
        table = self._table = np.zeros(len(rngs), LANE)
        table["delta"], table["left"], table["index"] = deltas, [h - 1 for h in horizons], range(len(rngs))
        table["tol"] = vicinity_tolerance(table["delta"])
        table["eta"] = [address[id(s)] for s in schedules]
        table["weight"] = [spec.weight / d for d in deltas]
        for name, of in (("scale", spec.noise), ("shift", spec.shift)):
            if of:
                table[name] = [of(d) for d in deltas]
        # the generators of the directions and of the noise, kept alive while C holds their pointers
        self._dir = [g.bit_generator for g in rngs]
        twins = self._flags & (SIGNS | UNIT | PLAIN) and spec.noise
        self._noise = [jumped(bg) for bg in self._dir] if twins else self._dir
        table["dir"], table["noise"] = ([_address(bg) for bg in gens] for gens in (self._dir, self._noise))

    def run(self, x: np.ndarray, sum_x: np.ndarray, regret: np.ndarray) -> Optional[tuple]:
        """Run every lane to its horizon, updating its iterate, sum and
        regret, rows of the (lanes, 1) arrays x, sum_x and regret, in place,
        so that its sum and regret are then those at its last step.  Returns
        None, or the first fault, as the numpy loop finds it after each
        chunk: (``NONFINITE``, lane, the chunk's first and last steps, 0.0)
        for a lane whose steps eta*G, sum or regret went non-finite, else
        (``ESCAPED``, lane, step, step, |y - x|) for an evaluation point
        beyond the lane's vicinity tolerance.  The run then stops.  Call it
        once."""
        if not x.size == sum_x.size == regret.size == self._table.size:  # C writes one row per lane
            raise ValueError(f"x, sum_x and regret must hold one row per lane, {self._table.size}")
        fault = np.zeros(1, FAULT)
        kind = self._advance(STEPS_PER_CHUNK, self._table.size, self._flags, self._data, self._table, x, sum_x,
                             regret, self._scratch, fault)
        return None if kind == 0 else (kind, *fault[0].tolist())

    def draws(self, m: int) -> np.ndarray:
        """The next m steps' draws of the lanes as ``run`` fills a chunk's
        (``zg_lane_draws``): du, w and xi one after the other, each flat in
        the layout of ``solver._next_chunk``.  A view of the run's scratch,
        valid until the next chunk is drawn."""
        if not 0 < m <= STEPS_PER_CHUNK:  # the scratch holds one chunk
            raise ValueError(f"a chunk has 1 to {STEPS_PER_CHUNK} steps, not {m}")
        count = self._fill(m, self._table.size, self._flags, self._table, self._scratch)
        self._table["left"] -= np.minimum(self._table["left"], m)
        return self._scratch[:count]


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
    """Compile arguments that build numpy's tanh loop in, against Python's
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
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join((*command, platform.machine(), np.__version__)).encode())
    key.update(NPYRANDOM.read_bytes())
    key.update(BITGEN_H.read_bytes())
    if "-DZG_UFUNC" in command:
        key.update(sys.version.encode())
        key.update(PYTHON_H.read_bytes())
        key.update(UFUNCOBJECT_H.read_bytes())
    return CACHE / f"_lanes-{key.hexdigest()[:16]}.so"


def _build(path: Path) -> None:
    """Compile into a temporary file beside ``path`` and move it into place,
    so a concurrent run never loads a half-written library, then remove the
    libraries of other inputs beside it (never a temporary file).  A compile
    that fails or hangs raises OSError, with the compiler's messages."""
    import subprocess  # only a build needs it: a process that finds the library cached never imports it
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(_command(tmp), check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
        for stale in path.parent.glob("_lanes-*.so"):
            if stale != path:
                stale.unlink(missing_ok=True)  # another build may have removed it first
    except subprocess.SubprocessError as exc:
        detail = (getattr(exc, "stderr", b"") or b"").decode(errors="replace").strip()
        raise OSError(f"{type(exc).__name__}: {exc} {detail}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _library():
    with _loading:
        if not _loaded:
            _loaded.append(_load())
        return _loaded[0]


def _load():
    try:
        path = _library_path()
        if not path.exists():
            _build(path)
        lib = np.ctypeslib.load_library(path.name, str(path.parent))
        loaded = _Library(lib, bool(_ufunc_args()))
    except (OSError, AttributeError) as exc:  # the numpy loop runs instead
        _log.debug("lane kernel unavailable, the numpy loop runs: %s: %s", type(exc).__name__, exc)
        return None
    refused = "numpy's random_standard_normal gave no ziggurat tables"
    if lib.zg_bind_normal() == 0:
        refused = _normal_mismatch(loaded.normal)
    if refused is None:
        _log.debug("lane kernel loaded from %s, normals from numpy's ziggurat fast path inline", path)
    else:  # every normal through numpy's random_standard_normal, checked in its turn
        lib.zg_unbind_normal()
        again = _normal_mismatch(loaded.normal)
        if again is not None:
            _log.debug("lane kernel unavailable, the numpy loop runs: inline normals: %s; "
                       "normals from numpy's random_standard_normal: %s", refused, again)
            return None
        _log.debug("lane kernel loaded from %s, normals from numpy's random_standard_normal: %s", path, refused)
    return loaded
