"""Build, cache and load the compiled lane kernel (``_lanes.c``).

Importing zograd does not import this module: the oracles and the solver
import it the first time a run asks for the kernel.  Where Python keeps no
bytecode cache, every line a process imports is compiled as it starts.

``kernel()`` compiles the C source with the system C compiler the first
time a run asks for it (never at import), caches the shared library under
``__pycache__`` next to this file, named by a hash of its inputs, and loads
it with ctypes, once per process, under a lock, so that threads running
their first runs together share one load.  If any of that fails (no
compiler, a read-only package directory, a library that does not load), it
logs the reason once at DEBUG and returns None, and the solver keeps its
numpy loop.  A ctypes call releases the interpreter lock, and nothing the
library runs takes it back, so runs on several threads run in parallel.

Where Python's header (``Python.h``) and numpy's ufunc header
(``numpy/ufuncobject.h``) exist, the library is built against them and,
when it loads, binds the ``d->d`` inner loop of ``np.tanh`` and checks it
against ``np.tanh`` bit for bit (``tanh_bound()``); the kernel applies that
loop to the tanh arguments of the lower-bound oracles of the softabs pair.
Where a header is missing, the loop cannot be bound or the check fails,
the reason is logged once at DEBUG and those runs take the numpy loop.

Where numpy ships its sampler library (``numpy/random/lib/libnpyrandom.a``)
and the header of its bit generators (``numpy/random/bitgen.h``), the
library is built against them and also fills each chunk's draws in C
(``lane_draws()``, ``LaneDraws``); where either is missing, it is built
without them, the reason is logged once at DEBUG, and the oracles' numpy
steppers make the draws.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
import sys
import threading
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .core import STEPS_PER_CHUNK

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

# flag bits of zg_lane_chunk, as in _lanes.c
TWO_POINT, EVAL_POINT, CONTROLLED, LANE_ETA, REGRET = 1, 2, 4, 8, 16
AT_X, SOFTABS, SHIFTED = 32, 64, 128
LONG = np.dtype(ctypes.c_long)  # the kernel's integer arrays
# samplers and direction transforms of zg_lane_draws, as in _lanes.c
NONE, NORMAL, BITS = 0, 1, 2
SIGNS, UNIT, UNIT_SCALED, PLAIN = 0, 1, 2, 3

# [(chunk function, draw functions or None, whether numpy's tanh loop is bound), or None once loading failed]
_loaded: list = []
_loading = threading.Lock()


def kernel() -> Optional[Callable]:
    """``zg_lane_chunk`` of the compiled library, or None where it cannot
    be built or loaded.  Built and loaded on the first call only."""
    loaded = _library()
    return None if loaded is None else loaded[0]


def lane_draws() -> Optional[tuple[Callable, Callable]]:
    """(``zg_lane_draws``, ``zg_skip``) of the compiled library, or None
    where it cannot be built or loaded, or was built without numpy's
    samplers."""
    loaded = _library()
    return None if loaded is None else loaded[1]


def tanh_bound() -> bool:
    """Whether the kernel holds numpy's own tanh loop, checked against
    ``np.tanh``: only then does it run the oracles of the softabs pair."""
    loaded = _library()
    return loaded is not None and loaded[2]


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


class LaneDraws:
    """The draws of one kernel run, filled in C chunk by chunk: for lanes of
    generators ``rngs``, ``ends`` steps and schedule deltas ``deltas``,
    every value, and every generator's final state, is that of the numpy
    steppers ``make_stepper(end, delta, rng)`` of an oracle whose draws
    ``spec`` describes, stacked as ``solver._next_chunk`` stacks them.
    ``widths`` are the values per lane-step of the kernel's slots du, w and
    xi.

    ``spec``, an oracle's ``lane_draw_spec()``, is what its steppers draw
    for one lane-step of a 1-d run: (direction, transform, weight, noise,
    noise_scale).  direction is the sampler of the direction variate (NONE,
    NORMAL for ``standard_normal``, BITS for ``integers(0, 2)``); transform
    makes U and V from it (SIGNS: U = 2b - 1, V = 1/U; UNIT: U = z/|z|;
    UNIT_SCALED: U = (z/|z|)*sqrt(1); PLAIN: U = z; V = U but for SIGNS);
    the offsets are du = delta*U, and -du for a second arm, and the weight
    w = V*(weight/delta).  noise is the sampler of xi (NONE for zeros, or
    NORMAL), and xi = noise_scale(delta)*z, or z itself where noise_scale is
    None.

    Directions read each lane's own generator.  Noise reads it too where
    there are no directions; otherwise it reads a copy made here and
    skipped in C past the lane's ``end`` directions, as ``core.draw_chunks``
    skips its copy.  The generators must be distinct objects.  The buffers
    are the run's: each chunk's arrays are views of them, valid until the
    next chunk is drawn."""

    def __init__(self, fns, spec: tuple, widths: Sequence[int], rngs: Sequence[np.random.Generator],
                 ends: Sequence[int], deltas: Sequence[float]):
        self._fill, skip = fns
        direction, transform, weight, noise, noise_scale = spec
        lanes = len(rngs)
        self._spec = np.array([direction, noise, transform, noise_scale is not None], LONG)
        self._widths = np.array(widths, LONG)
        self._left = np.array(ends, LONG)
        scale = noise_scale or (lambda delta: 0.0)
        self._scale = np.array([[d, weight / d, scale(d)] for d in deltas])
        self._scratch = np.empty(STEPS_PER_CHUNK * max(widths[2], 1))
        self._buffers = [np.empty(STEPS_PER_CHUNK * lanes * k) for k in widths]
        self._gens = [g.bit_generator for g in rngs]  # kept alive while C holds their pointers
        self._dir = np.array([_address(bg) for bg in self._gens], np.uintp)
        self._noise = self._dir
        if direction and noise:
            self._noise = self._dir.copy()
            for i, (g, end) in enumerate(zip(rngs, ends)):
                if end < 1:  # a lane that takes no step draws nothing
                    continue
                ahead = type(g.bit_generator)(0)  # seeded only to take the state: cheaper than copy.deepcopy
                ahead.state = g.bit_generator.state
                self._gens.append(ahead)
                self._noise[i] = _address(ahead)
                skip(int(self._noise[i]), direction, end, STEPS_PER_CHUNK, self._scratch)

    def retain(self, keep: np.ndarray) -> None:
        """Keep only the lanes where ``keep`` is true, in order."""
        self._left, self._scale = self._left[keep], self._scale[keep]
        self._dir, self._noise = self._dir[keep], self._noise[keep]

    def chunk(self, m: int) -> list[np.ndarray]:
        """The next m steps' draws of the kept lanes: the flat (steps, lanes,
        width) array of each slot of nonzero width.  A lane whose draws end
        sooner gets zeros after them."""
        if not 0 < m <= STEPS_PER_CHUNK:  # the buffers and the scratch hold one chunk
            raise ValueError(f"a chunk has 1 to {STEPS_PER_CHUNK} steps, not {m}")
        sizes = m * self._left.size * self._widths
        du, w, xi = (buf[:size] for buf, size in zip(self._buffers, sizes))
        if sizes.any():
            self._fill(m, self._left.size, self._spec, self._widths, self._scale, self._left, self._dir,
                       self._noise, du, w, xi, self._scratch)
        return [a for a, k in zip((du, w, xi), self._widths) if k]


def _address(bit_generator) -> int:
    """The address of the ``bitgen_t`` of a numpy bit generator, read from
    its capsule: its ``ctypes`` interface would build and keep about 1 kB of
    ctypes objects per generator."""
    return _capsule_pointer()(bit_generator.capsule, b"BitGenerator")


@functools.cache
def _capsule_pointer():
    return ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))


def _sampler_args() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(compile, link) arguments that build the C draws in, against numpy's
    header and sampler library; empty where either file is missing."""
    if not (BITGEN_H.is_file() and NPYRANDOM.is_file()):
        return (), ()
    return ("-DZG_NPYRANDOM", f"-I{BITGEN_H.parents[2]}"), (str(NPYRANDOM), "-lm")


def _ufunc_args() -> tuple[str, ...]:
    """Compile arguments that build numpy's tanh loop in, against Python's
    header and numpy's ufunc header; empty where either file is missing."""
    if not (PYTHON_H.is_file() and UFUNCOBJECT_H.is_file()):
        return ()
    return "-DZG_UFUNC", f"-I{PYTHON_H.parent}", f"-I{UFUNCOBJECT_H.parents[1]}"


def _library_path() -> Path:
    """Where the library of this source, these flags, this machine and,
    when built in, this numpy's sampler library and header, and Python's and
    numpy's ufunc headers under this Python, is cached."""
    import hashlib
    import platform

    compile_args, link_args = _sampler_args()
    ufunc_args = _ufunc_args()
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join((CC, *FLAGS, *compile_args, *ufunc_args, *link_args, platform.machine())).encode())
    if link_args or ufunc_args:
        key.update(np.__version__.encode())
    if link_args:
        key.update(NPYRANDOM.read_bytes())
        key.update(BITGEN_H.read_bytes())
    if ufunc_args:
        key.update(sys.version.encode())
        key.update(PYTHON_H.read_bytes())
        key.update(UFUNCOBJECT_H.read_bytes())
    return CACHE / f"_lanes-{key.hexdigest()[:16]}.so"


def _build(path: Path) -> None:
    """Compile into a temporary file beside ``path`` and move it into place,
    so a concurrent run never loads a half-written library.  A compile that
    fails or hangs raises OSError, with the compiler's messages."""
    import subprocess  # only a build needs it: a process that finds the library cached never imports it
    import tempfile

    compile_args, link_args = _sampler_args()
    compile_args += _ufunc_args()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([CC, *FLAGS, *compile_args, "-o", tmp, str(SOURCE), *link_args], check=True,
                       capture_output=True, timeout=120)
        os.replace(tmp, path)
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
        chunk = lib.zg_lane_chunk
    except (OSError, AttributeError) as exc:  # the numpy loop runs instead
        _log.debug("lane kernel unavailable, the numpy loop runs: %s: %s", type(exc).__name__, exc)
        return None
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    longs = np.ctypeslib.ndpointer(LONG, flags="C_CONTIGUOUS")
    pointers = np.ctypeslib.ndpointer(np.uintp, flags="C_CONTIGUOUS")
    chunk.argtypes = [ctypes.c_long] * 3 + [doubles] * 6 + [longs] + [doubles] * 8
    chunk.restype = None
    unbound = _bind_tanh(lib) if _ufunc_args() else f"{PYTHON_H} or {UFUNCOBJECT_H} is missing"
    if unbound is None:
        _log.debug("lane kernel loaded from %s, with numpy's tanh loop bound", path)
    else:
        _log.debug("lane kernel loaded from %s, without numpy's tanh loop (softabs runs take the numpy loop): %s",
                   path, unbound)
    if not _sampler_args()[1]:
        _log.debug("C draws unavailable, the numpy steppers draw: %s or %s is missing", BITGEN_H, NPYRANDOM)
        return chunk, None, unbound is None
    fill, skip = lib.zg_lane_draws, lib.zg_skip
    fill.argtypes = [ctypes.c_long] * 2 + [longs] * 2 + [doubles] + [longs] + [pointers] * 2 + [doubles] * 4
    skip.argtypes = [ctypes.c_void_p] + [ctypes.c_long] * 3 + [doubles]
    fill.restype = skip.restype = None
    return chunk, (fill, skip), unbound is None
