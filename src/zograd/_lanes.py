"""Build, cache and load the compiled lane kernel (``_lanes.c``).

``kernel()`` compiles the C source with the system C compiler the first
time a run asks for it (never at import), caches the shared library under
``__pycache__`` next to this file, named by a hash of the source, the flags
and the machine, and loads it with ctypes.  If any of that fails (no
compiler, a read-only package directory, a library that does not load),
it logs the reason once at DEBUG and returns None, and the solver keeps
its numpy loop.
"""

from __future__ import annotations

import ctypes
import logging
import os
from pathlib import Path
from typing import Callable, Optional

import numpy as np

_log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_lanes.c")
CACHE = SOURCE.parent / "__pycache__"
CC = "cc"
# no -ffast-math and no -march: results must equal the numpy loop's bit for bit
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

# flag bits of zg_lane_chunk, as in _lanes.c
TWO_POINT, EVAL_POINT, CONTROLLED, LANE_ETA, REGRET = 1, 2, 4, 8, 16
AT_X, SOFTABS, SHIFTED = 32, 64, 128
LONG = np.dtype(ctypes.c_long)  # the kernel's integer arrays

_loaded: list = []  # [the chunk function, or None once loading failed]


def kernel() -> Optional[Callable]:
    """``zg_lane_chunk`` of the compiled library, or None where it cannot
    be built or loaded.  Built and loaded on the first call only."""
    if not _loaded:
        _loaded.append(_load())
    return _loaded[0]


def tanh_callback(args: np.ndarray):
    """The C callback ``zg_lane_chunk`` takes last: numpy's tanh applied in
    place to ``args``, the tanh arguments of a chunk's lanes.  It allocates
    no array and cannot raise."""
    return ctypes.CFUNCTYPE(None)(lambda: np.tanh(args, out=args))


def _library_path() -> Path:
    import hashlib
    import platform

    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join((CC, *FLAGS, platform.machine())).encode())
    return CACHE / f"_lanes-{key.hexdigest()[:16]}.so"


def _build(path: Path) -> None:
    """Compile into a temporary file beside ``path`` and move it into place,
    so a concurrent run never loads a half-written library."""
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([CC, *FLAGS, "-o", tmp, str(SOURCE)], check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> Optional[Callable]:
    import subprocess  # only a build needs it; imported here for its errors

    try:
        path = _library_path()
        if not path.exists():
            _build(path)
        fn = np.ctypeslib.load_library(path.name, str(path.parent)).zg_lane_chunk
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:  # the numpy loop runs instead
        detail = getattr(exc, "stderr", b"") or b""
        _log.debug("lane kernel unavailable, the numpy loop runs: %s: %s %s", type(exc).__name__, exc,
                   detail.decode(errors="replace").strip())
        return None
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    longs = np.ctypeslib.ndpointer(LONG, flags="C_CONTIGUOUS")
    fn.argtypes = [ctypes.c_long] * 3 + [doubles] * 6 + [longs] + [doubles] * 8 + [ctypes.CFUNCTYPE(None)]
    fn.restype = None
    _log.debug("lane kernel loaded from %s", path)
    return fn
