"""Build the lane library (``_lanes.c``), and bind and check numpy's loops in it.

``_lanes`` imports this module only where a process builds the library
or binds one of numpy's loops, so that a run that finds the library
cached and needs no loop compiles none of it (where Python keeps no
bytecode cache, every line a process imports is compiled in it).
"""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ._lanes import LONG, LOOPS, PYTHON_H, UFUNCOBJECT_H, _command, _declare

LOOP_SIGNATURE = "d->d"


def build(path: Path) -> None:
    """Compile into a temporary file beside ``path`` and move it into place,
    so a concurrent run never loads a half-written library, then remove the
    libraries of other inputs beside it (never a temporary file).  A compile
    that fails or hangs raises OSError, with the compiler's messages."""
    import subprocess  # only a build needs them: a process that binds a loop never imports them
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


def loop_premise(name: str) -> np.ndarray:
    """The values the bound loop of ``np.tanh`` or ``np.exp`` is checked on:
    the tanh arguments of the adversarial reply at +1 and -1 over iterates
    and separations, or the exp arguments x - delta and x + delta*z of
    probes over points and deltas; standard normals; signed zeros, a
    subnormal, values near saturation, overflow or underflow, infinities."""
    rng = np.random.default_rng(20260810)
    x = rng.uniform(-1.0, 1.0, 3000)
    if name == "tanh":
        eps = rng.uniform(0.005, 0.35, 3000)
        spread, ends = ((x - 1.0) * (0.5 / eps), (x - -1.0) * (0.5 / eps)), [19.0, 25.0, -40.0]
    else:
        delta = rng.uniform(0.01, 1.0, 3000)
        spread, ends = (x - delta, x + delta * rng.standard_normal(3000)), [709.7, -708.5, -745.1]
    return np.concatenate([*spread, rng.standard_normal(2000), [0.0, -0.0, 1e-300, *ends, np.inf, -np.inf]])


def loop_mismatch(apply: Callable, name: str) -> Optional[str]:
    """Why ``apply(n, pieces, count, x)``, the bound loop applied in place
    to x in consecutive pieces, the k-th of ``pieces[k % count]`` values,
    does not give the bits of ``np.tanh`` or ``np.exp`` (``name``) on
    ``loop_premise(name)``, or None where it does for each value alone, in
    one buffer, interleaved with their reverse, and in pieces of 2 to 17
    values, past the widths of its vector steps and into their tails."""
    values, ufunc = loop_premise(name), getattr(np, name)
    interleaved = np.stack((values, values[::-1]), axis=1).ravel()
    cases = {"alone": (values, [1]), "in one buffer": (values, [values.size]),
             "interleaved": (interleaved, [interleaved.size]), "in pieces of 2 to 17": (values, range(2, 18))}
    for case, (buffer, pieces) in cases.items():
        got = buffer.copy()
        apply(got.size, np.array(pieces, LONG), len(pieces), got)
        if not np.array_equal(got.view(np.int64), ufunc(buffer).view(np.int64)):
            return f"it differs from np.{name} {case}"
    return None


def bind_loop(loaded, name: str) -> Optional[str]:
    """Bind the d->d inner loop of ``np.tanh`` or ``np.exp`` (``name``) in
    the loaded library (``_lanes._Library``) and check it: None where the
    kernel may call it, else the reason it may not."""
    if not loaded.ufunc:
        return f"{PYTHON_H} or {UFUNCOBJECT_H} is missing"
    ufunc, lib = getattr(np, name), loaded.lib
    if LOOP_SIGNATURE not in ufunc.types:
        return f"np.{name} has no {LOOP_SIGNATURE} loop"
    index, which = ufunc.types.index(LOOP_SIGNATURE), list(LOOPS).index(name)
    # holds the interpreter lock: it reads the ufunc itself
    bind = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.py_object, ctypes.c_long, ctypes.c_long)(("zg_bind_loop", lib))
    if bind(ufunc, index, which) != 0:
        return f"loop {index} of np.{name} is not a d->d loop"
    pointer = lambda dtype: np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
    apply = _declare(lib.zg_loop, [ctypes.c_long] * 2 + [pointer(LONG), ctypes.c_long, pointer(np.float64)])
    return loop_mismatch(functools.partial(apply, which), name)
