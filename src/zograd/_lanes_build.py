"""Build the lane library (``_lanes.c``), check its premises, and bind and check numpy's loops in it.

``_lanes`` imports this module only where a process builds the library,
loads a library whose premises have no stored verdict, or binds one of
numpy's loops, so that a run that finds the library and its verdict cached
and needs no loop compiles none of it (where Python keeps no bytecode
cache, every line a process imports is compiled in it).

A library's premises are that its inline normal fill gives numpy's normals
(``NORMAL_PREMISE``), that its seeding gives SeedSequence's words
(``SEED_PREMISE``), and that its probe moments give numpy's
(``MOMENTS_PREMISE``).  ``check_premises`` checks them once per library
and stores the verdict beside it, used or refused, where every later load
reads it; a build removes the stored verdicts, so a library is checked
when it is built.  numpy's loops are bound and checked once per process,
on the first reply that needs one.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ._lanes import LONG, LOOPS, PYTHON_H, REFUSED, UFUNCOBJECT_H, USED, _address, _command, _declare, _seed

# (seed, count) of the normals the normal fill is checked on: the first
# normal of default_rng(seed) is drawn in strip 1 of numpy's ziggurat, which
# numpy's tables send to the slow path every time, and the count takes the
# draws past tail values and wedge rejections (tests/test_solver.py pins both)
NORMAL_PREMISE = (15, 8192)
# (master seed, stream id) the library's seeding is checked on: 5 words, so
# that one is mixed in after the pool, and a key of 2
SEED_PREMISE = ((1 << 130) | 20260810, (7 << 32) | 5)
# (seed, count) of the values the library's probe moments are checked on:
# normals scaled by 2^-20 .. 2^20, whose sums round differently in another
# order; the count and its 32 batches of 312 are split, and at no multiple
# of 8 (tests/test_solver.py pins it)
MOMENTS_PREMISE = (20260810, 10_007)
LOOP_SIGNATURE = "d->d"


def build(path: Path) -> None:
    """Compile into a temporary file beside ``path`` and move it into place,
    so a concurrent run never loads a half-written library, then remove the
    libraries of other inputs beside it and every stored verdict, its own
    too, so that the new library's premises are checked as it loads (never
    a temporary file).  A compile that fails or hangs raises OSError, with
    the compiler's messages."""
    import subprocess  # only a build needs them: a process that binds a loop never imports them
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(_command(tmp), check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
        for stale in [*path.parent.glob("_lanes-*.so"), *path.parent.glob("_lanes-*.verdict")]:
            if stale != path:
                stale.unlink(missing_ok=True)  # another build may have removed it first
    except subprocess.SubprocessError as exc:
        detail = (getattr(exc, "stderr", b"") or b"").decode(errors="replace").strip()
        raise OSError(f"{type(exc).__name__}: {exc} {detail}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def check_premises(loaded, path: Path) -> str:
    """Check the premises of the loaded library (``_lanes._Library``) at
    ``path``, in turn, and store their verdict beside it, one line, as
    ``_lanes._stored_verdict`` reads it: ``_lanes.USED``, or
    ``_lanes.REFUSED`` and the reason of the first premise that failed.
    Reads numpy's ziggurat tables into the library.  Where the verdict
    cannot be written, the next load checks again."""
    refused = "numpy's random_standard_normal gave no ziggurat tables"
    if loaded.lib.zg_bind_normal() == 0:
        refused = normal_mismatch(loaded.normal) or seed_mismatch(loaded.seed) or moments_mismatch(loaded.moments)
    verdict = USED if refused is None else REFUSED + refused
    tmp = path.with_suffix(f".verdict.{os.getpid()}.tmp")
    try:  # written whole, then moved into place, so a concurrent load reads all of it or none
        tmp.write_text(verdict + "\n", encoding="utf-8")
        os.replace(tmp, path.with_suffix(".verdict"))
    except OSError:
        tmp.unlink(missing_ok=True)
    return verdict


def normal_mismatch(fill: Callable) -> Optional[str]:
    """Why ``fill(bit generator address, n, out address)``, the library's
    ``zg_normal_fill``, does not give the bits of
    ``Generator.standard_normal(n)`` on ``NORMAL_PREMISE``, or leaves its
    generator in another state, or None where it gives them."""
    seed, n = NORMAL_PREMISE
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    got = np.empty(n)
    fill(_address(ours.bit_generator), n, got.ctypes.data)
    if not np.array_equal(got.view(np.int64), numpys.standard_normal(n).view(np.int64)):
        return "its normals differ from numpy's"
    if ours.bit_generator.state != numpys.bit_generator.state:
        return "its normals leave the generator in another state than numpy's"
    return None


def seed_mismatch(seed: Callable) -> Optional[str]:
    """Why ``seed``, the library's ``zg_seed``, does not give the words of
    numpy's SeedSequence on ``SEED_PREMISE``, or None where it does."""
    master, stream = SEED_PREMISE
    want = np.random.SeedSequence(master, spawn_key=(stream,)).generate_state(4, np.uint64)
    return None if np.array_equal(_seed(seed, master, [stream])[0], want) else "its seeding differs from numpy's"


def moments_mismatch(moments: Callable) -> Optional[str]:
    """Why ``moments``, the library's ``zg_moments``, does not give the bits
    of numpy's moments (``harness.probes._moments``) on ``MOMENTS_PREMISE``,
    or None where it does."""
    from .harness.probes import _moments  # the reference, stated once

    g = moments_premise()
    want = _moments(g)
    got = np.empty_like(want)
    moments(len(g), g.ctypes.data, got.ctypes.data)
    return None if np.array_equal(got.view(np.int64), want.view(np.int64)) else "its moments differ from numpy's"


def moments_premise() -> np.ndarray:
    """The replies (n, 1) of ``MOMENTS_PREMISE``."""
    seed, n = MOMENTS_PREMISE
    premise = np.random.default_rng(seed)
    return (premise.standard_normal(n) * np.exp2(premise.integers(-20, 21, n))).reshape(n, 1)


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
    to the array x in consecutive pieces, the k-th of ``pieces[k % count]``
    values (an array), does not give the bits of ``np.tanh`` or ``np.exp``
    (``name``) on ``loop_premise(name)``, or None where it does for each
    value alone, in one buffer, interleaved with their reverse, and in
    pieces of 2 to 17 values, past the widths of its vector steps and into
    their tails."""
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
    loop = _declare(lib.zg_loop, [ctypes.c_long] * 2 + [ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p])
    return loop_mismatch(lambda n, pieces, count, x: loop(which, n, pieces.ctypes.data, count, x.ctypes.data), name)
