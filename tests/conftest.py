"""Fixtures that run the scripts' own argument vectors through ``cli.main``,
and one that gives a test a lane library of its own to load."""

import importlib.util
import shutil
import time
from pathlib import Path

import pytest

from zograd import _lanes
from zograd.harness.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _script(script: str):
    """scripts/<script>.py, loaded as a module, not run."""
    spec = importlib.util.spec_from_file_location(script, ROOT / "scripts" / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _invocation(script: str, name: str) -> list[str]:
    """The argument vector of scripts/<script>.py that writes results/<name>.csv."""
    return next(argv for argv in _script(script).INVOCATIONS if argv[-1].endswith(f"{name}.csv"))


@pytest.fixture
def script_cell(tmp_path):
    """Run the invocation of a script that writes results/<name>.csv, writing
    to tmp_path instead: (exit code, CSV path)."""

    def run(script: str, name: str) -> tuple[int, Path]:
        out = tmp_path / f"{name}.csv"
        return main(_invocation(script, name)[:-1] + [str(out)]), out

    return run


@pytest.fixture(scope="session")
def acceptance_cell(tmp_path_factory):
    """The rate or regret invocation of scripts/run_acceptance.py that writes
    results/<name>.csv, run once a session into a temporary directory, since
    both its acceptance criterion and ``TestCommittedResults`` check it:
    (exit code, CSV path, wall seconds)."""
    runs = {}

    def run(name: str) -> tuple[int, Path, float]:
        if name not in runs:
            out = tmp_path_factory.mktemp(name) / f"{name}.csv"
            start = time.monotonic()
            code = main(_invocation("run_acceptance", name)[:-1] + [str(out)])
            runs[name] = code, out, time.monotonic() - start
        return runs[name]

    return run


@pytest.fixture
def unchecked_library(tmp_path, monkeypatch):
    """The lane library, copied into a cache of its own under tmp_path with
    no stored verdict, and no library loaded: the next load loads this copy
    (a library of its own, as the dynamic loader maps another file anew),
    checks its premises and stores their verdict there, never in the shared
    cache.  The copy's path; skips where no library loads here."""
    if _lanes._library() is None:
        pytest.skip("the lane kernel cannot be built with numpy's samplers here")
    shared = _lanes._library_path()
    monkeypatch.setattr(_lanes, "CACHE", tmp_path / "cache")
    _lanes.CACHE.mkdir()
    shutil.copyfile(shared, _lanes.CACHE / shared.name)
    monkeypatch.setattr(_lanes, "_loaded", [])
    return _lanes.CACHE / shared.name
