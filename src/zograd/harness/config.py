"""Experiment configuration: one flat dataclass, JSON on disk, CLI overrides.

Validation failures name the offending field, e.g.
``ConfigError("replications: must be a positive integer")``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Optional

from .fitting import FIT_HORIZONS


class ConfigError(ValueError):
    pass


DEFAULT_HORIZONS = (1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000)

ESTIMATORS = ("one-point", "smoothing", "spsa", "rdsa", "sf", "exact")
PROBLEM_CLASSES = ("convex", "sc")
NOISE_KINDS = ("uncontrolled", "controlled")
# A replication's RNG stream id packs (tag << REP_BITS) | rep, so a group
# holds at most 2**REP_BITS replications before its ids run into the next tag.
REP_BITS = 20


@dataclass
class ExperimentConfig:
    """Everything a rate/regret/lower-bound/probe run needs, round-trippable
    through JSON without loss."""

    experiment: str = "rate"
    problem_class: str = "convex"
    estimator: str = "smoothing"
    noise: str = "uncontrolled"
    sigma: float = 1.0
    noise_slope: float = 1.0
    function: dict = field(default_factory=lambda: {"name": "auto"})
    horizons: tuple[int, ...] = DEFAULT_HORIZONS
    replications: int = 16
    master_seed: int = 20260810
    out: Optional[str] = None
    workers: int = 1
    tolerance: float = 0.08
    # lower-bound / regret envelope parameters
    p: Optional[float] = None
    q: Optional[float] = None
    c1: Optional[float] = None
    c2: Optional[float] = None
    n: int = 10_000
    # probe parameters
    oracle_spec: Optional[str] = None
    delta_grid: tuple[float, ...] = (0.5, 0.2, 0.1, 0.05)
    probe_reps: int = 100_000

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in ("rate", "regret", "lowerbound", "probe", "check"):
            raise ConfigError(f"experiment: unknown kind {self.experiment!r}")
        if self.problem_class not in PROBLEM_CLASSES:
            raise ConfigError(f"problem_class: must be one of {PROBLEM_CLASSES}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator: must be one of {ESTIMATORS}")
        if self.noise not in NOISE_KINDS:
            raise ConfigError(f"noise: must be one of {NOISE_KINDS}")
        # finite first: NaN passes every comparison test below
        for name in ("sigma", "noise_slope", "tolerance", "p", "q", "c1", "c2"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ConfigError(f"{name}: must be finite, got {v}")
        if self.sigma < 0:
            raise ConfigError("sigma: must be nonnegative")
        # SeedSequence takes a nonnegative int; a bool or a float is no seed
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ConfigError(f"master_seed: must be a nonnegative integer, got {self.master_seed!r}")
        # nor a count: a float would reach range() or an array shape, and true would run as 1
        for name in ("replications", "workers", "n", "probe_reps"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name}: must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.function, dict) or "name" not in self.function:
            raise ConfigError("function.name: required")
        if self.noise_slope < 0:
            raise ConfigError("noise_slope: must be nonnegative")
        if not self.horizons or not all(_is_int(h) and h >= 1 for h in self.horizons):
            raise ConfigError(f"horizons: must be positive integers, got {list(self.horizons)}")
        if list(self.horizons) != sorted(set(self.horizons)):
            raise ConfigError("horizons: must be strictly increasing")
        if self.replications < 1:
            raise ConfigError("replications: must be a positive integer")
        if self.replications > 1 << REP_BITS:
            raise ConfigError(f"replications: at most {1 << REP_BITS}, or stream ids would collide")
        if self.workers < 1:
            raise ConfigError("workers: must be a positive integer")
        if self.experiment == "probe" and self.workers != 1:
            raise ConfigError("workers: a probe runs on one thread, so must be 1")
        if self.experiment in ("rate", "regret") and len(self.horizons) < FIT_HORIZONS:
            raise ConfigError(f"horizons: a rate is fitted through at least {FIT_HORIZONS}")
        if self.n < 1:
            raise ConfigError("n: must be a positive integer")
        if self.tolerance <= 0:
            raise ConfigError("tolerance: must be positive")
        for name in ("p", "q"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ConfigError(f"{name}: must be nonnegative")
        for name in ("c1", "c2"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ConfigError(f"{name}: must be positive")
        if not self.delta_grid or not all(0 < d <= 1 for d in self.delta_grid):
            raise ConfigError("delta_grid: must be nonempty, with entries in (0, 1]")
        if self.probe_reps < 32:
            raise ConfigError("probe_reps: must be at least 32")
        return self

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["horizons"] = list(self.horizons)
        d["delta_grid"] = list(self.delta_grid)
        return d

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"{sorted(unknown)[0]}: unknown field")
        kwargs = dict(data)
        if "horizons" in kwargs:
            kwargs["horizons"] = tuple(kwargs["horizons"])
        if "delta_grid" in kwargs:
            kwargs["delta_grid"] = tuple(float(d) for d in kwargs["delta_grid"])
        return cls(**kwargs).validate()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def with_overrides(self, **overrides: Any) -> "ExperimentConfig":
        return ExperimentConfig.from_dict({**self.to_dict(), **overrides})


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def read_config_file(path: str | Path) -> dict[str, Any]:
    """The fields a JSON config file sets, not yet validated: a caller can
    tell a field the file names from a default.  A file that cannot be read
    is a ``ConfigError`` that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file {path}: cannot be read ({exc.strerror or exc})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file: top level must be an object")
    return data
