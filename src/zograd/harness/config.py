"""What the program takes from outside, each input declared once.

Three grammars reach the harness: the ``ExperimentConfig`` fields (from a
JSON config file or the CLI flags that set them), the ``function`` spec
among them, and the ``--oracle`` spec string.  A config field's kind and
default sit in ``FIELDS``, a function spec's keys in
``FUNCTIONS`` next to the testbed builder they feed, and an oracle spec's
keys in ``SPEC_KINDS``; ``from_dict``, ``validate``, the CLI's flag types
and choices and both spec readers read these, and each name list is
written once, below.  A value that does not fit is a ``ConfigError`` whose
one line names the input by its path, e.g. ``horizons[1]: must be an
integer, got 2.5`` or ``oracle_spec.sigm: not a key of one-point (...)``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any, NamedTuple, Optional

from ..core import Value
from ..estimators import FUNCTION_CLASSES, RDSA, SF, SPSA, SURFACE
from ..testbed import exp_one_d, kinked_quadratic, quadratic, softabs, strongly_convex_pair
from .fitting import FIT_HORIZONS


class ConfigError(ValueError):
    pass


class Kind(NamedTuple):
    """What one input may be: a ``cast`` (int, float or str) value, never a
    bool.  A number is finite, an int counts as a float, and it is at least
    ``lo`` (positive where ``strict``, with ``lo`` 0) and at most ``hi``
    where those are set; a str is one of ``names`` where they are given.
    Null is one too where ``null``, and where ``many`` the input is a
    nonempty list of such values, kept as a tuple of ``cast`` values."""

    cast: type = float
    names: tuple[str, ...] = ()
    lo: Optional[float] = None
    strict: bool = False
    hi: Optional[float] = None
    null: bool = False
    many: bool = False

    @property
    def read(self):
        """The parser of a value from command-line text, a list's items separated by commas or spaces."""
        if not self.many:
            return self.cast
        def read_list(text: str) -> list:
            return [self.cast(tok) for tok in text.replace(",", " ").split()]
        read_list.__name__ = f"{self.cast.__name__} list"  # argparse names a bad value by it
        return read_list

    def check(self, path: str, value: Any) -> Any:
        """``value`` as it is kept, or a ConfigError that names ``path``."""
        if value is None and self.null:
            return None
        if self.many and (not isinstance(value, (list, tuple)) or not value):
            raise ConfigError(f"{path}: must be a nonempty list, got {value!r}")
        for i, item in enumerate(value if self.many else [value]):
            fault = self._fault(item)
            if fault is not None:
                raise ConfigError(f"{path}{f'[{i}]' if self.many else ''}: must be {fault}, got {item!r}")
        return tuple(map(self.cast, value)) if self.many else value

    def _fault(self, v: Any) -> Optional[str]:
        if self.names:
            return None if isinstance(v, str) and v in self.names else "one of " + ", ".join(self.names)
        if self.cast is str:
            return None if isinstance(v, str) else "a string"
        if isinstance(v, bool) or not isinstance(v, int if self.cast is int else (int, float)):
            return "an integer" if self.cast is int else "a number"
        if self.cast is float and not abs(v) <= sys.float_info.max:  # NaN, ±inf, or an int no float holds
            return "finite"
        if self.lo is not None and (v <= self.lo if self.strict else v < self.lo):
            return ("positive" if self.strict else "nonnegative") if self.lo == 0 else f"at least {self.lo}"
        return f"at most {self.hi:g}" if self.hi is not None and v > self.hi else None


class FunctionSpec:
    """An object naming a testbed function, "auto" or one of ``FUNCTIONS``,
    plus keys of that function: its builder's and, together, ``lower`` and
    ``upper`` of a box domain.  "auto" takes no keys."""

    def check(self, path: str, spec: Any) -> dict:
        if not isinstance(spec, dict):
            raise ConfigError(f"{path}: must be an object, got {spec!r}")
        name = Kind(str, ("auto", *FUNCTIONS)).check(f"{path}.name", spec.get("name"))
        keys = {} if name == "auto" else {**FUNCTIONS[name][1], "lower": (NUMBERS, None), "upper": (NUMBERS, None)}
        for key, value in spec.items():
            if key == "name":
                continue
            if key not in keys:
                raise ConfigError(f"{path}.{key}: not a key of {name} (its keys: {', '.join(keys) or 'none'})")
            keys[key][0].check(f"{path}.{key}", value)
        if ("lower" in spec) != ("upper" in spec):
            raise ConfigError(f"{path}: lower and upper must be given together")
        return spec


NUMBER, INTEGER, COUNT = Kind(float), Kind(int), Kind(int, lo=1)
NONNEGATIVE, POSITIVE = Kind(float, lo=0), Kind(float, lo=0, strict=True)
NUMBERS = Kind(float, many=True)

EXPERIMENTS = ("rate", "regret", "lowerbound", "probe", "check")
SCHEMES = {scheme.kind: scheme for scheme in (SPSA, RDSA, SF, SURFACE)}
# name -> (feedback, scheme) of an estimator cell; "exact" is true gradients
ESTIMATORS = {"one-point": ("one_point", SPSA), "smoothing": ("one_point", SURFACE), "spsa": ("two_point", SPSA),
              "rdsa": ("two_point", RDSA), "sf": ("two_point", SF), "exact": (None, None)}
# the config's problem classes, as the solver's and the hard pairs' names
PROBLEM_CLASSES = {"convex": "convex_smooth", "sc": "strongly_convex"}
NOISE_KINDS = ("uncontrolled", "controlled")
# name -> (testbed builder, {key: (kind, default)}), the builder's keyword
# arguments besides its domain
FUNCTIONS = {
    "quadratic": (quadratic, {"a": (NUMBERS, [1.0]), "b": (NUMBERS, None), "offset": (NUMBER, 0.0)}),
    "softabs": (softabs, {"v": (INTEGER, 1), "eps": (POSITIVE, 0.1)}),
    "sc_pair": (strongly_convex_pair, {"v": (INTEGER, 1), "eps": (POSITIVE, 0.1)}),
    "kinked": (kinked_quadratic, {"a_neg": (POSITIVE, 0.5), "a_pos": (POSITIVE, 1.5)}),
    "exp": (exp_one_d, {}),
}
# A replication's RNG stream id packs (tag << REP_BITS) | rep, so a group
# holds at most 2**REP_BITS replications before its ids run into the next tag.
REP_BITS = 20


# The --oracle grammar, kind[,key=value]...: kind -> its keys and their kinds.
# A key of the function ``fn`` (v, eps, a) must be one that function takes.
_FUNCTION_KEYS = {"x": NUMBER, "fn": Kind(str, ("auto", *FUNCTIONS)), "v": INTEGER, "eps": POSITIVE, "a": NUMBER}
_CELL_KEYS = {**_FUNCTION_KEYS, "scheme": Kind(str, tuple(SCHEMES)), "noise": Kind(str, NOISE_KINDS),
              "sigma": NONNEGATIVE, "class": Kind(str, FUNCTION_CLASSES)}
_ARM_KEYS = {"x": NUMBER, "v": INTEGER, "eps": POSITIVE, "c1": POSITIVE, "p": NONNEGATIVE, "c2": POSITIVE,
             "q": NONNEGATIVE}
SPEC_KINDS = {"one-point": _CELL_KEYS, "smoothing": _CELL_KEYS, "two-point": _CELL_KEYS, "exact": _FUNCTION_KEYS,
              **{f"adversarial-{c}": _ARM_KEYS for c in PROBLEM_CLASSES}}


def read_oracle_spec(spec: str) -> tuple[str, dict[str, Any]]:
    """The kind of an ``--oracle`` spec and the values of the keys it gives,
    each checked against ``SPEC_KINDS``."""
    kind, *parts = [part.strip() for part in spec.split(",")]
    keys = SPEC_KINDS[Kind(str, tuple(SPEC_KINDS)).check("oracle_spec kind", kind)]
    values: dict[str, Any] = {}
    for part in filter(None, parts):
        key, eq, text = (s.strip() for s in part.partition("="))
        path = f"oracle_spec.{key}"
        if not eq:
            raise ConfigError(f"oracle_spec: expected key=value, got {part!r}")
        if key not in keys:
            raise ConfigError(f"{path}: not a key of {kind} (its keys: {', '.join(keys)})")
        if key in values:
            raise ConfigError(f"{path}: given twice")
        try:
            value = keys[key].read(text)
        except ValueError:
            value = text  # refused below as what it is: text that reads as no number
        values[key] = keys[key].check(path, value)
    if "fn" in keys:
        fn = values.get("fn", "quadratic")
        for key in sorted(values.keys() & {"v", "eps", "a"}):
            if fn == "auto" or key not in FUNCTIONS[fn][1]:
                raise ConfigError(f"oracle_spec.{key}: not a key of the function {fn}")
    return kind, values


DEFAULT_HORIZONS = (1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000)
# The most steps of a run and replies of a probe, so that what either allocates up front stays near
# 1 GB: the kernel's step-size table takes 8 B per step of each schedule (0.8 GB for one at the cap),
# a probe roughly 40 B per reply (0.4 GB).
MAX_STEPS, MAX_REPLIES = 10**8, 10**7
# name -> (kind, default) of each ExperimentConfig field
FIELDS = {
    "experiment": (Kind(str, EXPERIMENTS), "rate"),
    "problem_class": (Kind(str, tuple(PROBLEM_CLASSES)), "convex"),
    "estimator": (Kind(str, tuple(ESTIMATORS)), "smoothing"),
    "noise": (Kind(str, NOISE_KINDS), "uncontrolled"),
    "sigma": (NONNEGATIVE, 1.0),
    "noise_slope": (NONNEGATIVE, 1.0),
    "function": (FunctionSpec(), {"name": "auto"}),  # never changed in place: every config shares it
    "horizons": (Kind(int, lo=1, hi=MAX_STEPS, many=True), DEFAULT_HORIZONS),
    "replications": (COUNT, 16),
    "master_seed": (Kind(int, lo=0), 20260810),
    "out": (Kind(str, null=True), None),
    "workers": (COUNT, 1),
    "tolerance": (POSITIVE, 0.08),
    # lower-bound / regret envelope parameters
    "p": (Kind(float, lo=0, null=True), None),
    "q": (Kind(float, lo=0, null=True), None),
    "c1": (Kind(float, lo=0, strict=True, null=True), None),
    "c2": (Kind(float, lo=0, strict=True, null=True), None),
    "n": (Kind(int, lo=1, hi=MAX_STEPS), 10_000),
    # probe parameters
    "oracle_spec": (Kind(str, null=True), None),
    "delta_grid": (Kind(float, lo=0, strict=True, hi=1, many=True), (0.5, 0.2, 0.1, 0.05)),
    "probe_reps": (Kind(int, lo=32, hi=MAX_REPLIES), 100_000),
}


class ExperimentConfig(Value):
    """Everything a rate/regret/lower-bound/probe run needs, round-trippable
    through JSON without loss: the ``FIELDS`` given by keyword, each other
    field at its default."""

    def __init__(self, **fields: Any):
        unknown = fields.keys() - FIELDS.keys()
        if unknown:
            raise TypeError(f"ExperimentConfig has no field {sorted(unknown)[0]!r}")
        for name, (_, default) in FIELDS.items():
            setattr(self, name, fields.get(name, default))

    def validate(self) -> "ExperimentConfig":
        """Each field checked against its kind and kept as its kind keeps it
        (a list as a tuple), then the rules that tie fields together."""
        for name, (kind, _) in FIELDS.items():
            setattr(self, name, kind.check(name, getattr(self, name)))
        if list(self.horizons) != sorted(set(self.horizons)):
            raise ConfigError("horizons: must be strictly increasing")
        if self.replications > 1 << REP_BITS:
            raise ConfigError(f"replications: at most {1 << REP_BITS}, or stream ids would collide")
        if self.experiment == "probe" and self.workers != 1:
            raise ConfigError("workers: a probe runs on one thread, so must be 1")
        if self.experiment in ("rate", "regret") and len(self.horizons) < FIT_HORIZONS:
            raise ConfigError(f"horizons: a rate is fitted through at least {FIT_HORIZONS}")
        # checked before the run, since the experiment writes out only after it
        if self.out is not None and (not Path(self.out).name or os.path.isdir(self.out)):
            raise ConfigError(f"out: must name a file, not a directory, got {self.out!r}")
        return self

    def to_dict(self) -> dict[str, Any]:
        d = dict(vars(self))
        d["horizons"] = list(self.horizons)
        d["delta_grid"] = list(self.delta_grid)
        return d

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        """The config of the fields ``data`` sets, each value checked
        against its field's kind (``validate``) before anything runs."""
        unknown = set(data) - FIELDS.keys()
        if unknown:
            raise ConfigError(f"{sorted(unknown)[0]}: unknown field")
        return cls(**data).validate()

    def with_overrides(self, **overrides: Any) -> "ExperimentConfig":
        return ExperimentConfig.from_dict({**self.to_dict(), **overrides})


def read_config_file(path: str | Path) -> dict[str, Any]:
    """The fields a JSON config file sets, not yet validated: a caller can
    tell a field the file names from a default.  A file that cannot be read
    is a ``ConfigError`` that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file {path}: cannot be read ({exc.strerror or exc})") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, too many digits or too deeply nested
        raise ConfigError(f"config file: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file: top level must be an object")
    return data
