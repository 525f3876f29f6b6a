"""Pass/fail verdicts: every bound an experiment or a check tests is one
``Verdict``, built by ``verdict``, so a value or bound that is not finite
fails the same way everywhere and each run records the margin it passed by."""

from __future__ import annotations

import math
from typing import NamedTuple

# relation -> (the value must stay below the bound, the relation is strict)
RELATIONS = {"<=": (True, False), "<": (True, True), ">=": (False, False)}


class Verdict(NamedTuple):
    """``value relation bound``, tested: ``margin`` is how far the value sits
    inside the bound (bound - value for ``<=`` and ``<``, value - bound for
    ``>=``), negative on the wrong side."""

    what: str
    value: float
    relation: str
    bound: float
    margin: float
    passed: bool


def verdict(what: str, value, relation: str, bound) -> Verdict:
    """The verdict on ``value relation bound``.  It fails where the value or
    the bound is not finite, whatever the relation."""
    value, bound = float(value), float(bound)
    below, strict = RELATIONS[relation]
    margin = bound - value if below else value - bound
    held = margin > 0.0 if strict else margin >= 0.0  # for finite floats, exactly the relation itself
    return Verdict(what, value, relation, bound, margin, math.isfinite(value) and math.isfinite(bound) and held)


def require(what: str, value, relation: str, bound) -> Verdict:
    """``verdict(...)``, raising the check suite's ``AssertionError``, which
    names the quantity, its value, the relation and the bound, when it fails."""
    v = verdict(what, value, relation, bound)
    if not v.passed:
        raise AssertionError(f"{what} = {v.value:.4g}, not {relation} {v.bound:.4g}")
    return v
