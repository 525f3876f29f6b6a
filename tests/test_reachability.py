"""Static reachability: every function and class that ``src/zograd`` defines
is named somewhere else in the code that runs it, or is on an allowlist
that says why it stays."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays, though nothing in src/, scripts/ or perfbench/ names it
UNREACHED = {
    "kl_divergence_bound": "the lower-bound JSON is to report it (ROADMAP item 4)",
    "bias_slope": "acceptance criterion 05 fits the probe bias slope with it",
    "variance_slope": "acceptance criterion 05 fits the probe variance slope with it",
}


def _definitions() -> Counter:
    """How many times src/zograd defines each function or class name at any
    depth, dunder methods left out: the interpreter calls those."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = (node for path in sorted((ROOT / "src" / "zograd").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())))
    return Counter(node.name for node in nodes
                   if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__")))


def _code() -> str:
    """The source of src/, scripts/ and perfbench/: Python, C, and the JSON
    that names what a traced benchmark pass binds; no build or run output."""
    outputs = {"__pycache__", ".work", "out"}
    paths = (p for top in ("src", "scripts", "perfbench") for p in sorted((ROOT / top).rglob("*"))
             if p.suffix in (".py", ".c", ".json") and not outputs & set(p.relative_to(ROOT).parts))
    return "\n".join(p.read_text() for p in paths)


def test_every_definition_is_named_elsewhere_or_allowed():
    words = Counter(re.findall(r"\w+", _code()))
    unreached = sorted(name for name, defined in _definitions().items() if words[name] <= defined)
    assert unreached == sorted(UNREACHED)
