"""Static reachability: every function and class that ``src/zograd`` defines
is named somewhere else in the code that runs it, or is on an allowlist
that says why it stays, and every entry point of the lane library that
``src/zograd`` binds is read there."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays, though nothing in src/, scripts/ or perfbench/ names it
UNREACHED = {
    "kl_divergence_bound": "the lower-bound JSON is to report it (ROADMAP item 4)",
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


def test_every_library_binding_is_read_in_src():
    # each entry point _lanes._Library.__init__ declares, self.<name>, is
    # read as an attribute, .<name>, somewhere in src/ outside that method
    lanes = ast.parse((ROOT / "src" / "zograd" / "_lanes.py").read_text())
    library = next(node for node in lanes.body if isinstance(node, ast.ClassDef) and node.name == "_Library")
    init = next(node for node in library.body if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    bound = {node.targets[0].attr for node in ast.walk(init) if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "_declare"}
    inside = {id(node) for node in ast.walk(init)}
    read = {node.attr for path in sorted((ROOT / "src" / "zograd").rglob("*.py"))
            for node in ast.walk(lanes if path.name == "_lanes.py" else ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in inside}
    assert {"run", "probe", "seed"} <= bound
    assert sorted(bound - read) == []
