"""Every function in the library is used somewhere.

A top-level function or a method defined in `src/ispaces/` must be
referenced in `src/`, `tests/` or `perfbench/` outside its own definition:
by name or import for a function, by attribute for either, or as a string
(`perfbench` looks functions up by name).  Dunder methods and the console
entry point `cli.main` are exempt.  The check uses the standard `ast` module
only.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {("cli.py", "main")}


def _definitions():
    for path in sorted((ROOT / "src" / "ispaces").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path, None, node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield path, node.name, sub


def _references():
    """(path, line, name, is_attribute_or_string) of every possible use."""
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    yield path, node.lineno, node.id, False
                elif isinstance(node, ast.alias):
                    yield path, node.lineno, node.name, False
                elif isinstance(node, ast.Attribute):
                    yield path, node.lineno, node.attr, True
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    yield path, node.lineno, node.value, True


def test_every_function_is_referenced():
    uses = {}
    for path, line, name, loose in _references():
        uses.setdefault(name, []).append((path, line, loose))
    unused = []
    for path, cls, node in _definitions():
        name = node.name
        if (name.startswith("__") and name.endswith("__")) or (path.name, name) in EXEMPT:
            continue
        outside = [
            (p, line) for p, line, loose in uses.get(name, ())
            if (loose or cls is None)
            and not (p == path and node.lineno <= line <= node.end_lineno)
        ]
        if not outside:
            unused.append(f"{path.name}:{node.lineno} {cls + '.' if cls else ''}{name}")
    assert not unused, "defined but never referenced: " + ", ".join(unused)
