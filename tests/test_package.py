"""The package's public names, and what in ``src/`` a command or benchmark reaches."""

import ast
import re
from pathlib import Path

import finsler

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "finsler"


def test_every_exported_name_resolves():
    # a deleted definition must not leave its name behind in __all__
    assert len(set(finsler.__all__)) == len(finsler.__all__)
    assert [name for name in finsler.__all__ if not hasattr(finsler, name)] == []


def _identifiers(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_src_definition_is_reached():
    # Roots: the CLI entry point, the names module-level statements use (the
    # dispatch tables) and every identifier in bench/, whose tracer names its
    # targets in strings. Reaching a name follows the identifiers in the body
    # of every top-level definition of that name; a definition nothing reaches
    # is code only tests call: an oracle belongs in tests/oracles.py, a repeat
    # of a production route nowhere.
    defs = {}
    roots = {"main"}
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if path.name != "__init__.py":
                    defs.setdefault(stmt.name, []).append((path.stem, stmt))
            else:
                roots.update(_identifiers(stmt))
    for path in sorted((ROOT / "bench").glob("*.py")):
        roots.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))

    reached, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, stmt in defs[name]:
            todo.extend(n for n in _identifiers(stmt) if n in defs)
    unreached = sorted(f"{module}.{name}" for name, entries in defs.items()
                       if name not in reached for module, _ in entries)
    assert unreached == [], f"definitions no command or benchmark reaches: {unreached}"
