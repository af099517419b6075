"""The library's surface: no orphaned definitions, and `__all__` resolves.

Every top-level function and class, and every method that is not a dunder,
defined in `src/fqlattice/` must be referenced somewhere in `src/` or
`tests/` outside its own definition.  References are read with `ast`:
a name that is loaded, an attribute, or a string constant that is exactly
the name or a dotted path ending in it (as in
`monkeypatch.setattr(module, "name", ...)`).  Imports and
docstrings do not count.  Attributes cannot be resolved statically, so a
method counts as referenced when any attribute of its spelling is.
"""

import ast
from pathlib import Path

import fqlattice

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fqlattice"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """(name, file, node) for every top-level def and class and every
    non-dunder method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        yield item.name, path, item


def _references():
    """name -> [(file, line)] over src/ and tests/."""
    refs = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and all(part.isidentifier() for part in node.value.split("."))):
                name = node.value.rsplit(".", 1)[-1]
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_definition_is_referenced():
    refs = _references()
    orphans = []
    for name, path, node in _definitions():
        outside = [(p, line) for p, line in refs.get(name, ())
                   if not (p == path and node.lineno <= line <= node.end_lineno)]
        if not outside:
            orphans.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not orphans, "defined but referenced nowhere else:\n" + "\n".join(orphans)


def test_all_names_resolve():
    missing = [name for name in fqlattice.__all__ if not hasattr(fqlattice, name)]
    assert not missing
    assert len(set(fqlattice.__all__)) == len(fqlattice.__all__)


def test_no_dataclasses_import():
    # `import dataclasses` pulls in inspect, ast, dis and tokenize on every
    # cold start; the value classes are NamedTuples or plain classes
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, "imports dataclasses:\n" + "\n".join(found)
