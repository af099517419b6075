"""The library's surface: no orphaned definitions, and `__all__` resolves.

Every top-level function and class, and every method that is not a dunder,
defined in `src/fqlattice/` must be referenced somewhere in `src/` or
`tests/` outside its own definition.  References are read with `ast`:
a name that is loaded, an attribute, or a string constant that is exactly
the name or a dotted path ending in it (as in
`monkeypatch.setattr(module, "name", ...)`).  Imports, docstrings and the
strings of `__all__` do not count: exporting a name does not use it.
Attributes cannot be resolved statically, so a method counts as referenced
when any attribute of its spelling is.

A definition that only tests reference is an oracle or a fixture, and must be
listed in TEST_ONLY with the reason it is kept; an entry that `src/` now uses
is stale and fails too.
"""

import ast
import importlib.util
from pathlib import Path

import fqlattice
from fqlattice import cfrac, field, lattice, laurent

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fqlattice"

# module.qualname -> why the library keeps a definition no src/ code calls
TEST_ONLY = {
    "cfrac.artin_step": "the Gauss-map step that cf_expand must iterate",
    "cfrac.penultimate_ratio": ("defines the cfe statistic that the DP's cfe keys are "
                                "checked against; the perfbench tracer patches it"),
    "cfrac.is_convergent": "characterizes the convergents by approximation quality",
    "field.Ideal.unit": "the public constructor of the unit ideal; tests build fixtures with it",
    "haar.sharp_hemisphere_mass": "the two hemisphere masses must sum to sphere_mass",
    "haar.nonsharp_hemisphere_mass": "the two hemisphere masses must sum to sphere_mass",
    "haar.kernel_ball_measure": "the inverse of sl2_order_mod, closed form against census",
    "haar.Mat2.is_integral": "checks the factors that refined_lu returns",
    "harness._tree_block": "the node-by-node oracle of the transfer DP",
    "lattice.SphereCell.measure": "the sphere cells must add up to sphere_mass",
    "lattice.DomainCell.measure": "the domain cells must add up to quotient_mass",
    "lattice.SphereCell.contains_plane": "membership by expansion digits, against cell digits",
    "laurent.direction": "the rescaled direction digits, against the cell digits",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """(module.qualname, file, node) for every top-level def and class and
    every non-dunder method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        yield f"{path.stem}.{node.name}.{item.name}", path, item


def _exported(tree):
    """ids of the nodes inside `__all__ = [...]` assignments."""
    return {id(n) for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for n in ast.walk(node.value)}


def _references():
    """name -> [(file, line)] over src/ and tests/."""
    refs = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        tree = _parse(path)
        exported = _exported(tree)
        for node in ast.walk(tree):
            if id(node) in exported:
                continue
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


def _outside_references():
    """(module.qualname, file, node, references outside the definition)."""
    refs = _references()
    for qualname, path, node in _definitions():
        outside = [(p, line) for p, line in refs.get(node.name, ())
                   if not (p == path and node.lineno <= line <= node.end_lineno)]
        yield qualname, path, node, outside


def test_every_definition_is_referenced():
    orphans = [f"{path.relative_to(ROOT)}:{node.lineno} {qualname}"
               for qualname, path, node, outside in _outside_references()
               if not outside]
    assert not orphans, "defined but referenced nowhere else:\n" + "\n".join(orphans)


def test_test_only_definitions_are_listed():
    src = ROOT / "src"
    test_only = {qualname for qualname, _, _, outside in _outside_references()
                 if outside and not any(p.is_relative_to(src) for p, _ in outside)}
    unlisted = sorted(test_only - TEST_ONLY.keys())
    stale = sorted(TEST_ONLY.keys() - test_only)
    assert not unlisted, "only tests reference these; list them in TEST_ONLY:\n" + "\n".join(unlisted)
    assert not stale, "TEST_ONLY entries that src/ uses or no longer defines:\n" + "\n".join(stale)


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


def _traced():
    """Four of the names the perfbench tracer wraps, one per kind of patch."""
    return (laurent.RationalFn.__dict__["expand"], lattice.solution_statistic,
            cfrac.penultimate_ratio, field.Poly.__dict__["__divmod__"])


def test_perfbench_tracer_installs():
    # the benchmark's tracer patches library names by spelling; a rename or
    # deletion under src/ must fail here, not only inside a benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    originals = _traced()
    tracer = module.Tracer()
    try:
        tracer.install()
        assert all(p.__wrapped__ is o for p, o in zip(_traced(), originals))
    finally:
        tracer.uninstall()
    assert _traced() == originals
