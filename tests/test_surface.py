"""The library's surface: no orphaned definitions, and the layering holds.

Every top-level function and class, and every method that is not a dunder,
defined in `src/fqlattice/` must be referenced somewhere in `src/` or
`tests/` outside its own definition.  References are read with `ast`:
a name that is loaded, an attribute, or a string constant that is exactly
the name or a dotted path ending in it (as in
`monkeypatch.setattr(module, "name", ...)`); imports and docstrings do not
count.  A method is only ever reached through an attribute, so for a method
a loaded bare name (a local such as `mul = field.mul_t`) does not count.
Attributes cannot be resolved statically, so a method counts as referenced
when any attribute of its spelling is: `DomainCell.contains` hides behind
`Ideal.contains` that way.

A definition that only tests reference is an oracle or a fixture, and must be
listed in TEST_ONLY with the reason it is kept; an entry that `src/` now uses
is stale and fails too.

The modules are layered as in LAYERS: importing one loads only the ones
before it, and the package root, which re-exports nothing, loads none.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fqlattice
from fqlattice import cfrac, field, harness, lattice, laurent

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fqlattice"
LAYERS = ("field", "laurent", "haar", "lattice", "cfrac", "harness", "cli")

# module.qualname -> why the library keeps a definition no src/ code calls
TEST_ONLY = {
    "cfrac.artin_step": "the Gauss-map step that cf_expand must iterate",
    "cfrac.penultimate_ratio": ("defines the cfe statistic that the DP's cfe keys are "
                                "checked against; the perfbench tracer patches it"),
    "cfrac.is_convergent": "characterizes the convergents by approximation quality",
    "field.poly_from_text": ("the public reader of polynomial text; validate_config reads "
                             "the --ideal terms once and builds them with poly_from_terms"),
    "haar.sharp_hemisphere_mass": "the two hemisphere masses must sum to sphere_mass",
    "haar.nonsharp_hemisphere_mass": "the two hemisphere masses must sum to sphere_mass",
    "haar.Mat2.is_integral": "checks the factors that refined_lu returns",
    "harness._tree_block": "the node-by-node oracle of the transfer DP",
    "lattice.SphereCell.measure": "the sphere cells must add up to sphere_mass",
    "lattice.DomainCell.measure": "the domain cells must add up to quotient_mass",
    "lattice.SphereCell.contains_plane": ("membership by the expansion digits of v itself, "
                                          "shifted by its norm exponent instead of rescaled, "
                                          "against cell digits and against box_cell"),
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


def _references():
    """name -> [(file, line, whether it is a bare name)] over src/ and tests/."""
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
            refs.setdefault(name, []).append((path, node.lineno, isinstance(node, ast.Name)))
    return refs


def _outside_references():
    """(module.qualname, file, node, references outside the definition)."""
    refs = _references()
    for qualname, path, node in _definitions():
        method = qualname.count(".") == 2
        outside = [(p, line) for p, line, bare in refs.get(node.name, ())
                   if not (method and bare)
                   and not (p == path and node.lineno <= line <= node.end_lineno)]
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


def _loaded_by(statement):
    """The modules that `statement` adds to sys.modules in a fresh interpreter."""
    # the child imports the same fqlattice as this process
    src = str(Path(fqlattice.__file__).resolve().parents[1])
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              f"{statement}\n"
              "print(*sorted(set(sys.modules) - before))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("depth,name", enumerate(
    ["fqlattice"] + [f"fqlattice.{m}" for m in LAYERS]))
def test_a_module_loads_only_the_layers_below_it(depth, name):
    loaded = {m for m in _loaded_by(f"import {name}") if m.split(".")[0] == "fqlattice"}
    assert loaded == {"fqlattice"} | {f"fqlattice.{m}" for m in LAYERS[:depth]}


def test_field_loads_no_json_or_fractions():
    assert not {"json", "fractions"} & _loaded_by("import fqlattice.field")


def test_cli_loads_no_json():
    # to_json imports it in its own call, so a CSV run never pays for it
    assert "json" not in _loaded_by("import fqlattice.cli")


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


def test_harness_reads_no_clock_and_no_file():
    # a run computes its report; timing it and writing it are the CLI's work
    found = []
    for node in ast.walk(_parse(PACKAGE / "harness.py")):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [f"{n} at line {node.lineno}" for n in names
                  if n.split(".")[0] in ("os", "pathlib", "time")]
    assert not found, "harness imports:\n" + "\n".join(found)


def test_one_version_string():
    # pyproject.toml reads the version from fqlattice.__version__, which
    # every report's build line stamps; it holds no literal of its own
    tomllib = pytest.importorskip("tomllib")
    text = (ROOT / "pyproject.toml").read_text()
    project = tomllib.loads(text)
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "fqlattice.__version__"}
    assert fqlattice.__version__ not in text


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


@pytest.mark.parametrize("kind", ["count", "joint", "cfe", "verify", "bijection"])
def test_runners_are_the_module_functions(kind):
    # the perfbench tracer swaps each wrapped runner for its wrapper wherever
    # the function object is bound; a wrapped or rebuilt RUNNERS entry would
    # keep its calls out of harness.runner.self_s
    assert harness.RUNNERS[kind] is getattr(harness, f"run_{kind}")
