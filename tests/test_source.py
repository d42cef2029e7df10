import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "pisotdyn").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # invariants raise: an assert vanishes under python -O
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


def test_only_record_stores_fields():
    # Record.__init__ is the one place that knows how a record stores its fields
    users = [path.name for path in SOURCES if "object.__setattr__" in path.read_text()]
    assert users == ["record.py"]


def _names_outside(tree, skip):
    """Every name a module uses, imports or reads as an attribute, outside
    the subtree `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


def test_private_definitions_are_used():
    # a module-level _function or _Class that nothing else in the package
    # names is dead code
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    unused = [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and not any(node.name in _names_outside(other, node) for other in trees.values())
    ]
    assert not unused, f"unreferenced private definitions: {unused}"


def test_exported_names_are_used():
    # a name that pisotdyn exports is dead unless README's code, the
    # acceptance tests or a package module other than __init__ names it
    # outside its own definition
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    exported = [alias.name for node in trees.pop("__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    named = set(re.findall(r"\w+", " ".join(spans)))
    named.update(_names_outside(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()), None))

    def used(name, tree):
        own = next((node for node in tree.body if getattr(node, "name", None) == name), None)
        return name in _names_outside(tree, own)

    dead = [name for name in exported
            if name not in named and not any(used(name, tree) for tree in trees.values())]
    assert not dead, f"exported names that nothing uses: {dead}"


def test_no_module_changes_the_int_digit_limit():
    # cantor prints long fractions through Decimal, which converts an int
    # of any length: no module changes the interpreter's state to print
    hits = [f"{path.name}:{node.lineno}" for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and node.attr == "set_int_max_str_digits"]
    assert not hits, f"set_int_max_str_digits called at {hits}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_the_standard_library(path):
    # the package has no runtime dependency: numpy and the oracles are test-only
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0]
    foreign = [m for m in modules
               if m.split(".")[0] not in sys.stdlib_module_names | {"pisotdyn"}]
    assert not foreign, f"{path.name} imports {foreign}"


def test_project_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert "dependencies" not in project


def test_console_script_is_the_module_entry():
    # the installed `pisotdyn` ends the process as `python -m pisotdyn.cli` does
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, function = scripts["pisotdyn"].partition(":")
    assert module == "pisotdyn.cli"
    tree = ast.parse((ROOT / "src" / "pisotdyn" / "cli.py").read_text())
    (main_block,) = [node for node in tree.body if isinstance(node, ast.If)
                     and ast.unparse(node.test) == "__name__ == '__main__'"]
    calls = [node.func.id for node in ast.walk(main_block) if isinstance(node, ast.Call)]
    assert calls == [function]


def test_precision_doubles_in_one_place():
    # RootBracket.mantissas is the one precision driver: every reader of
    # lambda's dyadic bounds loops over it instead of doubling P itself
    hits = [path.name for path in SOURCES for _ in range(path.read_text().count("bits *= 2"))]
    assert hits == ["algebraic.py"]
    source = (ROOT / "src" / "pisotdyn" / "algebraic.py").read_text()
    (bracket,) = [node for node in ast.parse(source).body
                  if isinstance(node, ast.ClassDef) and node.name == "RootBracket"]
    (driver,) = [node for node in bracket.body
                 if isinstance(node, ast.FunctionDef) and node.name == "mantissas"]
    assert "bits *= 2" in ast.get_source_segment(source, driver)


def test_cantor_digit_loops_are_integer():
    # crystal's digit loops carry an integer over a known denominator and
    # build one Fraction at the return: no loop names Fraction or floors
    source = (ROOT / "src" / "pisotdyn" / "crystal.py").read_text()
    loops = [node for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.For, ast.While))]
    assert loops
    hits = [loop.lineno for loop in loops for node in ast.walk(loop)
            if isinstance(node, ast.Name) and node.id == "Fraction"
            or isinstance(node, ast.Attribute) and ast.unparse(node) == "math.floor"]
    assert not hits, f"crystal.py: Fraction or math.floor in the loops on lines {hits}"


def test_the_power_iteration_repeats_its_own_cycle():
    # normalized_iterates repeats the float 2-cycle it reaches: no reader of
    # the iterates pads or rebuilds it
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    imports = [name for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.alias) and node.name == "cycle"]
    assert imports == ["algebraic.py"]
    uses = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "cycle"
            or isinstance(node, ast.Attribute) and node.attr == "cycle"]
    (iterates,) = [node for node in trees["algebraic.py"].body
                   if isinstance(node, ast.FunctionDef) and node.name == "normalized_iterates"]
    inside = set(map(id, ast.walk(iterates)))
    outside = [(name, node.lineno) for name, node in uses if id(node) not in inside]
    assert uses and not outside, f"cycle used outside normalized_iterates: {outside}"


@pytest.mark.parametrize("module, name", [("geometry.py", "substitution_spacing"),
                                          ("quantum.py", "quantum_spacing_simulate")])
def test_the_walk_alone_reduces_beta(module, name):
    # geometry._driven_angles reduces beta0 and beta1 once; the spacing
    # procedures that call it do no arithmetic mod 2*pi
    tree = ast.parse((ROOT / "src" / "pisotdyn" / module).read_text())
    (function,) = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == name]
    hits = [node.lineno for node in ast.walk(function)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod)]
    assert not hits, f"{module}: % in {name} on lines {hits}"
