"""Static checks on the package's imports and exports (stdlib only; no
linter is installed): every imported name is used, every name listed in
``__all__`` exists, and no module reads another's private names."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "groundbem"
MODULES = sorted(PACKAGE.glob("*.py"))
# The package init imports names to re-export them.
IMPLEMENTATION = [p for p in MODULES if p.name != "__init__.py"]


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _imported(tree, lines):
    """(bound name, line) of every import a linter would flag if unused;
    ``__future__`` imports and lines marked ``# noqa: F401`` are skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            yield name, node.lineno


def _used(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", IMPLEMENTATION, ids=lambda p: p.name)
def test_no_unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = _used(tree) | set(_all_names(tree))
    unused = [
        f"{name} (line {line})"
        for name, line in _imported(tree, source.splitlines())
        if name not in used
    ]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_exist(path):
    module = importlib.import_module(f"groundbem.{path.stem}".removesuffix(".__init__"))
    missing = [n for n in _all_names(ast.parse(path.read_text())) if not hasattr(module, n)]
    assert not missing, f"{path.name}: __all__ names not defined: {missing}"


def _module_private_names(tree):
    """Private names a module binds at top level: functions, classes and
    assigned constants starting with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id


def _references(tree):
    """Every name a module reads: loaded names, attribute names and the
    names it imports from other modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_dead_private_names():
    # a module-level private name that nothing in the package reads is
    # leftover code (a helper whose caller was removed)
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    read = {name for tree in trees.values() for name in _references(tree)}
    dead = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _module_private_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert not dead, f"unreferenced private names: {dead}"


def _private_sibling_reads(tree):
    """(name, line) of every private name a module takes from a sibling:
    imported from it, or read as an attribute of it after ``from . import``."""
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield alias.name, node.lineno
                if not node.module:
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            yield f"{node.value.id}.{node.attr}", node.lineno


def test_no_private_imports_across_modules():
    # a module uses another only through its public names; reading a
    # private one ties the two together behind the module's interface
    found = [
        f"{path.name}: {name} (line {line})"
        for path in MODULES
        for name, line in _private_sibling_reads(ast.parse(path.read_text()))
    ]
    assert not found, f"private names read from sibling modules: {found}"


# The package's one output path: JSON and CSV through experiments'
# writers, meshes through their own text format.
WRITERS = {"write_json", "write_csv", "save_mesh"}


def _write_calls(node, func=None):
    """(enclosing function, line) of every call that opens a file for
    writing: ``open`` or ``.open`` with a mode other than a constant
    read mode, and ``.write_text`` / ``.write_bytes``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _write_calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
            if name == "open":
                mode = child.args[1] if len(child.args) > 1 else next(
                    (k.value for k in child.keywords if k.arg == "mode"), ast.Constant("r")
                )
                reads = isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")
                if not reads:
                    yield func, child.lineno
            elif name in ("write_text", "write_bytes"):
                yield func, child.lineno
        yield from _write_calls(child, func)


def test_files_are_written_only_by_the_writers():
    found = [
        f"{path.name}: {func} (line {line})"
        for path in MODULES
        for func, line in _write_calls(ast.parse(path.read_text()))
        if func not in WRITERS
    ]
    assert not found, f"files opened for writing outside {sorted(WRITERS)}: {found}"
