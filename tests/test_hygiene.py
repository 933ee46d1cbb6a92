"""Static checks on the package sources, in place of a linter.

Each module under src/relhpe (the package __init__ re-exports and is
skipped) must use every name it imports, and must not reach into another
module's private (single-underscore) names, and must use every private
name it defines at module level.  The README's library table must name
only what its modules define.  The stdlib-only modules import nothing
else when they are imported.
"""

import ast
import importlib
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "relhpe"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _imports(tree):
    """(bound name, imported module-or-name, is a module, node) per alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.name, True, node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                # "from . import reports" binds a module; "from .x import y" a name
                yield alias.asname or alias.name, alias.name, node.module is None, node


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted({bound for bound, _, _, _ in _imports(tree)} - used)
    assert not unused, f"{path.name}: unused imports: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_reach(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()
    reaches = []
    for bound, name, is_module, node in _imports(tree):
        if is_module:
            modules.add(bound)
        elif _private(name):
            reaches.append(f"line {node.lineno}: imports {name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reaches.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    assert not reaches, f"{path.name}: private cross-module reach: {reaches}"


def _module_level_names(tree):
    """(name, line) per name a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    """A private module-level name is private to its module (see above), so
    one that the module never loads is dead code."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    dead = [f"line {line}: {name}" for name, line in _module_level_names(tree)
            if _private(name) and name not in loaded]
    assert not dead, f"{path.name}: private names never used: {dead}"


def _readme_library_rows():
    """(module, backticked identifiers) per `relhpe.<module>` table row."""
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`relhpe."):
            names = [n for n in cells[2].split("`")[1::2] if n.isidentifier()]
            yield cells[1].strip().strip("`"), names


@pytest.mark.parametrize("module, names", [
    pytest.param(module, names, id=module)
    for module, names in _readme_library_rows()])
def test_readme_library_table_names_exist(module, names):
    """Each name is an attribute of the module or of a class it defines, or
    a string in one of its module-level tuples (such as POLICY_KINDS)."""
    mod = importlib.import_module(module)
    known = set(dir(mod))
    for value in vars(mod).values():
        if isinstance(value, type) and value.__module__ == module:
            known.update(dir(value))
        elif isinstance(value, tuple):
            known.update(v for v in value if isinstance(v, str))
    stale = [n for n in names if n not in known]
    assert not stale, f"README names missing from {module}: {stale}"


# The modules that load only the standard library, so that `report` and
# `loss` run without numpy: each may import, when it is itself imported,
# only standard-library modules and other modules of this list.
STDLIB_ONLY = ("camera", "cli", "errors", "losses", "reports", "rotation",
               "rows", "vocab")


def _import_time_imports(body):
    """(module, line) per import that runs when a module is imported: in
    its top-level statements and class bodies, not in function bodies or
    `if TYPE_CHECKING:` blocks.  A relative module is '.name'."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module, node.lineno
            elif node.module is None:  # from . import name
                for alias in node.names:
                    yield "." + alias.name, node.lineno
            else:
                yield "." + node.module, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _import_time_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _import_time_imports(getattr(node, field, []))


@pytest.mark.parametrize("name", STDLIB_ONLY)
def test_stdlib_only_modules_import_no_numpy(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    bad = [f"line {line}: {module}"
           for module, line in _import_time_imports(tree.body)
           if not (module.split(".")[0] in sys.stdlib_module_names
                   or module[1:] in STDLIB_ONLY)]
    assert not bad, f"{name}.py imports more than the standard library: {bad}"
