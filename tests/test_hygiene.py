"""Static checks on the package sources, in place of a linter.

Each module under src/relhpe (the package __init__ re-exports and is
skipped) must use every name it imports, and must not reach into another
module's private (single-underscore) names, and must use every private
name it defines at module level; a public one must be exported by the
package or used somewhere in the sources.  The README's library table
must name only what its modules define.  The stdlib-only modules import
nothing else when they are imported.  No module imports dataclasses,
importing the package compiles no generated code, commands that hash
nothing load no hashlib, and `eval` loads no numpy.  In the CLI, only main resolves settings and
creates the output directory, and only _write_report builds a report
envelope.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from relhpe import reports

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


def test_no_unused_public_names():
    """A public module-level name that the package does not export and no
    module uses is dead code.  A use is a loaded name, an attribute, an
    imported name or a string (reports.FILES names its builders by string)."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py")}
    exported = set(importlib.import_module("relhpe").__all__)
    used = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                used.update(alias.name for alias in n.names)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.add(n.value)
    dead = [f"{name} (line {line}): {n}"
            for name, tree in sorted(trees.items()) if name != "__init__.py"
            for n, line in _module_level_names(tree)
            if not _private(n) and n not in exported | used]
    assert not dead, f"public names never exported or used: {dead}"


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


# The modules that load only the standard library, so that `report`,
# `loss` and `eval` run without numpy: each may import, when it is itself
# imported, only standard-library modules and other modules of this list.
STDLIB_ONLY = ("camera", "cli", "errors", "losses", "records", "reports",
               "rotation", "rows", "scoring", "tables", "vocab")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    """The record classes subclass records.Record, which generates no code
    when a module is imported; dataclass would."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [f"line {node.lineno}" for _, name, _, node in _imports(tree)
             if "dataclasses" in (name.split(".")[0], getattr(node, "module", None))]
    assert not found, f"{path.name} imports dataclasses: {found}"


def test_importing_the_package_compiles_no_code():
    """Importing every module of the package, with numpy already loaded,
    compiles no string of source (an audit hook counts the 'compile'
    events of '<string>', as exec of generated methods makes them)."""
    names = ["relhpe"] + [f"relhpe.{p.stem}" for p in MODULES]
    script = (
        "import importlib, sys\n"
        "import numpy\n"
        "compiled = []\n"
        "sys.addaudithook(lambda event, args: compiled.append(args[1])\n"
        "                 if event == 'compile' and args[1] == '<string>' else None)\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "print(len(compiled))\n")
    assert _python(script) == "0"


def _python(script):
    """The last line that script prints, run by this interpreter in a fresh
    process with the package's sources first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_cli_and_report_load_no_hashlib(tmp_path):
    """Importing the CLI and a `report` run hash nothing, so neither loads
    hashlib (reports.file_sha256 imports it when it is called)."""
    source = tmp_path / "eval.json"
    source.write_text(json.dumps(reports.envelope(
        "eval", {}, 0, {}, {"e": {"yaw_mae": 1.0, "pitch_mae": 2.0,
                                  "roll_mae": 3.0, "mae": 2.0,
                                  "geodesic_mae": 4.0, "n": 1}})))
    script = (
        "import sys\n"
        "hashing = lambda: sorted({'hashlib', '_hashlib'} & set(sys.modules))\n"
        "from relhpe.cli import main\n"
        "imported = hashing()\n"
        f"status = main(['--out', {str(tmp_path)!r}, 'report', {str(source)!r}])\n"
        "print(imported, hashing(), status)\n")
    assert _python(script) == "[] [] 0"
    assert (tmp_path / "eval.csv").read_text().startswith("estimator,n,")


def test_eval_loads_no_numpy(tmp_path):
    """An `eval` run reads and scores its pair set through scoring, which
    loads only the standard library, so numpy is never imported."""
    from relhpe.cli import main
    log = tmp_path / "simulated_poselog.csv"
    assert main(["--out", str(tmp_path), "simulate", "--subjects", "1",
                 "--frames-per-log", "20"]) == 0
    assert main(["--out", str(tmp_path), "pairs", str(log), "--n-pairs", "10"]) == 0
    preds = tmp_path / "preds.csv"
    preds.write_text("".join(  # each frame's id and pose, as its prediction
        ",".join([cells[1], *cells[3:]]) + "\n"
        for cells in (line.split(",") for line in log.read_text().splitlines()[1:])))
    argv = ["--out", str(tmp_path / "e"), "eval", str(log),
            str(tmp_path / "pairs_subj000.csv"), str(preds)]
    script = ("import sys\n"
              "from relhpe.cli import main\n"
              f"status = main({argv!r})\n"
              "print(status, 'numpy' in sys.modules)\n")
    assert _python(script) == "0 False"
    assert json.loads((tmp_path / "e" / "eval.json").read_text())[
        "payload"]["external"]["n"] == 10


# The CLI's one command runner: the call in cli.py -> the functions that
# alone may make it.  main resolves settings and creates --out before a
# command runs; _write_report builds every report's envelope and writes
# it, and cmd_report re-emits a CSV from an envelope it read.
CLI_RUNNER_CALLS = {"_settings": {"main"}, "os.makedirs": {"main"},
                    "reports.envelope": {"_write_report"},
                    "reports.write_report": {"_write_report", "cmd_report"}}


def test_cli_has_one_command_runner():
    """Only the functions CLI_RUNNER_CALLS names make those calls, and no
    cmd_* function returns a value (main returns the exit status)."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    bad = []
    for stmt in tree.body:
        name = getattr(stmt, "name", "module level")
        for n in ast.walk(stmt):
            if (isinstance(n, ast.Call) and name not in
                    CLI_RUNNER_CALLS.get(ast.unparse(n.func), {name})):
                bad.append(f"line {n.lineno}: {name} calls {ast.unparse(n.func)}")
            elif (isinstance(n, ast.Return) and n.value is not None
                    and name.startswith("cmd_")):
                bad.append(f"line {n.lineno}: {name} returns a value")
    assert not bad, f"cli.py: outside the one command runner: {bad}"
