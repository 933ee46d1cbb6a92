"""Static checks on the package sources, in place of a linter.

Each module under src/relhpe (the package __init__ re-exports and is
skipped) must use every name it imports, and must not reach into another
module's private (single-underscore) names, and must use every private
name it defines at module level; a public one must be exported by the
package or used somewhere in the sources.  The README's library table
must name only what its modules define.  The stdlib-only modules import
nothing else when they are imported.  No module imports dataclasses,
importing the package compiles no generated code, commands that hash
nothing load no hashlib, `eval`, `simulate` and relhpe.evaluate load no
numpy, `pairs` no numpy.random, and `sweep` only the package modules it
runs.  numpy's SeedSequence and PCG64 constants and the SeedSequence
hash are written only in sampling, and a query's noise-stream key is
hashed only in simulate._seed_states.  In the CLI, only main resolves
settings, no function creates the output directory (reports.write_files
does, when it writes), and only _write_report builds a report envelope.
Files are staged under a '.tmp' name, directories made and files moved
into place only in reports.write_files.  The canonical pose-log format's
row widths are written only in tables.  `pairs` and `sweep` read their log
through harness.canonical_logs, one PoseLog at a time.
"""

import ast
import importlib
import json
import os
import pathlib
import re
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


# a library-table row: the module, then text that may itself hold a '|'
_LIBRARY_ROW = re.compile(r"\| `(relhpe\.\w+)` \| (.*) \|")


def _library_row(line):
    """(module, backticked identifiers) of a README library-table row, or
    None for a line that does not parse as one."""
    match = _LIBRARY_ROW.fullmatch(line.strip())
    if match is None:
        return None
    return match[1], [n for n in match[2].split("`")[1::2] if n.isidentifier()]


def _readme_library_rows():
    """(module, names) per README line that starts a `relhpe.<module>`
    table row; names is None for a line that does not parse."""
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("| `relhpe."):
            yield _library_row(line) or (line[:40], None)


def test_library_row_parser_keeps_text_with_a_pipe():
    assert _library_row("| `relhpe.rotation` | `quat_euler_deg` (`gimbal_lock` "
                        "when |pitch| >= 89) |") == (
        "relhpe.rotation", ["quat_euler_deg", "gimbal_lock"])
    assert _library_row("| `relhpe.rotation` `quat_euler_deg` |") is None


@pytest.mark.parametrize("module, names", [
    pytest.param(module, names, id=module)
    for module, names in _readme_library_rows()])
def test_readme_library_table_names_exist(module, names):
    """Each name is an attribute of the module or of a class it defines, or
    a string in one of its module-level tuples (such as POLICY_KINDS)."""
    assert names is not None, f"README row does not parse: {module!r}..."
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
# `loss`, `eval` and `simulate` run without numpy: each may import, when it
# is itself imported, only standard-library modules and other modules of
# this list.
STDLIB_ONLY = ("camera", "cli", "errors", "losses", "records", "reports",
               "rotation", "rows", "sampling", "scoring", "tables", "vocab")


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


def _modules_after(argv):
    """The names of the modules a fresh process holds after main(argv),
    which must exit 0."""
    script = ("import json, sys\n"
              "from relhpe.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    return set(json.loads(_python(script)))


def _simulated_log(tmp_path, frames=20):
    from relhpe.cli import main
    assert main(["--out", str(tmp_path), "simulate", "--subjects", "1",
                 "--frames-per-log", str(frames)]) == 0
    return tmp_path / "simulated_poselog.csv"


def test_eval_loads_no_numpy(tmp_path):
    """An `eval` run reads and scores its pair set through scoring, which
    loads only the standard library, so numpy is never imported."""
    from relhpe.cli import main
    log = _simulated_log(tmp_path)
    assert main(["--out", str(tmp_path), "pairs", str(log), "--n-pairs", "10"]) == 0
    preds = tmp_path / "preds.csv"
    preds.write_text("".join(  # each frame's id and pose, as its prediction
        ",".join([cells[1], *cells[3:]]) + "\n"
        for cells in (line.split(",") for line in log.read_text().splitlines()[1:])))
    assert "numpy" not in _modules_after([
        "--out", str(tmp_path / "e"), "eval", str(log),
        str(tmp_path / "pairs_subj000.csv"), str(preds)])
    assert json.loads((tmp_path / "e" / "eval.json").read_text())[
        "payload"]["external"]["n"] == 10


def test_evaluate_loads_no_numpy():
    """relhpe.evaluate is scoring's, so looking it up loads no numpy."""
    script = ("import sys\n"
              "import relhpe, relhpe.scoring\n"
              "print(relhpe.evaluate is relhpe.scoring.evaluate,\n"
              "      'numpy' in sys.modules)\n")
    assert _python(script) == "True False"


def test_simulate_loads_no_numpy(tmp_path):
    """`simulate` draws and writes its logs through sampling and tables,
    which load only the standard library."""
    loaded = _modules_after(["--out", str(tmp_path), "simulate",
                             "--subjects", "2", "--frames-per-log", "30"])
    assert "numpy" not in loaded and "relhpe.sampling" in loaded
    assert len((tmp_path / "simulated_poselog.csv").read_text().splitlines()) == 61


@pytest.mark.parametrize("kind", ["hard", "easy"])
def test_pairs_loads_no_numpy_random(kind, tmp_path):
    """A `pairs` run samples its pairs through sampling.sorted_choice, so
    numpy.random is never imported."""
    log = _simulated_log(tmp_path, 60)
    loaded = _modules_after(["--out", str(tmp_path), "pairs", str(log),
                             "--pair-kind", kind, "--neutral-thresh-deg", "60",
                             "--extreme-thresh-deg", "30", "--max-gap-deg", "60",
                             "--n-pairs", "10"])
    assert "numpy" in loaded and "numpy.random" not in loaded
    payload = json.loads((tmp_path / "pairs_subj000.json").read_text())["payload"]
    assert payload["stats"]["count"] == 10


# The package modules a `sweep` run loads: sampling holds the SeedSequence
# hash of simulate's query streams; scoring, which only `eval` runs, stays
# unloaded.
SWEEP_MODULES = ["relhpe", "relhpe.anchors", "relhpe.camera", "relhpe.cli",
                 "relhpe.errors", "relhpe.geometry", "relhpe.harness",
                 "relhpe.poselog", "relhpe.records", "relhpe.reports",
                 "relhpe.rotation", "relhpe.rows", "relhpe.sampling",
                 "relhpe.simulate", "relhpe.tables", "relhpe.vocab"]


def test_sweep_loads_its_modules_only(tmp_path):
    log = _simulated_log(tmp_path, 40)
    loaded = _modules_after(["--out", str(tmp_path), "sweep", str(log)])
    assert sorted(m for m in loaded if m.split(".")[0] == "relhpe") == SWEEP_MODULES


# numpy's SeedSequence hash constants, then PCG64's multiplier
RNG_CONSTANTS = ("INIT_A", "MULT_A", "INIT_B", "MULT_B", "MIX_MULT_L",
                 "MIX_MULT_R", "PCG64_MULT")


def test_seed_sequence_hash_is_written_once():
    """sampling assigns numpy's SeedSequence and PCG64 constants; no other
    module assigns one, writes one's value, names a hash constant or
    defines a hashmix, so the int and the array hash are one kernel."""
    sampling = importlib.import_module("relhpe.sampling")
    values = {getattr(sampling, name) for name in RNG_CONSTANTS}
    tree = ast.parse((SRC / "sampling.py").read_text(encoding="utf-8"))
    assert set(RNG_CONSTANTS) <= {n for n, _ in _module_level_names(tree)}
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "sampling.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stray += [f"{path.name} line {line}: assigns {name}"
                  for name, line in _module_level_names(tree)
                  if name in RNG_CONSTANTS]
        for n in ast.walk(tree):
            if (isinstance(n, ast.Constant) and type(n.value) is int
                    and n.value in values):
                stray.append(f"{path.name} line {n.lineno}: {n.value:#x}")
            elif isinstance(n, ast.FunctionDef) and "hashmix" in n.name:
                stray.append(f"{path.name} line {n.lineno}: defines {n.name}")
            elif isinstance(n, ast.Name) and n.id in RNG_CONSTANTS[:6]:
                stray.append(f"{path.name} line {n.lineno}: names {n.id}")
            elif isinstance(n, ast.alias) and n.name in RNG_CONSTANTS[:6]:
                stray.append(f"{path.name} line {n.lineno}: imports {n.name}")
    assert not stray, f"SeedSequence hash outside sampling: {stray}"


def test_query_stream_key_is_written_once():
    """No module seeds a numpy generator from a key (default_rng or
    SeedSequence), and only simulate._seed_states hashes a value directly
    (a sha256 call with an argument, as a query's key takes it;
    reports.file_sha256 feeds its hash a file in chunks)."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            name = getattr(stmt, "name", "module level")
            for n in ast.walk(stmt):
                if not isinstance(n, ast.Call):
                    continue
                called = ast.unparse(n.func).rsplit(".", 1)[-1]
                if called in ("default_rng", "SeedSequence"):
                    stray.append(f"{path.name} line {n.lineno}: {name} calls {called}")
                elif (called == "sha256" and n.args
                        and (path.name, name) != ("simulate.py", "_seed_states")):
                    stray.append(f"{path.name} line {n.lineno}: {name} hashes a key")
    assert not stray, f"a query stream's key outside simulate._seed_states: {stray}"


# The CLI's one command runner: the call in cli.py -> the functions that
# alone may make it.  main resolves settings before a command runs, and
# none creates --out (reports.write_files does, when it writes);
# _write_report builds every report's envelope and writes it, cmd_report
# re-emits a CSV from an envelope it read, and cmd_simulate writes its
# pose log (cmd_ingest's goes through harness.export_canonical).
CLI_RUNNER_CALLS = {"_settings": {"main"}, "os.makedirs": set(),
                    "reports.envelope": {"_write_report"},
                    "reports.write_report": {"_write_report", "cmd_report"},
                    "reports.write_files": {"cmd_simulate"}}


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


# The commands that take a pose-log file subject by subject read it through
# harness.canonical_logs, which builds each PoseLog only when it is taken,
# so they hold one log at a time; only cmd_ingest, which writes every log,
# lists them with ingest_canonical_all.
ONE_LOG_AT_A_TIME = ("cmd_pairs", "cmd_sweep")


def test_pairs_and_sweep_read_one_log_at_a_time():
    """cli.cmd_pairs and cli.cmd_sweep call canonical_logs, imported from
    harness, and no cli function but cmd_ingest calls
    ingest_canonical_all."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    calls, imports = {}, {}
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            nodes = list(ast.walk(stmt))
            calls[stmt.name] = {ast.unparse(n.func) for n in nodes
                                if isinstance(n, ast.Call)}
            imports[stmt.name] = {(n.module, a.name) for n in nodes
                                  if isinstance(n, ast.ImportFrom) for a in n.names}
    for name in ONE_LOG_AT_A_TIME:
        assert "canonical_logs" in calls[name], name
        assert ("harness", "canonical_logs") in imports[name], name
    listing = {name for name, called in calls.items()
               if "ingest_canonical_all" in called}
    assert listing <= {"cmd_ingest"}, f"cli.py: listing every log: {listing}"


def test_canonical_widths_are_written_in_tables_only():
    """The canonical row widths, the tuple (10, 16), appear in tables
    alone: no other module restates the format to read it."""
    stray = []
    for path in MODULES:
        if path.name == "tables.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stray += [f"{path.name} line {n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Tuple)
                  and [getattr(e, "value", None) for e in n.elts] == [10, 16]]
    assert not stray, f"canonical row widths outside tables: {stray}"


# The calls that make directories or move files into place.
STAGING_CALLS = ("os.makedirs", "os.mkdir", "os.rename", "os.replace")


def test_files_are_staged_and_committed_in_write_files_only():
    """os.makedirs, os.mkdir, os.rename and os.replace are called, and the
    '.tmp' staging name is spelled, in reports.write_files alone: no other
    function writes a file of its own all or nothing."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if (path.name, getattr(stmt, "name", None)) == ("reports.py", "write_files"):
                continue
            for n in ast.walk(stmt):
                if isinstance(n, ast.Call) and ast.unparse(n.func) in STAGING_CALLS:
                    stray.append(f"{path.name} line {n.lineno}: {ast.unparse(n.func)}")
                elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
                        and ".tmp" in n.value):
                    stray.append(f"{path.name} line {n.lineno}: {n.value!r}")
    assert not stray, f"files staged outside reports.write_files: {stray}"
