"""The report bytes do not depend on the environment a run takes place in.

test_config_golden's pipeline is run once in this process, then once more
in a fresh process per axis below, and every run must give the same
SHA-256 for every file:

* PYTHONHASHSEED 0 and 12345 (string hashing, hence set and dict order);
* numpy with its AVX-512 dispatch masked (NPY_DISABLE_CPU_FEATURES);
* each other CPython 3.10-3.13 found, for the commands that run without
  numpy (simulate, loss, eval and report), on inputs the in-process run
  made.

An interpreter that is not found is a skip that names it.  The BLAS kernel
is not an axis: the bytes depend on it today (a mixed-order matmul).
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from test_config_golden import STDLIB_RUNS, digests, run_pipeline

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
MASKED = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """(directory, digests) of the pipeline run in this process."""
    root = tmp_path_factory.mktemp("reference")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        run_pipeline()
    finally:
        os.chdir(cwd)
    return root, digests(root)


def _run(python, script, cwd, **env):
    """Run script in a fresh process of python in cwd, with the sources
    first on its path and env added to the environment; its stdout."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(TESTS)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([python, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_PIPELINE = ("try:\n"
             "    from numpy._core._multiarray_umath import __cpu_features__\n"
             "except ImportError:  # numpy 1.x\n"
             "    from numpy.core._multiarray_umath import __cpu_features__\n"
             "from test_config_golden import run_pipeline\n"
             "run_pipeline()\n"
             f"print([f for f in {MASKED!r} if __cpu_features__.get(f)])\n")


@pytest.mark.parametrize("env", [
    {"PYTHONHASHSEED": "0"},
    {"PYTHONHASHSEED": "12345"},
    {"NPY_DISABLE_CPU_FEATURES": " ".join(MASKED)},
], ids=lambda env: "-".join(f"{k}={v}" for k, v in env.items()))
def test_pipeline_bytes_hold(env, reference, tmp_path):
    out = _run(sys.executable, _PIPELINE, tmp_path, **env)
    if "NPY_DISABLE_CPU_FEATURES" in env:  # the mask took effect
        assert out.splitlines()[-1] == "[]"
    assert digests(tmp_path) == reference[1]


def _cpython(minor):
    """A CPython 3.<minor> that runs, or None: python3.<minor> on the PATH,
    else one under pyenv's default root."""
    home = pathlib.Path.home() / ".pyenv" / "versions"
    candidates = [shutil.which(f"python3.{minor}")] + sorted(
        str(p) for p in home.glob(f"3.{minor}.*/bin/python"))
    for python in filter(None, candidates):
        # a pyenv shim of a version that is not selected exits non-zero
        proc = subprocess.run([python, "-c", "import sys; print(sys.version_info[:2])"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0 and proc.stdout.strip() == f"(3, {minor})":
            return python
    return None


@pytest.mark.parametrize("minor", [10, 11, 12, 13], ids=lambda m: f"3.{m}")
def test_numpy_free_commands_on_other_pythons(minor, reference, tmp_path):
    if minor == sys.version_info.minor:
        pytest.skip(f"CPython 3.{minor} runs this test: the reference")
    python = _cpython(minor)
    if python is None:
        pytest.skip(f"no CPython 3.{minor} found")
    root, expected = reference
    work = tmp_path / "work"
    shutil.copytree(root, work)
    for out_dir in {out_dir for out_dir, _ in STDLIB_RUNS}:
        shutil.rmtree(work / out_dir)
    argvs = [list(argv) for _, argv in STDLIB_RUNS]
    _run(python, "import sys\n"
                 "from relhpe.cli import main\n"
                 f"for argv in {argvs!r}:\n"
                 "    assert main(argv) == 0, argv\n"
                 "assert 'numpy' not in sys.modules\n", work)
    assert digests(work) == expected
