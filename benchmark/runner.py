"""Runs workload steps as child processes, one at a time, and checks them.

The loop is closed with one client: a step starts only after the previous
child has exited and been reaped.  Wall time is taken from just before the
spawn to the return of os.wait4, whose rusage also gives the child's
peak RSS.  Children get BLAS and OpenMP pinned to one thread, a fixed hash
seed, and a bytecode cache inside the benchmark's work directory.

On a shared host the speed of a CPU drifts by tens of percent over
seconds to minutes, which swamps run-to-run comparisons of raw wall time.
So just before and just after each step the parent runs a fixed
pure-Python probe on the same pinned CPU, for PROBE_SHARE of the step's
time in all, and each step's time is also reported rescaled to the
probe's reference speed: ``scaled = wall * REFERENCE_CHUNK_S / chunk_s``,
with chunk_s the time-weighted mean seconds per probe chunk around it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
TRACEBACK = b"Traceback (most recent call last)"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PROBE_SHARE = 0.6
PROBE_MIN_S = 0.05
REFERENCE_CHUNK_S = 0.0012   # seconds per probe chunk at the reference speed


def _probe_chunk():
    """Fixed scalar work: 4000 Hamilton products, like relhpe's hot paths."""
    w, x, y, z = 1.0, 0.0, 0.0, 0.0
    a, b, c, d = 0.99985, 0.01, 0.01, 0.01
    for _ in range(4000):
        w, x, y, z = (a * w - b * x - c * y - d * z, a * x + b * w + c * z - d * y,
                      a * y - b * z + c * w + d * x, a * z + b * y - c * x + d * w)
    return w


def probe(seconds):
    """(seconds per chunk, seconds spent) over at least `seconds`."""
    chunks = 0
    start = time.perf_counter()
    while True:
        _probe_chunk()
        chunks += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / chunks, elapsed


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so the probe measures
    the CPU the steps run on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SetupError(RuntimeError):
    """The program under test cannot be started at all."""


def child_env(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(work / "pycache"))
    return env


@dataclass
class StepResult:
    step: workloads.Step
    rc: int
    wall_s: float
    maxrss_mb: float
    traceback: bool
    trace: list = field(default_factory=list)
    scaled_s: float = 0.0   # wall_s at the probe's reference speed


@dataclass
class PassResult:
    results: list
    failed: dict            # step name -> problems
    digests: dict           # output path -> sha256
    samples: int

    @property
    def wall_s(self):
        return sum(r.wall_s for r in self.results)

    @property
    def scaled_s(self):
        return sum(r.scaled_s for r in self.results)

    @property
    def peak_rss_mb(self):
        return max(r.maxrss_mb for r in self.results)


class Runner:
    """Spawns relhpe commands with run_dir as working directory."""

    def __init__(self, root: Path, work: Path, run_dir: Path, deadline: float):
        self.env = child_env(root, work)
        self.run_dir = run_dir
        self.deadline = deadline
        self.logs = run_dir / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        (run_dir / "in").mkdir(exist_ok=True)

    def spawn(self, argv, label):
        """(exit code, wall seconds, max RSS in MB, traceback printed).

        A child still running at the deadline is killed, so the benchmark
        always ends in bounded time."""
        out_path = self.logs / f"{label}.out"
        err_path = self.logs / f"{label}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.run_dir, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                     proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        traceback = TRACEBACK in err_path.read_bytes()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, traceback

    def probed(self, runs, expected=None):
        """Call each of `runs` (it returns its wall seconds) between two
        probes of half PROBE_SHARE of its time each; returns (wall, scaled)
        per run.  The probe before a run is sized from `expected`, the
        runs' times in an earlier pass, or else from the previous run."""
        half = PROBE_SHARE / 2
        out = []
        previous = 0.0
        for i, run in enumerate(runs):
            guess = expected[i] if expected else previous
            before = probe(max(PROBE_MIN_S, half * guess))
            wall = run()
            after = probe(max(PROBE_MIN_S, half * wall))
            chunk_s = (before[0] * before[1] + after[0] * after[1]) / (before[1] + after[1])
            out.append((wall, wall * REFERENCE_CHUNK_S / chunk_s))
            previous = wall
        return out

    def setup_times(self, spawns):
        """(wall, scaled) seconds for a fresh interpreter to import
        relhpe.cli, after one warm-up spawn that fills the bytecode cache."""
        argv = [sys.executable, "-c", "import relhpe.cli"]

        def spawn(i):
            rc, wall, _, _ = self.spawn(argv, f"setup{i}")
            if rc != 0:
                err = (self.logs / f"setup{i}.err").read_text(errors="replace")
                raise SetupError(f"cannot import relhpe.cli:\n{err}")
            return wall
        spawn(0)
        return self.probed([functools.partial(spawn, i) for i in range(1, spawns + 1)])

    def run_step(self, step, label=None, trace_path=None):
        label = label or step.name
        if trace_path is None:
            argv = [sys.executable, "-m", "relhpe.cli", *step.argv]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                    str(trace_path), label, *step.argv]
        rc, wall, rss, tb = self.spawn(argv, label)
        result = StepResult(step, rc, wall, rss, tb)
        if trace_path is not None and trace_path.is_file():
            with open(trace_path, encoding="utf-8") as fh:
                result.trace = [json.loads(line) for line in fh]
        return result

    def run_pass(self, steps, tag, traced=False, reference=None, golden=None,
                 expected=None):
        """Run the steps in order from an empty out/ and check the outputs.

        reference and golden map output paths to SHA-256 digests the new
        outputs must equal; expected holds the steps' wall times in an
        earlier pass, to size the probes."""
        shutil.rmtree(self.run_dir / "out", ignore_errors=True)
        trace_dir = self.logs / "trace"
        trace_dir.mkdir(exist_ok=True)
        results = []

        def run(i, step):
            label = f"{tag}.{i:02d}.{step.name}"
            results.append(self.run_step(
                step, label, trace_dir / f"{label}.jsonl" if traced else None))
            return results[-1].wall_s
        timings = self.probed([functools.partial(run, i, step)
                               for i, step in enumerate(steps)], expected)
        for r, (_, scaled) in zip(results, timings):
            r.scaled_s = scaled
        digests = digest_tree(self.run_dir, "out")
        failed = check_pass(results, self.run_dir, digests, reference, golden)
        samples = 0
        for r in results:
            if r.step.samples is not None and r.step.name not in failed:
                samples += r.step.samples(self.run_dir)
        return PassResult(results, failed, digests, samples)


def digest_tree(run_dir, top):
    digests = {}
    base = Path(run_dir)
    for path in sorted((base / top).rglob("*")):
        if path.is_file():
            digests[path.relative_to(base).as_posix()] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _owned(digests, out):
    prefix = out.rstrip("/") + "/"
    return {k: v for k, v in digests.items() if k.startswith(prefix)}


def check_pass(results, run_dir, digests, reference=None, golden=None):
    """{step name: problems} for every step that failed.

    A step fails when it exits non-zero, prints a traceback, writes
    nothing, writes a non-finite number, fails one of its own checks, or
    writes bytes other than the reference or golden digests."""
    failed = {}
    for r in results:
        step = r.step
        problems = []
        if r.rc != 0:
            problems.append(f"exit status {r.rc}")
        if r.traceback:
            problems.append("printed a traceback")
        own = _owned(digests, step.out)
        if not own:
            problems.append(f"wrote nothing under {step.out}")
        else:
            finite = lambda d, out=step.out: workloads.finite_problems(d, out)
            for check in (finite, *step.checks):
                try:
                    problems += check(run_dir)
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    problems.append(f"output check raised {exc!r}")
        for name, expected in (("first pass", reference), ("golden", golden)):
            if expected is not None and own != _owned(expected, step.out):
                problems.append(f"output bytes differ from the {name}")
        if problems:
            failed[step.name] = problems
    return failed
