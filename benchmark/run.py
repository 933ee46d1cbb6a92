"""relhpe benchmark: runs one workload of CLI pipelines and prints metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (sources under src/).  The run measures
import set-up, then one warm-up pass at small sizes, then full-size
passes of the workload until about S seconds are spent, one child process
at a time.  Times are rescaled to a reference CPU speed measured between
steps (see runner.py).  Every step's outputs are checked; a step that
fails or whose outputs fail a check counts as a failed operation.  With --trace 1 each
untraced pass is followed by a traced one and the per-layer metrics are
reported instead of the end-to-end ones.  The last line of stdout is the
result as one JSON object.

``--update-golden`` records the output digests of one full-size pass at
the golden seed in golden.json; later runs at that seed must reproduce
them byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import stats
from runner import BENCH_DIR, PROBE_SHARE, Runner, SetupError, pin_to_one_cpu
from workloads import WORKLOADS

GOLDEN_SEED = 0
GOLDEN_PATH = BENCH_DIR / "golden.json"
SETUP_SPAWNS = 11
TIME_LIMIT_S = 170.0         # children still running then are killed

END_TO_END = (("wall_s", "s"), ("samples_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "relhpe").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fingerprint(root, workload, seed, seconds, trace):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "none"
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": _git_commit(root), "src_sha256": _source_digest(root),
        "sizes": workload.sizes["full"],
        "loop": "closed, 1 client, 1 child process at a time",
        "child_threads": "BLAS and OpenMP pinned to 1",
        "cpu": f"all processes on one CPU; times rescaled by a probe run "
               f"for {PROBE_SHARE:g} of each step's time",
        "warmup": f"1 import spawn, 1 pass at {workload.sizes['warmup']}",
        "setup_spawns": SETUP_SPAWNS,
    }


def _load_golden():
    if GOLDEN_PATH.is_file():
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    return {}


def _report_failures(tag, passed):
    for step, problems in passed.failed.items():
        for problem in problems:
            print(f"FAILED {tag} {step}: {problem}", file=sys.stderr)


def measure(runner, workload, seed, seconds, trace, golden):
    """Warm up, then run timed passes (paired with traced ones when trace)
    until the next would end more than half a pass past `seconds`."""
    def prepare(size):
        if workload.prepare is None:
            return

        def run_step(step):
            result = runner.run_step(step)
            if result.rc != 0:
                raise SetupError(f"input preparation step {step.name} "
                                 f"exited with status {result.rc}")
        workload.prepare(seed, size, runner.run_dir, run_step)

    warm = workload.sizes["warmup"]
    prepare(warm)
    runner.run_pass(workload.build(seed, warm), "warmup", traced=trace)
    full = workload.sizes["full"]
    prepare(full)
    steps = workload.build(seed, full)

    def walls(passes):
        return [r.wall_s for r in passes[-1].results] if passes else None

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        reference = plain[0].digests if plain else None
        p = runner.run_pass(steps, f"pass{len(plain)}", reference=reference,
                            golden=golden, expected=walls(plain))
        plain.append(p)
        _report_failures(f"pass{len(plain) - 1}", p)
        if trace:
            t = runner.run_pass(steps, f"traced{len(traced)}", traced=True,
                                reference=plain[0].digests, expected=walls(traced))
            traced.append(t)
            _report_failures(f"traced{len(traced) - 1}", t)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(plain)
        if (elapsed + 0.5 * per_round > seconds
                or time.monotonic() + 1.5 * per_round > runner.deadline):
            return plain, traced


def end_to_end(plain, setup_times):
    """Times at the probe's reference CPU speed (see runner.py)."""
    return {
        "wall_s": statistics.median([p.scaled_s for p in plain]),
        "samples_per_s": statistics.median(
            [p.samples / p.scaled_s for p in plain]),
        "setup_s": statistics.median([scaled for _, scaled in setup_times]),
        "peak_rss_mb": statistics.median([p.peak_rss_mb for p in plain]),
    }


def per_layer(plain, traced):
    per_pass = [layers.pass_metrics(
        [(r.step.command, r.wall_s, r.trace) for r in t.results]) for t in traced]
    out = {name: statistics.median([m[name] for m in per_pass])
           for name, _, _ in layers.METRICS}
    out["trace.overhead_s"] = (statistics.median([t.wall_s for t in traced])
                               - statistics.median([p.wall_s for p in plain]))
    return out


def summary_lines(plain, setup_times, steps_attempted, steps_failed):
    lines = []
    for name, values in (("pass wall_s", [p.wall_s for p in plain]),
                         ("pass scaled_s", [p.scaled_s for p in plain]),
                         ("setup wall_s", [w for w, _ in setup_times])):
        q1, q2, q3 = stats.quartiles(values)
        lines.append(f"{name}: median {q2:.4f}  quartiles [{q1:.4f}, {q3:.4f}]"
                     f"  n={len(values)}  each {[round(v, 4) for v in values]}")
    step_s = [r.wall_s for p in plain for r in p.results]
    tail = stats.tail_percentile(step_s)
    tail_text = f"  p{tail[0]:g} {tail[1]:.4f}" if tail else ""
    lines.append(f"step wall_s: median {statistics.median(step_s):.4f}{tail_text}"
                 f"  (n={len(step_s)} steps)")
    ratio = steps_failed / steps_attempted
    lines.append(f"op_fail_ratio {ratio:.4f}  ({steps_failed} of "
                 f"{steps_attempted} steps failed)")
    return lines


def update_golden(runner, workload):
    full = workload.sizes["full"]
    if workload.prepare is not None:
        workload.prepare(GOLDEN_SEED, full, runner.run_dir, runner.run_step)
    p = runner.run_pass(workload.build(GOLDEN_SEED, full), "golden")
    if p.failed:
        _report_failures("golden", p)
        return 1
    golden = _load_golden()
    golden[workload.name] = p.digests
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(p.digests)} digests for {workload.name}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    root = BENCH_DIR.parent
    pin_to_one_cpu()
    if not (root / "src" / "relhpe" / "cli.py").is_file():
        print(f"error: no relhpe sources under {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / ".relhpe_bench"
    run_dir = work / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(root, work, run_dir, time.monotonic() + TIME_LIMIT_S)
    try:
        if args.update_golden:
            return update_golden(runner, workload)
        setup_times = runner.setup_times(SETUP_SPAWNS)
        golden = (_load_golden().get(workload.name)
                  if args.seed == GOLDEN_SEED else None)
        if args.seed == GOLDEN_SEED and golden is None:
            raise SetupError(f"no golden digests for {workload.name}")
        plain, traced = measure(runner, workload, args.seed, args.seconds,
                                bool(args.trace), golden)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(len(p.results) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    print("fingerprint " + json.dumps(
        fingerprint(root, workload, args.seed, args.seconds, args.trace),
        sort_keys=True))
    for line in summary_lines(plain, setup_times, attempted, failed):
        print(line)
    if args.trace:
        values = per_layer(plain, traced)
        units = {name: unit for name, unit, _ in layers.METRICS}
    else:
        values = end_to_end(plain, setup_times)
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
