"""The three CLI pipelines the benchmark runs, with their output checks.

A workload is a list of steps.  Each step is one relhpe CLI command run
in its own process, writing into its own directory under ``out/`` of the
run directory; inputs the benchmark generates live under ``in/``.  All
paths are relative to the run directory, so the paths relhpe echoes into
its reports, and with them the report bytes, are the same in every run.

Sizes:
* sweep_linear     4 wide-range logs x 4000 frames (CLI default ranges);
                   fixed_first and temporal_previous sweeps, one report.
* quadratic_select 4 wide-range logs x 600 frames; nearest_within sweeps
                   on both axes at 10 deg (some queries stay unpaired),
                   then hard pairs.
* pairs_eval       3 single-subject 300-frame logs at moderate ranges, so
                   easy and hard pairs can both be built; per subject
                   pairs, eval against generated predictions, report and
                   loss.
The warm-up sizes run the same commands on small inputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Optional

import inputs

# The moderate pose ranges of pairs_eval and the easy-pair thresholds are
# chosen so that each log has at least 150 easy and hard candidate pairs
# (seeds 0-399 checked), so with n_pairs = 100 every eval scores 100.
MODERATE_RANGES = {"yaw_min": -55.0, "yaw_max": 55.0, "pitch_min": -40.0,
                   "pitch_max": 40.0, "roll_min": -20.0, "roll_max": 20.0}
EASY_ARGS = ["--neutral-thresh-deg", "25", "--max-gap-deg", "15"]
N_PAIRS = "100"
THRESHOLD_DEG = "10"


@dataclass
class Step:
    name: str
    command: str                 # relhpe subcommand
    argv: list                   # relhpe CLI arguments
    out: str                     # directory the step writes
    checks: tuple = ()           # (run_dir) -> list of problems
    samples: Optional[Callable] = None  # (run_dir) -> scored error samples


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable              # (seed, size) -> list of Step
    sizes: dict                  # "full" and "warmup" -> size parameters
    prepare: Optional[Callable] = None  # (seed, size, run_dir, run_step)


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds


def _load_json(run_dir, rel):
    def reject(token):
        raise ValueError(f"non-finite number {token} in {rel}")
    with open(os.path.join(run_dir, rel), encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def _csv_rows(run_dir, rel):
    with open(os.path.join(run_dir, rel), newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _finite(value):
    try:
        return math.isfinite(float(value))
    except ValueError:
        return True          # a text field


_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def finite_problems(run_dir, out):
    """Every number in the JSON, CSV and SVG files under out is finite."""
    problems = []
    base = os.path.join(run_dir, out)
    for dirpath, _, files in os.walk(base):
        for fname in sorted(files):
            rel = os.path.relpath(os.path.join(dirpath, fname), run_dir)
            if fname.endswith(".json"):
                _load_json(run_dir, rel)      # raises on NaN / Infinity
            elif fname.endswith(".csv"):
                for row in _csv_rows(run_dir, rel):
                    if row and row[0].startswith("#"):
                        continue
                    if not all(_finite(c) for c in row if c):
                        problems.append(f"{rel}: non-finite value")
                        break
            elif fname.endswith(".svg"):
                with open(os.path.join(run_dir, rel), encoding="utf-8") as fh:
                    text = fh.read()
                if _NON_FINITE.search(text):
                    problems.append(f"{rel}: non-finite value")
    return problems


def same_bytes(regenerated, original):
    def check(run_dir):
        with open(os.path.join(run_dir, regenerated), "rb") as a, \
                open(os.path.join(run_dir, original), "rb") as b:
            if a.read() != b.read():
                return [f"{regenerated} differs from {original}"]
        return []
    return check


def sweep_counts(report, frames):
    def check(run_dir):
        p = _load_json(run_dir, report)["payload"]
        problems = []
        if p["total_paired"] + p["total_unpaired"] != frames:
            problems.append(f"{report}: paired {p['total_paired']} + unpaired "
                            f"{p['total_unpaired']} != {frames} frames")
        if sum(b["pair_count"] for b in p["bins"]) != p["total_paired"]:
            problems.append(f"{report}: bin counts do not sum to total_paired")
        return problems
    return check


def poselog_records(log, frames):
    def check(run_dir):
        rows = [r for r in _csv_rows(run_dir, log) if r and not r[0].startswith("#")]
        return [] if len(rows) == frames else [f"{log}: {len(rows)} records, want {frames}"]
    return check


def pairs_consistent(out):
    def check(run_dir):
        problems = []
        for fname in sorted(os.listdir(os.path.join(run_dir, out))):
            if not fname.endswith(".json"):
                continue
            p = _load_json(run_dir, f"{out}/{fname}")["payload"]
            rows = _csv_rows(run_dir, f"{out}/{fname[:-5]}.csv")[1:]
            if not (len(p["pairs"]) == p["stats"]["count"] == len(rows)):
                problems.append(f"{out}/{fname}: pair counts disagree")
        return problems
    return check


def eval_n(report, pairs_csv):
    def check(run_dir):
        n = _load_json(run_dir, report)["payload"]["external"]["n"]
        rows = len(_csv_rows(run_dir, pairs_csv)) - 1
        return [] if n == rows else [f"{report}: n={n}, {pairs_csv} has {rows} pairs"]
    return check


def sweep_samples(report):
    def count(run_dir):
        p = _load_json(run_dir, report)["payload"]
        estimators = len(p["bins"][0]["reports"]) if p["bins"] else 0
        return p["total_paired"] * estimators
    return count


def eval_samples(report):
    return lambda run_dir: _load_json(run_dir, report)["payload"]["external"]["n"]


# ---------------------------------------------------------------------------
# pipelines


def _simulate(seed, subjects, frames, out="out/sim"):
    argv = ["--seed", str(seed), "--out", out, "simulate",
            "--subjects", str(subjects), "--frames-per-log", str(frames)]
    log = f"{out}/simulated_poselog.csv"
    return Step("simulate", "simulate", argv, out,
                (poselog_records(log, subjects * frames),)), log


def _sweep(name, seed, log, out, frames, *flags):
    argv = ["--seed", str(seed), "--out", out, "sweep", log, *flags]
    report = f"{out}/sweep.json"
    return Step(name, "sweep", argv, out, (sweep_counts(report, frames),),
                sweep_samples(report))


def _report(name, source, regenerated, original):
    out = os.path.dirname(regenerated)
    return Step(name, "report", ["--out", out, "report", source], out,
                (same_bytes(regenerated, original),))


def sweep_linear(seed, size):
    subjects, frames = size["subjects"], size["frames"]
    total = subjects * frames
    sim, log = _simulate(seed, subjects, frames)
    return [
        sim,
        _sweep("sweep_fixed_first", seed, log, "out/fixed_first", total,
               "--policy", "fixed_first"),
        _sweep("sweep_temporal_previous", seed, log, "out/temporal_previous",
               total, "--policy", "temporal_previous"),
        _report("report_sweep", "out/fixed_first/sweep.json",
                "out/report_sweep/sweep.csv", "out/fixed_first/sweep.csv"),
    ]


def quadratic_select(seed, size):
    subjects, frames = size["subjects"], size["frames"]
    total = subjects * frames
    sim, log = _simulate(seed, subjects, frames)
    nearest = ("--policy", "nearest_within", "--threshold-deg", THRESHOLD_DEG)
    return [
        sim,
        _sweep("sweep_nearest_gap", seed, log, "out/nearest_gap", total,
               *nearest, "--axis", "anchor_query_gap"),
        _sweep("sweep_nearest_pose", seed, log, "out/nearest_pose", total,
               *nearest, "--axis", "absolute_query_pose"),
        Step("pairs_hard", "pairs",
             ["--seed", str(seed), "--out", "out/pairs_hard", "pairs", log,
              "--pair-kind", "hard", "--n-pairs", N_PAIRS],
             "out/pairs_hard", (pairs_consistent("out/pairs_hard"),)),
    ]


def _subject_seed(seed, i):
    return seed * 100 + i


def _subject_simulate(seed, i):
    out = f"out/s{i}/sim"
    argv = ["--seed", str(_subject_seed(seed, i)), "--config", "in/sim.json",
            "--out", out, "simulate"]
    return out, argv


def pairs_eval(seed, size):
    steps = []
    for i in range(size["subjects"]):
        s, sub = str(_subject_seed(seed, i)), f"out/s{i}"
        sim_out, sim_argv = _subject_simulate(seed, i)
        log = f"{sim_out}/simulated_poselog.csv"
        steps.append(Step(f"s{i}.simulate", "simulate", sim_argv, sim_out,
                          (poselog_records(log, size["frames"]),)))
        for kind, extra in (("easy", EASY_ARGS), ("hard", [])):
            out = f"{sub}/pairs_{kind}"
            steps.append(Step(
                f"s{i}.pairs_{kind}", "pairs",
                ["--seed", s, "--out", out, "pairs", log, "--pair-kind", kind,
                 *extra, "--n-pairs", N_PAIRS],
                out, (pairs_consistent(out),)))
        for kind in ("easy", "hard"):
            out, pairs = f"{sub}/eval_{kind}", f"{sub}/pairs_{kind}/pairs_subj000.csv"
            steps.append(Step(
                f"s{i}.eval_{kind}", "eval",
                ["--seed", s, "--out", out, "eval", log, pairs, f"in/pred_{i}.csv"],
                out, (eval_n(f"{out}/eval.json", pairs),),
                eval_samples(f"{out}/eval.json")))
        for kind in ("easy", "hard"):
            steps.append(_report(
                f"s{i}.report_pairs_{kind}", f"{sub}/pairs_{kind}/pairs_subj000.json",
                f"{sub}/report_pairs_{kind}/pairs_subj000.csv",
                f"{sub}/pairs_{kind}/pairs_subj000.csv"))
            steps.append(_report(
                f"s{i}.report_eval_{kind}", f"{sub}/eval_{kind}/eval.json",
                f"{sub}/report_eval_{kind}/eval.csv", f"{sub}/eval_{kind}/eval.csv"))
        steps.append(Step(
            f"s{i}.loss", "loss",
            ["--seed", s, "--out", f"{sub}/loss", "loss",
             f"in/stages_pred_{i}.csv", f"in/stages_true_{i}.csv"],
            f"{sub}/loss"))
    return steps


def prepare_pairs_eval(seed, size, run_dir, run_step):
    """Write the simulate config, then per subject simulate the truth log
    once and derive its predictions CSV and stage files from it."""
    inputs.write_config(os.path.join(run_dir, "in", "sim.json"),
                        {"subjects": 1, "frames_per_log": size["frames"],
                         **MODERATE_RANGES})
    for i in range(size["subjects"]):
        out, argv = _subject_simulate(seed, i)
        run_step(Step(f"s{i}.prepare", "simulate", argv, out))
        truth = inputs.read_poselog(os.path.join(run_dir, out, "simulated_poselog.csv"))
        inputs.write_predictions(os.path.join(run_dir, "in", f"pred_{i}.csv"),
                                 truth, (seed, i))
        inputs.write_stage_files(os.path.join(run_dir, "in", f"stages_pred_{i}.csv"),
                                 os.path.join(run_dir, "in", f"stages_true_{i}.csv"),
                                 (seed, i))


WORKLOADS = {
    "sweep_linear": Workload(
        "sweep_linear", sweep_linear,
        {"full": {"subjects": 4, "frames": 4000},
         "warmup": {"subjects": 4, "frames": 60}}),
    "quadratic_select": Workload(
        "quadratic_select", quadratic_select,
        {"full": {"subjects": 4, "frames": 600},
         "warmup": {"subjects": 4, "frames": 60}}),
    "pairs_eval": Workload(
        "pairs_eval", pairs_eval,
        {"full": {"subjects": 3, "frames": 300},
         "warmup": {"subjects": 1, "frames": 300}},
        prepare_pairs_eval),
}
