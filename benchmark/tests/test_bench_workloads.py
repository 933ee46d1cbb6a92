import json
import shutil
import subprocess
import sys
import time

import pytest

import layers
import run
from runner import BENCH_DIR, Runner, check_pass, digest_tree
from workloads import WORKLOADS

ROOT = BENCH_DIR.parent


def _runner(tmp_path):
    return Runner(ROOT, tmp_path, tmp_path / "run", time.monotonic() + 150)


def _warmup_pass(runner, name, seed=3, **kwargs):
    workload = WORKLOADS[name]
    size = workload.sizes["warmup"]
    if workload.prepare is not None:
        workload.prepare(seed, size, runner.run_dir, runner.run_step)
    return runner.run_pass(workload.build(seed, size), "smoke", **kwargs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_pass_is_correct_and_repeatable(tmp_path, name):
    runner = _runner(tmp_path)
    first = _warmup_pass(runner, name)
    assert first.failed == {}
    assert first.results and all(r.rc == 0 and r.scaled_s > 0 for r in first.results)
    if name != "quadratic_select":
        assert first.samples > 0
    steps = [r.step for r in first.results]
    again = runner.run_pass(steps, "again", reference=first.digests)
    assert again.failed == {}
    assert again.digests == first.digests


def test_traced_pass_matches_untraced_bytes(tmp_path):
    runner = _runner(tmp_path)
    plain = _warmup_pass(runner, "quadratic_select")
    steps = [r.step for r in plain.results]
    traced = runner.run_pass(steps, "traced", traced=True, reference=plain.digests)
    assert traced.failed == {}
    m = layers.pass_metrics(
        [(r.step.command, r.wall_s, r.trace) for r in traced.results])
    assert m["geometry.geodesic_deg_calls.anchors"] > 0
    assert m["geometry.geodesic_deg_calls.medoid"] > 0
    assert m["harness.neutral_reference_calls"] > 0
    assert m["anchors.paired"] + m["anchors.unpaired"] == 2 * 4 * 60
    assert m["harness.pairs_sampled"] > 0
    assert 0.5 < m["trace.coverage"] < 1.0
    assert m["trace.wall_s"] == pytest.approx(traced.wall_s)


def _corrupt(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_corrupted_reports_count_as_failed_steps(tmp_path):
    runner = _runner(tmp_path)
    good = _warmup_pass(runner, "sweep_linear")
    assert good.failed == {}
    out = runner.run_dir / "out"

    # a regenerated CSV that no longer matches the one sweep wrote
    _corrupt(out / "report_sweep" / "sweep.csv", "sim_absolute", "sim_absolutE")
    # a sweep whose paired + unpaired no longer equals the frame count
    _corrupt(out / "temporal_previous" / "sweep.json",
             '"total_unpaired": 4', '"total_unpaired": 5')
    # a non-finite number in a report
    sweep_csv = out / "fixed_first" / "sweep.csv"
    lines = sweep_csv.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:4] + ["nan"] + lines[1].split(",")[5:])
    sweep_csv.write_text("\n".join(lines) + "\n")

    digests = digest_tree(runner.run_dir, "out")
    failed = check_pass(good.results, runner.run_dir, digests)
    assert set(failed) == {"report_sweep", "sweep_temporal_previous",
                           "sweep_fixed_first"}
    # against the first pass's digests every touched step fails again
    failed = check_pass(good.results, runner.run_dir, digests,
                        reference=good.digests)
    assert any("first pass" in p for p in failed["sweep_fixed_first"])


def test_failed_exit_counts_as_failed_step(tmp_path):
    runner = _runner(tmp_path)
    workload = WORKLOADS["sweep_linear"]
    steps = workload.build(1, workload.sizes["warmup"])
    steps[1].argv = steps[1].argv + ["--bin-width-deg", "0"]   # an invalid bin width
    p = runner.run_pass(steps, "bad")
    assert "sweep_fixed_first" in p.failed


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "sweep_linear",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.METRICS)
    assert spec["paths"] == [BENCH_DIR.name]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
