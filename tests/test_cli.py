import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from relhpe import (EulerAngles, Rotation, SE3Pose, euler_from_rotation,
                    export_canonical, ingest_canonical_all, rotation_from_euler)
import relhpe.cli
import relhpe.sampling
from relhpe import reports
from relhpe.cli import SETTINGS, build_parser, main

from conftest import (frame_records, pose_log, random_pose,
                      write_biwi_fixture, yaw_pose)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(argv):
    return main([str(a) for a in argv])


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def sim_log(tmp_path):
    """A small deterministic multi-subject canonical log."""
    out = tmp_path / "sim"
    assert run(["--seed", "3", "--out", out, "simulate",
                "--subjects", "2", "--frames-per-log", "40"]) == 0
    return out / "simulated_poselog.csv"


class TestSimulate:
    def test_writes_log(self, sim_log):
        logs = ingest_canonical_all(sim_log)
        assert len(logs) == 2
        assert all(len(l) == 40 for l in logs)

    def test_same_seed_same_bytes(self, tmp_path):
        for d in ("a", "b"):
            assert run(["--seed", "9", "--out", tmp_path / d, "simulate",
                        "--subjects", "1", "--frames-per-log", "10"]) == 0
        assert read(tmp_path / "a" / "simulated_poselog.csv") == \
            read(tmp_path / "b" / "simulated_poselog.csv")

    def test_different_seed_differs(self, tmp_path):
        for seed, d in ((1, "a"), (2, "b")):
            assert run(["--seed", seed, "--out", tmp_path / d, "simulate",
                        "--subjects", "1", "--frames-per-log", "10"]) == 0
        assert read(tmp_path / "a" / "simulated_poselog.csv") != \
            read(tmp_path / "b" / "simulated_poselog.csv")

    def test_log_path_occupied_changes_nothing(self, tmp_path, capsys):
        """With the log's path a directory, simulate exits 2 with the one
        line the reports print and leaves no other file in --out."""
        (tmp_path / "simulated_poselog.csv").mkdir()
        capsys.readouterr()
        assert run(["--out", tmp_path, "simulate", "--subjects", "1",
                    "--frames-per-log", "10"]) == 2
        assert capsys.readouterr() == ("", f"error: {tmp_path / 'simulated_poselog.csv'}"
                                           ": not written, it is a directory\n")
        assert tree(tmp_path) == {"simulated_poselog.csv": None}


class TestIngest:
    def test_canonical_reexport_identical(self, sim_log, tmp_path, capsys):
        out = tmp_path / "re"
        assert run(["--out", out, "ingest", sim_log]) == 0
        assert read(out / "poselog.csv") == read(sim_log)
        text = capsys.readouterr().out
        assert "subjects: 2" in text and "frames: 80" in text

    def test_range_summary_matches_scalar(self, tmp_path, rng, capsys):
        """The printed ranges equal the scalar Euler conversion of every
        frame, gimbal-locked ones (|pitch| >= 89, roll 0) included."""
        logs = [pose_log(poses, s) for s, poses in (
                    ("a", [random_pose(rng) for _ in range(30)]),
                    ("b", [SE3Pose(rotation_from_euler(EulerAngles(*e)), np.zeros(3))
                           for e in ((30.0, 89.5, 10.0), (-170.0, -89.9, 5.0),
                                     (179.9, 0.0, -179.9))]))]
        export_canonical(logs, tmp_path / "log.csv")
        assert run(["--out", tmp_path / "o", "ingest", tmp_path / "log.csv"]) == 0
        text = capsys.readouterr().out
        angles = [euler_from_rotation(f.pose.rotation)
                  for log in logs for f in frame_records(log)]
        for axis in ("yaw", "pitch", "roll"):
            values = [getattr(e, axis) for e in angles]
            assert (f"{axis + ' range:':<13}[{min(values):.2f}, "
                    f"{max(values):.2f}] deg\n") in text

    def test_biwi(self, tmp_path, rng, capsys):
        poses = [random_pose(rng, frame="depth") for _ in range(4)]
        write_biwi_fixture(tmp_path / "s01", poses,
                           np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1]]),
                           np.eye(3), np.zeros(3))
        out = tmp_path / "out"
        assert run(["--out", out, "ingest", tmp_path / "s01",
                    "--input-format", "biwi"]) == 0
        logs = ingest_canonical_all(out / "poselog.csv")
        assert len(logs) == 1 and len(logs[0]) == 4
        assert logs[0].frame_tag == "rgb"

    def test_biwi_missing_calibration(self, tmp_path, capsys):
        os.makedirs(tmp_path / "empty")
        assert run(["--out", tmp_path / "o", "ingest", tmp_path / "empty",
                    "--input-format", "biwi"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        assert run(["--out", tmp_path, "ingest", tmp_path / "nope.csv"]) == 2


class TestPairs:
    def test_outputs_per_subject(self, sim_log, tmp_path):
        out = tmp_path / "p"
        assert run(["--seed", "0", "--out", out, "pairs", sim_log,
                    "--pair-kind", "easy", "--neutral-thresh-deg", "1000",
                    "--max-gap-deg", "40", "--n-pairs", "20"]) == 0
        for s in ("subj000", "subj001"):
            env = json.loads(read(out / f"pairs_{s}.json"))
            assert env["command"] == "pairs"
            assert env["seed"] == 0
            assert len(env["payload"]["pairs"]) <= 20
            csv_text = read(out / f"pairs_{s}.csv")
            assert csv_text.splitlines()[0] == "anchor_id,query_id,gap_deg"

    def test_deterministic_bytes(self, sim_log, tmp_path):
        argv = ["--seed", "4", "pairs", sim_log, "--pair-kind", "hard",
                "--neutral-thresh-deg", "40", "--extreme-thresh-deg", "50",
                "--n-pairs", "30"]
        for d in ("a", "b"):
            assert run(["--out", tmp_path / d] + argv[:2] + argv[2:]) == 0
        for name in ("pairs_subj000.json", "pairs_subj000.csv"):
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)

    def test_config_file_keys(self, sim_log, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pair_kind": "easy", "max_gap_deg": 40.0,
                                   "neutral_thresh_deg": 1000.0, "n_pairs": 5}))
        out = tmp_path / "p"
        assert run(["--config", cfg, "--out", out, "pairs", sim_log]) == 0
        env = json.loads(read(out / "pairs_subj000.json"))
        assert len(env["payload"]["pairs"]) <= 5
        assert env["config"]["max_gap_deg"] == 40.0

    def test_unknown_config_key_rejected(self, sim_log, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        assert run(["--config", cfg, "--out", tmp_path, "pairs", sim_log]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_format_restriction(self, sim_log, tmp_path):
        out = tmp_path / "p"
        assert run(["--format", "json", "--out", out, "pairs", sim_log,
                    "--pair-kind", "easy", "--neutral-thresh-deg", "1000",
                    "--max-gap-deg", "40"]) == 0
        assert (out / "pairs_subj000.json").exists()
        assert not (out / "pairs_subj000.csv").exists()

    def test_later_subject_failing_writes_nothing(self, tmp_path, capsys):
        """Every subject's pair set is built before a file is written: a
        subject without extreme frames leaves no file of an earlier one,
        and no output directory."""
        log = tmp_path / "two.csv"
        export_canonical([pose_log([yaw_pose(d) for d in (0, 5, 10, 50, 60, 70)], "A"),
                          pose_log([yaw_pose(d) for d in (0, 5, 10, 20, 30)], "B")],
                         log)
        out = tmp_path / "o"
        assert run(["--out", out, "pairs", log]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: log 'B': ")
        assert not out.exists()

    @pytest.mark.parametrize("occupied", ["pairs_subj000.csv", "pairs_subj001.json",
                                          "pairs_subj001.csv"])
    def test_occupied_subject_path_writes_no_subject(self, occupied, sim_log, tmp_path,
                                                     capsys):
        """With one subject's report path a directory, pairs exits 2 with one
        line on stderr, prints no `wrote` line and writes no file of any
        subject: --out is left as it was."""
        argv = ["pairs", sim_log, "--pair-kind", "hard"]
        assert run(["--out", tmp_path / "free", *argv]) == 0
        out = tmp_path / "o" / "p"
        (out / occupied).mkdir(parents=True)
        before = tree(tmp_path / "o")
        capsys.readouterr()
        assert run(["--out", out, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out / occupied}: not written, it is a directory\n"
        assert tree(tmp_path / "o") == before

    @pytest.mark.parametrize("failing", [1, 2, 3])
    def test_failed_later_subject_write_leaves_no_out(self, failing, sim_log, tmp_path,
                                                      capsys, monkeypatch):
        """A pairs run whose write fails at a later file (subject 0's CSV,
        subject 1's JSON or CSV) exits 2, prints no `wrote` line, leaves no
        file of any subject and removes the --out it made."""
        opened = []

        def failing_open(path, mode="r", *args, **kwargs):
            if mode == "w":
                opened.append(path)
                if len(opened) > failing:
                    raise OSError(f"no space left writing {os.path.basename(path)}")
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(reports, "open", failing_open, raising=False)
        out = tmp_path / "o" / "p"
        capsys.readouterr()
        assert run(["--out", out, "pairs", sim_log, "--pair-kind", "hard"]) == 2
        assert capsys.readouterr().out == ""
        assert len(opened) == failing + 1
        assert not (tmp_path / "o").exists()

    def test_hashes_input_once(self, tmp_path, monkeypatch):
        """A 4-subject pairs run hashes its log once, and every subject's
        report carries that hash."""
        sim = tmp_path / "sim"
        assert run(["--out", sim, "simulate", "--subjects", "4",
                    "--frames-per-log", "40"]) == 0
        log = sim / "simulated_poselog.csv"
        calls = []
        sha256 = reports.file_sha256
        monkeypatch.setattr(reports, "file_sha256",
                            lambda path: calls.append(path) or sha256(path))
        out = tmp_path / "o"
        assert run(["--out", out, "pairs", log, "--pair-kind", "easy",
                    "--neutral-thresh-deg", "1000", "--max-gap-deg", "40"]) == 0
        assert calls == [str(log)]
        for s in range(4):
            env = json.loads(read(out / f"pairs_subj{s:03d}.json"))
            assert env["inputs_sha256"] == {str(log): sha256(log)}


def single_subject_log(tmp_path):
    out = tmp_path / "single"
    assert run(["--seed", "5", "--out", out, "simulate",
                "--subjects", "1", "--frames-per-log", "30"]) == 0
    return out / "simulated_poselog.csv"


def write_perfect_predictions(log_path, pairs_csv, dest):
    log = ingest_canonical_all(log_path)[0]
    records = frame_records(log)
    lines = ["query_id,qw,qx,qy,qz,tx_mm,ty_mm,tz_mm"]
    seen = set()
    with open(pairs_csv, encoding="utf-8") as fh:
        next(fh)
        for row in fh:
            qid = row.split(",")[1]
            if qid in seen:
                continue
            seen.add(qid)
            p = records[log.position(qid)].pose
            q, t = p.rotation, p.translation
            lines.append(",".join([qid] + [repr(float(v)) for v in
                                           (q.w, q.x, q.y, q.z, t[0], t[1], t[2])]))
    dest.write_text("\n".join(lines) + "\n")


class TestEval:
    def test_perfect_predictions(self, tmp_path, capsys):
        log = single_subject_log(tmp_path)
        out = tmp_path / "e"
        assert run(["--seed", "0", "--out", out, "pairs", log,
                    "--pair-kind", "easy", "--neutral-thresh-deg", "1000",
                    "--max-gap-deg", "40", "--n-pairs", "15"]) == 0
        preds = tmp_path / "preds.csv"
        write_perfect_predictions(log, out / "pairs_subj000.csv", preds)
        assert run(["--out", out, "eval", log,
                    out / "pairs_subj000.csv", preds]) == 0
        env = json.loads(read(out / "eval.json"))
        rep = env["payload"]["external"]
        assert rep["n"] > 0
        assert rep["geodesic_mae"] < 1e-9
        assert rep["mae"] < 1e-9

    @pytest.mark.parametrize("shift, rc", [(0.0, 0), (0.9e-3, 0), (-0.9e-3, 0),
                                           (1.1e-3, 2), (-2.0, 2)])
    def test_gap_checked_against_truth(self, shift, rc, tmp_path, capsys):
        """A pairs-CSV gap within relhpe.scoring.GAP_TOLERANCE_DEG of its frames'
        gap in the truth log passes; a farther one names its file and line."""
        log = single_subject_log(tmp_path)
        out = tmp_path / "e"
        assert run(["--seed", "0", "--out", out, "pairs", log,
                    "--pair-kind", "easy", "--neutral-thresh-deg", "1000",
                    "--max-gap-deg", "40", "--n-pairs", "15"]) == 0
        pairs = out / "pairs_subj000.csv"
        preds = tmp_path / "preds.csv"
        write_perfect_predictions(log, pairs, preds)
        lines = read(pairs).splitlines()
        anchor_id, query_id, gap = lines[4].split(",")
        lines[4] = f"{anchor_id},{query_id},{float(gap) + shift!r}"
        pairs.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["--out", out, "eval", log, pairs, preds]) == rc
        err = capsys.readouterr().err
        assert (err == "") == (rc == 0)
        if rc:
            assert err.startswith(f"error: {pairs}:5: gap_deg ")
            assert f"{anchor_id!r} -> {query_id!r} is {float(gap)!r}" in err

    def test_ids_with_spaces_round_trip(self, tmp_path, rng):
        """Frame ids keep their surrounding spaces through the canonical
        log, the pairs CSV and the predictions CSV, so perfect predictions
        score zero."""
        log = tmp_path / "log.csv"
        export_canonical(pose_log([random_pose(rng) for _ in range(12)],
                                  ids=[f" f{i} " for i in range(12)]), log)
        out = tmp_path / "e"
        assert run(["--out", out, "pairs", log, "--pair-kind", "easy",
                    "--neutral-thresh-deg", "1000", "--max-gap-deg", "180"]) == 0
        preds = tmp_path / "preds.csv"
        write_perfect_predictions(log, out / "pairs_s.csv", preds)
        assert " f3 ," in read(preds)
        assert run(["--out", out, "eval", log, out / "pairs_s.csv", preds]) == 0
        rep = json.loads(read(out / "eval.json"))["payload"]["external"]
        assert rep.pop("n") == 132
        assert set(rep.values()) == {0.0}, rep

    def test_missing_prediction(self, tmp_path, capsys):
        log = single_subject_log(tmp_path)
        out = tmp_path / "e"
        assert run(["--seed", "0", "--out", out, "pairs", log,
                    "--pair-kind", "easy", "--neutral-thresh-deg", "1000",
                    "--max-gap-deg", "40"]) == 0
        preds = tmp_path / "preds.csv"
        preds.write_text("query_id,qw,qx,qy,qz,tx_mm,ty_mm,tz_mm\n")
        assert run(["--out", out, "eval", log,
                    out / "pairs_subj000.csv", preds]) == 2


class TestSweep:
    def test_outputs_and_determinism(self, sim_log, tmp_path):
        argv = ["--seed", "2", "sweep", sim_log, "--axis", "anchor_query_gap",
                "--policy", "nearest_within", "--threshold-deg", "60"]
        for d in ("a", "b"):
            assert run(["--out", tmp_path / d] + argv) == 0
        for name in ("sweep.json", "sweep.csv", "sweep.svg"):
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)
        env = json.loads(read(tmp_path / "a" / "sweep.json"))
        assert env["command"] == "sweep"
        assert env["payload"]["axis"] == "anchor_query_gap"
        assert env["payload"]["total_paired"] > 0
        ids = {e for b in env["payload"]["bins"] for e in b["reports"]}
        assert ids == {"sim_absolute", "sim_relative"}

    def test_svg_well_formed(self, sim_log, tmp_path):
        out = tmp_path / "s"
        assert run(["--seed", "2", "--out", out, "sweep", sim_log,
                    "--policy", "fixed_first"]) == 0
        root = ET.fromstring(read(out / "sweep.svg"))
        assert root.tag.endswith("svg")

    def test_absolute_axis_needs_nearest(self, sim_log, tmp_path, capsys):
        assert run(["--out", tmp_path, "sweep", sim_log,
                    "--axis", "absolute_query_pose",
                    "--policy", "fixed_first"]) == 2


def write_stage_file(path, rows):
    lines = ["k,tx,ty,tz,qw,qx,qy,qz,fov_h_deg,fov_w_deg"]
    for r in rows:
        lines.append(",".join(repr(float(v)) if i else str(int(v))
                              for i, v in enumerate(r)))
    path.write_text("\n".join(lines) + "\n")


class TestLoss:
    def test_single_stage_value(self, tmp_path, capsys):
        # identical rotation/fov, translation off by (1, 2, 3): total = 6
        pred = tmp_path / "pred.csv"
        true = tmp_path / "true.csv"
        write_stage_file(pred, [(1, 1, 2, 3, 1, 0, 0, 0, 60, 60)])
        write_stage_file(true, [(1, 0, 0, 0, 1, 0, 0, 0, 60, 60)])
        out = tmp_path / "o"
        assert run(["--out", out, "loss", pred, true]) == 0
        env = json.loads(read(out / "loss.json"))
        assert abs(env["payload"]["total"] - 6.0) < 1e-12
        assert "total: 6" in capsys.readouterr().out

    def test_four_stages_weighted(self, tmp_path):
        pred = tmp_path / "pred.csv"
        true = tmp_path / "true.csv"
        write_stage_file(pred, [(k, 1, 0, 0, 1, 0, 0, 0, 60, 60)
                                for k in range(1, 5)])
        write_stage_file(true, [(k, 0, 0, 0, 1, 0, 0, 0, 60, 60)
                                for k in range(1, 5)])
        out = tmp_path / "o"
        gamma = 0.6
        assert run(["--out", out, "loss", pred, true]) == 0
        env = json.loads(read(out / "loss.json"))
        expected = sum(gamma ** (4 - k) for k in range(1, 5)) / 4
        assert abs(env["payload"]["total"] - expected) < 1e-12
        assert len(env["payload"]["stages"]) == 4

    def test_gamma_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1.0}))
        pred = tmp_path / "pred.csv"
        true = tmp_path / "true.csv"
        write_stage_file(pred, [(k, 1, 0, 0, 1, 0, 0, 0, 60, 60)
                                for k in range(1, 3)])
        write_stage_file(true, [(k, 0, 0, 0, 1, 0, 0, 0, 60, 60)
                                for k in range(1, 3)])
        out = tmp_path / "o"
        assert run(["--config", cfg, "--out", out, "loss", pred, true]) == 0
        env = json.loads(read(out / "loss.json"))
        assert abs(env["payload"]["total"] - 1.0) < 1e-12

    @pytest.mark.parametrize("mode", ["full", "geodesic"])
    def test_runs_without_numpy(self, mode, tmp_path, rng):
        """`python -m relhpe.cli loss` writes the same loss.json as the
        command run here, and never imports numpy, nor dataclasses and
        inspect (the records generate no code): -X importtime logs every
        module a run imports."""
        pred, true = tmp_path / "pred.csv", tmp_path / "true.csv"
        for path in (pred, true):
            write_stage_file(path, [
                (k, *rng.uniform(-500, 500, 3), *rng.normal(size=4),
                 *rng.uniform(20, 100, 2)) for k in range(1, 4)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": mode, "gamma": 0.7}))
        out = tmp_path / "o"
        assert run(["--config", cfg, "--out", out, "loss", pred, true]) == 0
        out2 = tmp_path / "r"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "relhpe.cli",
             "--config", str(cfg), "--out", str(out2), "loss", str(pred),
             str(true)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert {"relhpe.losses", "relhpe.rows"} <= set(imported)
        assert [m for m in imported if m.split(".")[0] == "numpy"] == []
        assert {"dataclasses", "inspect"}.isdisjoint(imported)
        assert read(out2 / "loss.json") == read(out / "loss.json")

    def test_stage_mismatch(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        true = tmp_path / "true.csv"
        write_stage_file(pred, [(1, 0, 0, 0, 1, 0, 0, 0, 60, 60)])
        write_stage_file(true, [(k, 0, 0, 0, 1, 0, 0, 0, 60, 60)
                                for k in range(1, 3)])
        assert run(["--out", tmp_path, "loss", pred, true]) == 2
        err = capsys.readouterr().err
        assert f"{pred}: prediction stages [1]" in err
        assert f"{true}: truth stages [1, 2]" in err


class TestReport:
    @staticmethod
    def write_report(kind, sim_log, tmp_path, out):
        """Run the command that writes a report of this kind; its stem."""
        if kind == "sweep":
            assert run(["--seed", "2", "--out", out, "sweep", sim_log,
                        "--policy", "fixed_first"]) == 0
            return "sweep"
        easy = ["--pair-kind", "easy", "--neutral-thresh-deg", "1000",
                "--max-gap-deg", "40"]
        if kind == "pairs":
            assert run(["--seed", "0", "--out", out, "pairs", sim_log] + easy) == 0
            return "pairs_subj000"
        # eval: score another seed's poses so every column, the translation
        # ones included, holds a non-trivial float
        log = single_subject_log(tmp_path)
        assert run(["--out", out, "pairs", log] + easy) == 0
        other = tmp_path / "other"
        assert run(["--seed", "6", "--out", other, "simulate",
                    "--subjects", "1", "--frames-per-log", "30"]) == 0
        preds = tmp_path / "preds.csv"
        write_perfect_predictions(other / "simulated_poselog.csv",
                                  out / "pairs_subj000.csv", preds)
        assert run(["--out", out, "eval", log, out / "pairs_subj000.csv",
                    preds]) == 0
        assert float(read(out / "eval.csv").splitlines()[1].split(",")[-1]) > 0
        return "eval"

    @pytest.mark.parametrize("kind", ["sweep", "pairs", "eval"])
    def test_csv_regenerated(self, kind, sim_log, tmp_path):
        """`python -m relhpe.cli report` writes the same CSV, and never
        imports numpy: -X importtime logs every module a run imports."""
        out = tmp_path / "o"
        stem = self.write_report(kind, sim_log, tmp_path, out)
        out2 = tmp_path / "r"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "relhpe.cli",
             "--out", str(out2), "report", str(out / f"{stem}.json")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "relhpe.reports" in imported
        assert [m for m in imported if m.split(".")[0] == "numpy"] == []
        assert read(out2 / f"{stem}.csv") == read(out / f"{stem}.csv")

    def test_unsupported_source(self, tmp_path, capsys):
        src = tmp_path / "loss.json"
        src.write_text(json.dumps({"command": "loss", "payload": {}}))
        assert run(["--out", tmp_path, "report", src]) == 2

    def test_reads_no_config(self, sim_log, tmp_path, capsys):
        """report reads no config: a --config file that does not exist is
        never opened."""
        out = tmp_path / "o"
        stem = self.write_report("pairs", sim_log, tmp_path, out)
        out2 = tmp_path / "r"
        capsys.readouterr()
        assert run(["--config", tmp_path / "missing.json", "--out", out2,
                    "report", out / f"{stem}.json"]) == 0
        assert capsys.readouterr().out == f"wrote {out2 / f'{stem}.csv'}\n"
        assert read(out2 / f"{stem}.csv") == read(out / f"{stem}.csv")


EASY = ["--pair-kind", "easy", "--neutral-thresh-deg", "1000", "--max-gap-deg", "40"]


def report_argv(command, tmp_path):
    """argv of a pairs, eval, sweep, loss, ingest or simulate run on small
    inputs, and the stem of its report or pose-log files."""
    if command == "simulate":
        return ["simulate", "--subjects", "1", "--frames-per-log", "10"], \
            "simulated_poselog"
    log = single_subject_log(tmp_path)
    if command == "ingest":
        return ["ingest", log], "poselog"
    if command == "pairs":
        return ["pairs", log, *EASY], "pairs_subj000"
    if command == "sweep":
        return ["sweep", log], "sweep"
    if command == "eval":
        pairs = tmp_path / "p" / "pairs_subj000.csv"
        assert run(["--out", tmp_path / "p", "pairs", log, *EASY]) == 0
        preds = tmp_path / "preds.csv"
        write_perfect_predictions(log, pairs, preds)
        return ["eval", log, pairs, preds], "eval"
    pred, true = tmp_path / "pred.csv", tmp_path / "true.csv"
    write_stage_file(pred, [(1, 1, 2, 3, 1, 0, 0, 0, 60, 60)])
    write_stage_file(true, [(1, 0, 0, 0, 1, 0, 0, 0, 60, 60)])
    return ["loss", pred, true], "loss"


@pytest.mark.parametrize("fmt", [None, "json", "csv"])
@pytest.mark.parametrize("command", ["pairs", "eval", "sweep", "loss"])
def test_report_files_per_format(command, fmt, tmp_path, capsys):
    """A command writes its JSON and CSV, or under --format the one named;
    a sweep also its SVG, and loss only its JSON; one `wrote` line per file,
    in that order."""
    argv, stem = report_argv(command, tmp_path)
    out = tmp_path / "o"
    capsys.readouterr()
    assert run(["--out", out] + (["--format", fmt] if fmt else []) + argv) == 0
    extensions = ["json"] if command == "loss" else [
        ext for ext in ("json", "csv") if fmt in (None, ext)]
    extensions += ["svg"] if command == "sweep" else []
    wrote = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert wrote == [f"wrote {out / f'{stem}.{ext}'}" for ext in extensions]
    assert sorted(os.listdir(out)) == sorted(f"{stem}.{ext}" for ext in extensions)


@pytest.mark.parametrize("policy", [["--policy", "fixed_first"],
                                    ["--policy", "nearest_within", "--threshold-deg", "20"]])
def test_sweep_svg_is_built_from_the_json_payload(policy, sim_log, tmp_path):
    out = tmp_path / "s"
    assert run(["--seed", "2", "--out", out, "sweep", sim_log, *policy]) == 0
    payload = json.loads(read(out / "sweep.json"))["payload"]
    assert reports.sweep_svg(payload) == read(out / "sweep.svg")


@pytest.mark.parametrize("command, fmt", [("sweep", None), ("sweep", "csv"),
                                          ("loss", None), ("eval", None)])
def test_non_finite_report_writes_nothing(command, fmt, tmp_path, capsys):
    """A report holding inf (a translation error of 1e308 mm overflows) is
    refused before any of its files is opened or the output directory is
    made, whatever --format is, and the refusal is the one line on
    stderr."""
    argv, stem = report_argv(command, tmp_path)
    rewrites = []  # (file, tx column, tx of the file's k-th row)
    if command == "sweep":
        # tx of frame 0 1e308, of every later frame -1e308: the relative
        # transform onto frame 0 (fixed_first) overflows for some frames
        rewrites = [(argv[1], 7, lambda k: "-1e308" if k else "1e308")]
    elif command == "eval":  # tx of every truth row -1e308, of each prediction 1e308
        rewrites = [(argv[1], 7, lambda k: "-1e308"), (argv[3], 5, lambda k: "1e308")]
    else:
        write_stage_file(argv[1], [(1, 1e308, 0, 0, 1, 0, 0, 0, 60, 60)])
        write_stage_file(argv[2], [(1, -1e308, 0, 0, 1, 0, 0, 0, 60, 60)])
    for path, column, tx in rewrites:
        head, *rows = read(path).splitlines()
        path.write_text("\n".join([head] + [
            ",".join(cells[:column] + [tx(k)] + cells[column + 1:])
            for k, cells in enumerate(row.split(",") for row in rows)]) + "\n")
    out = tmp_path / "o"
    capsys.readouterr()
    assert run(["--out", out] + (["--format", fmt] if fmt else []) + argv) == 2
    first = out / f"{stem}.{fmt or 'json'}"
    assert capsys.readouterr().err == (
        f"error: {first}: not written, the report holds nan or inf\n")
    assert not out.exists()


def tree(root):
    """{path under root: its bytes, or None for a directory}, recursively."""
    return {p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("command, ext", [
    ("pairs", "json"), ("pairs", "csv"), ("eval", "json"), ("eval", "csv"),
    ("sweep", "json"), ("sweep", "csv"), ("sweep", "svg"), ("loss", "json"),
    ("report", "csv"), ("simulate", "csv"), ("ingest", "csv")])
def test_occupied_report_path_changes_nothing(command, ext, tmp_path, capsys):
    """With one report or pose-log file's path a directory, a command exits
    2 with one line on stderr, prints no `wrote` line and leaves --out as
    it was: the files of an older report set keep their bytes."""
    if command == "report":
        argv, stem = report_argv("eval", tmp_path)
        assert run(["--out", tmp_path / "e", *argv]) == 0
        argv = ["report", tmp_path / "e" / f"{stem}.json"]
    else:
        argv, stem = report_argv(command, tmp_path)
    out = tmp_path / "o"
    out.mkdir()
    for other in ("json", "csv", "svg"):
        (out / f"{stem}.{other}").write_text(f"older {other}\n")
    (out / f"{stem}.{ext}").unlink()
    (out / f"{stem}.{ext}").mkdir()
    (out / f"{stem}.{ext}" / "kept").write_text("kept\n")
    before = tree(out)
    capsys.readouterr()
    assert run(["--out", out, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {out / f'{stem}.{ext}'}: not written, it is a directory\n")
    assert tree(out) == before


@pytest.mark.parametrize("older", [False, True], ids=["new_out", "older_set"])
@pytest.mark.parametrize("command, failing", [
    ("sweep", 0), ("sweep", 1), ("sweep", 2), ("simulate", 0), ("ingest", 0)],
    ids=["0", "1", "2", "simulate", "ingest"])
def test_failed_file_write_leaves_out_as_it_was(command, failing, older, sim_log,
                                                tmp_path, capsys, monkeypatch):
    """A sweep whose JSON, CSV or SVG write fails, or a simulate or ingest
    whose pose-log write fails, after the file is opened, exits 2 and
    prints no `wrote` line.  It leaves no file behind, removes the
    directories of --out that it made, and leaves an older run's bytes as
    they were."""
    argv, stem = {"sweep": (["sweep", sim_log], "sweep"),
                  "simulate": (["simulate", "--frames-per-log", "10"],
                               "simulated_poselog"),
                  "ingest": (["ingest", sim_log], "poselog")}[command]
    out = tmp_path / "new" / "o"
    if older:
        assert run(["--seed", "1", "--out", out, *argv]) == 0
    before = tree(tmp_path)
    opened = []

    def failing_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if mode == "w":
            opened.append(path)
            if len(opened) > failing:
                fh.close()
                raise OSError(f"no space left writing {os.path.basename(path)}")
        return fh

    monkeypatch.setattr(reports, "open", failing_open, raising=False)
    capsys.readouterr()
    assert run(["--out", out, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: no space left writing {stem}.")
    assert len(opened) == failing + 1
    assert tree(tmp_path) == before
    assert (tmp_path / "new").exists() == older


def test_stdout_of_each_command(sim_log, tmp_path, capsys):
    """Each command's whole stdout, line by line: its `wrote` lines in the
    order the files are written, then eval's and loss's summaries."""
    def stdout(*argv):
        capsys.readouterr()
        assert run(argv) == 0
        return capsys.readouterr().out.splitlines()

    out, sim = tmp_path / "o", sim_log.parent
    assert stdout("--out", out, "ingest", sim_log) == [
        "subjects: 2  frames: 80",
        "yaw range:   [-74.83, 74.97] deg",
        "pitch range: [-49.10, 57.35] deg",
        "roll range:  [-39.88, 39.09] deg",
        f"wrote {out / 'poselog.csv'}"]
    assert stdout("--out", out, "pairs", sim_log, *EASY) == [
        f"wrote {out / name}" for name in (
            "pairs_subj000.json", "pairs_subj000.csv",
            "pairs_subj001.json", "pairs_subj001.csv")]
    assert stdout("--out", out, "sweep", sim_log) == [
        f"wrote {out / name}" for name in ("sweep.json", "sweep.csv", "sweep.svg")]
    assert stdout("--out", out, "report", out / "sweep.json") == [
        f"wrote {out / 'sweep.csv'}"]
    log = single_subject_log(tmp_path)
    assert stdout("--out", log.parent, "pairs", log, *EASY, "--n-pairs", "15") == [
        f"wrote {log.parent / 'pairs_subj000.json'}",
        f"wrote {log.parent / 'pairs_subj000.csv'}"]
    preds = tmp_path / "preds.csv"
    write_perfect_predictions(log, log.parent / "pairs_subj000.csv", preds)
    assert stdout("--out", out, "eval", log, log.parent / "pairs_subj000.csv",
                  preds) == [
        f"wrote {out / 'eval.json'}", f"wrote {out / 'eval.csv'}",
        "n=15 yaw=0.0000 pitch=0.0000 roll=0.0000 mae=0.0000 geodesic=0.0000"]
    pred, true = tmp_path / "pred.csv", tmp_path / "true.csv"
    write_stage_file(pred, [(1, 1, 2, 3, 1, 0, 0, 0, 60, 60),
                            (2, 0, 1, 0, 1, 0, 0, 0, 50, 60)])
    write_stage_file(true, [(1, 0, 0, 0, 1, 0, 0, 0, 60, 60),
                            (2, 0, 0, 0, 1, 0, 0, 0, 60, 60)])
    assert stdout("--out", out, "loss", pred, true) == [
        f"wrote {out / 'loss.json'}",
        "total: 2.35340087693",
        "  stage 1: weight=0.3 T=1.8 R=0 F=0",
        "  stage 2: weight=0.5 T=0.5 R=0 F=0.0534009"]
    assert stdout("--seed", "3", "--out", sim, "simulate", "--subjects", "2",
                  "--frames-per-log", "40") == [
        f"wrote {sim / 'simulated_poselog.csv'} (2 subjects x 40 frames)"]


def malformed_input(case, tmp_path):
    """argv for one malformed-input case, and text its error must name."""
    reports_json = {"report_without_bins": ("sweep", {"axis": "anchor_query_gap"}),
                    "report_scalar_pairs": ("pairs", {"pairs": [1]}),
                    "report_string_pairs": ("pairs", {"pairs": "abc"}),
                    "report_short_pair": ("pairs", {"pairs": [[1, 2]]}),
                    "report_list_metrics": ("eval", [])}
    if case in reports_json:
        command, payload = reports_json[case]
        src = tmp_path / f"{command}.json"
        src.write_text(json.dumps({"command": command, "payload": payload}))
        return ["report", src], f"{src}: malformed {command} report ("
    non_finite = {"report_nan_metric": "NaN", "report_overflowing_metric": "1e400"}
    if case in non_finite:
        src = tmp_path / "sweep.json"
        metrics = {"n": 1, "yaw_mae": 1.0, "pitch_mae": 1.0, "roll_mae": 1.0,
                   "mae": 1.0, "geodesic_mae": 1.0}
        payload = {"bins": [{"lo": 0.0, "hi": 5.0, "pair_count": 1,
                             "reports": {"sim_absolute": metrics}}]}
        src.write_text(json.dumps({"command": "sweep", "payload": payload}).replace(
            '"yaw_mae": 1.0', f'"yaw_mae": {non_finite[case]}'))
        return ["report", src], f"{src}: non-finite number {non_finite[case]}"
    if case == "truncated_report":
        src = tmp_path / "sweep.json"
        src.write_text('{"command": "sweep"')
        return ["report", src], "sweep.json"
    commands = {"report_list_command": '["sweep"]', "report_object_command": "{}"}
    if case in commands:
        src = tmp_path / "sweep.json"
        src.write_text(f'{{"command": {commands[case]}, "payload": {{}}}}')
        return ["report", src], f"{src}: cannot regenerate from a "
    if case in ("deeply_nested_report", "deeply_nested_config"):
        src = tmp_path / "deep.json"
        src.write_text("[" * 100_000 + "]" * 100_000)
        argv = (["report", src] if case == "deeply_nested_report"
                else ["--config", src, "simulate"])
        return argv, f"{src}: maximum recursion depth exceeded"
    stage_rows = {"short_stage_row": "1,0,0,0,1,0,0,0,60",
                  "long_stage_row": "1,0,0,0,1,0,0,0,60,60,60",
                  "nan_stage_translation": "1,nan,0,0,1,0,0,0,60,60",
                  "fractional_stage_index": "1.7,0,0,0,1,0,0,0,60,60",
                  "huge_stage_index": "1e300,0,0,0,1,0,0,0,60,60"}
    if case in stage_rows:
        pred, true = tmp_path / "pred.csv", tmp_path / "true.csv"
        write_stage_file(true, [(1, 0, 0, 0, 1, 0, 0, 0, 60, 60)])
        pred.write_text("k,tx,ty,tz,qw,qx,qy,qz,fov_h_deg,fov_w_deg\n"
                        f"{stage_rows[case]}\n")
        return ["loss", pred, true], "pred.csv:2:"
    canonical_rows = {"nan_log_quaternion": "s,f1,1,nan,0,0,0,0,0,0",
                      "inf_log_translation": "s,f1,1,1,0,0,0,0,inf,0",
                      "bad_log_intrinsics": "s,f1,1,1,0,0,0,0,0,0,-5,5,3,2,6,4",
                      "out_of_order_log_index": "s,f1,5,1,0,0,0,0,0,0",
                      "duplicate_log_frame_id": "s,f0,1,1,0,0,0,0,0,0"}
    if case in canonical_rows:
        bad = tmp_path / "bad.csv"
        bad.write_text("# poselog v1 frame=world\ns,f0,0,1,0,0,0,0,0,0\n"
                       f"{canonical_rows[case]}\n")
        argv = (["ingest", bad] if case != "nan_log_quaternion"
                else ["sweep", bad, "--policy", "nearest_within",
                      "--threshold-deg", "10"])
        return argv, "bad.csv:3:"
    canonical_files = {"unsupported_log_version": b"# poselog v2 frame=world\n"
                                                  b"s,f0,0,1,0,0,0,0,0,0\n",
                       "log_without_records": b"# poselog v1 frame=world\n",
                       "non_utf8_log": b"# poselog v1 frame=world\n"
                                       b"s,f0,0,1,0,0,0,0,0,\xff\n",
                       "quoted_comma_subject": b"# poselog v1 frame=world\n"
                                               b'"s,1",f0,0,1,0,0,0,0,0,0\n'}
    if case in canonical_files:
        bad = tmp_path / "bad.csv"
        bad.write_bytes(canonical_files[case])
        return ["ingest", bad], "bad.csv"
    if case.startswith("third_subject_quoted_comma_frame"):
        # the row reader lets the id through; PoseLog refuses it once the
        # first two subjects were scored
        assert run(["--out", tmp_path / "sim", "simulate", "--subjects", 3,
                    "--frames-per-log", 40]) == 0
        bad = tmp_path / "bad.csv"
        text = read(tmp_path / "sim" / "simulated_poselog.csv")
        bad.write_text(text.replace("subj002,f0000,", 'subj002,"f,0000",'))
        command = case.rsplit("_", 1)[1]
        return [command, bad], (
            f"error: {bad}: frame id 'f,0000' starts with '#' or '\"' or holds "
            f"a comma or line break, so it cannot be written to a CSV row\n")
    calibrations = {"nan_biwi_calibration": (np.eye(3), np.eye(3), [0, 0, math.nan]),
                    "non_orthonormal_calibration": (np.eye(3), np.diag([2.0, 3.0, 1.0]),
                                                    np.zeros(3)),
                    "reflection_calibration": (np.eye(3), np.diag([1.0, 1.0, -1.0]),
                                               np.zeros(3)),
                    "negative_calibration_focal": (np.diag([-5.0, 5.0, 1.0]),
                                                   np.eye(3), np.zeros(3)),
                    "ragged_calibration": (np.eye(3), np.eye(3), np.zeros(3)),
                    "nan_biwi_translation": (np.eye(3), np.eye(3), np.zeros(3)),
                    "non_utf8_biwi_pose": (np.eye(3), np.eye(3), np.zeros(3))}
    if case in calibrations:
        poses = [SE3Pose(Rotation(1.0, 0.0, 0.0, 0.0), np.zeros(3), "depth")] * 2
        write_biwi_fixture(tmp_path / "s01", poses, *calibrations[case])
        bad = tmp_path / "s01" / ("rgb.cal" if "calibration" in case
                                  else "frame_00001_pose.txt")
        if case == "nan_biwi_translation":
            bad.write_text(bad.read_text().rsplit("\n", 2)[0] + "\nnan 0.0 inf\n")
        if case == "non_utf8_biwi_pose":
            bad.write_bytes(bad.read_bytes().rstrip(b"\n") + b"\xff\n")
        if case == "ragged_calibration":
            bad.write_text("1 0 0\n0 1\n0 0 1\n" + bad.read_text().split("\n", 3)[3])
        return ["ingest", tmp_path / "s01", "--input-format", "biwi"], bad.name
    if case == "biwi_comment_subject":
        poses = [SE3Pose(Rotation(1.0, 0.0, 0.0, 0.0), np.zeros(3), "depth")] * 2
        write_biwi_fixture(tmp_path / "#s01", poses, np.eye(3), np.eye(3), np.zeros(3))
        return ["ingest", tmp_path / "#s01", "--input-format", "biwi"], "'#s01'"
    log = single_subject_log(tmp_path)
    configs = {"config_medium_pair_kind": ('{"pair_kind": "medium"}', "pairs", "pair_kind"),
               "config_upper_input_format": ('{"input_format": "BIWI"}', "ingest",
                                             "input_format"),
               "config_nan_lambda": ('{"lambda_t": NaN}', "loss", "lambda_t"),
               "config_infinite_n_pairs": ('{"n_pairs": 1e400}', "pairs", "n_pairs"),
               "config_bool_n_pairs": ('{"n_pairs": true}', "pairs", "n_pairs"),
               "config_fractional_frames": ('{"frames_per_log": 3.7}', "simulate",
                                            "frames_per_log"),
               "truncated_config": ('{"pair_kind": "ea', "pairs", "cfg.json"),
               "config_null_pose_glob": ('{"pose_glob": null}', "ingest",
                                         "cfg.json: pose_glob: expected a string"),
               "config_list_calib_name": ('{"calib_name": ["rgb.cal"]}', "ingest",
                                          "cfg.json: calib_name: expected a string"),
               # values the library rejects are named by their source too
               "config_negative_threshold": (
                   '{"policy": "nearest_within", "threshold_deg": -3}', "sweep",
                   "cfg.json: threshold_deg: "),
               "config_infinite_threshold": (
                   '{"policy": "nearest_within", "threshold_deg": Infinity}', "sweep",
                   "cfg.json: threshold_deg: "),
               "config_negative_gamma": ('{"gamma": -1}', "loss", "cfg.json: gamma: "),
               "config_negative_lambda": ('{"lambda_r": -1}', "loss",
                                          "cfg.json: lambda_r: "),
               "config_negative_abs_base": ('{"abs_base_deg": -1}', "sweep",
                                            "cfg.json: abs_base_deg: "),
               "config_overflowing_abs_slope": ('{"abs_slope": 1e308}', "sweep",
                                                "cfg.json: abs_slope: "),
               "config_overflowing_rel_slope": ('{"rel_slope": 1e308}', "sweep",
                                                "cfg.json: rel_slope: "),
               "config_negative_rel_slope": ('{"rel_slope": -0.1}', "sweep",
                                             "cfg.json: rel_slope: "),
               "config_negative_trans_noise": ('{"trans_noise_mm": -0.5}', "sweep",
                                               "cfg.json: trans_noise_mm: "),
               # a finite value at which a translation error's norm overflows
               "config_overflowing_trans_noise": ('{"trans_noise_mm": 1.5e154}',
                                                  "sweep", "cfg.json: trans_noise_mm: "),
               "config_zero_frames": ('{"frames_per_log": 0}', "simulate",
                                      "cfg.json: frames_per_log: "),
               "config_zero_subjects": ('{"subjects": 0}', "simulate",
                                        "cfg.json: subjects: "),
               "config_yaw_min_above_max": ('{"yaw_min": 10, "yaw_max": 0}',
                                            "simulate", "cfg.json: yaw_min 10.0 > ")}
    if case in configs:
        text, command, named = configs[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        inputs = {"loss": [log, log], "simulate": []}.get(command, [log])
        return ["--config", cfg, command, *inputs], named
    if case == "zero_bin_width":
        return ["sweep", log, "--bin-width-deg", "0"], "bin width"
    if case == "negative_bin_width":
        return ["sweep", log, "--bin-width-deg", "-5"], "bin width"
    if case == "tiny_bin_width":
        return ["sweep", log, "--bin-width-deg", "1e-300"], "--bin-width-deg: bin width"
    if case == "nan_threshold_flag":
        return (["sweep", log, "--policy", "nearest_within", "--threshold-deg", "nan"],
                "--threshold-deg")
    if case == "negative_threshold_flag":
        return (["sweep", log, "--policy", "nearest_within", "--threshold-deg", "-3"],
                "--threshold-deg: nearest_within")
    if case == "negative_n_pairs":
        return (["pairs", log, "--pair-kind", "easy", "--neutral-thresh-deg", "1000",
                 "--max-gap-deg", "40", "--n-pairs", "-1"], "--n-pairs")
    if case == "zero_frames_flag":
        return ["simulate", "--frames-per-log", "0"], "--frames-per-log: "
    if case == "negative_seed_simulate":
        return ["--seed", "-1", "simulate"], "--seed"
    if case == "negative_seed_pairs":
        return ["--seed", "-1", "pairs", log], "--seed"
    preds = tmp_path / "preds.csv"
    pairs = tmp_path / "pairs.csv"
    prediction_rows = {"nan_prediction_quaternion": "f0001,nan,0,0,0,0,0,0",
                       "zero_prediction_quaternion": "f0001,0,0,0,0,0,0,0",
                       "huge_prediction_quaternion": "f0001,1e200,0,0,0,0,0,0",
                       "duplicate_prediction_id": "f0001,1,0,0,0,0,0,0\n"
                                                  "f0001,1,0,0,0,0,0,0"}
    if case in prediction_rows:
        pairs.write_text("anchor_id,query_id,gap_deg\nf0000,f0001,1.0\n")
        preds.write_text("query_id,qw,qx,qy,qz,tx_mm,ty_mm,tz_mm\n"
                         f"{prediction_rows[case]}\n")
        line = 3 if case == "duplicate_prediction_id" else 2
        return ["eval", log, pairs, preds], f"preds.csv:{line}:"
    if case == "quoted_comma_truth_frame":
        truth = tmp_path / "truth.csv"
        truth.write_text('# poselog v1 frame=world\ns,"f,0",0,1,0,0,0,0,0,0\n')
        pairs.write_text("anchor_id,query_id,gap_deg\n")
        preds.write_text("f0,1,0,0,0,0,0,0\n")
        return ["eval", truth, pairs, preds], (
            f"error: {truth}: frame id 'f,0' starts with '#' or '\"' or holds a "
            f"comma or line break, so it cannot be written to a CSV row\n")
    preds.write_text("query_id,qw,qx,qy,qz,tx_mm,ty_mm,tz_mm\n"
                     "zzz,1,0,0,0,0,0,0\n")
    if case == "pairs_without_anchor_id":
        pairs.write_text("query_id,gap_deg\nzzz,1.0\n")
        return ["eval", log, pairs, preds], "pairs.csv:1:"
    pairs_rows = {"non_numeric_pairs_gap": "f0000,zzz,abc",
                  "nan_pairs_gap": "f0000,zzz,nan",
                  "pairs_gap_above_180": "f0000,zzz,999",
                  "negative_pairs_gap": "f0000,zzz,-5",
                  "extra_pairs_column": "f0000,zzz,1.0,x"}
    if case in pairs_rows:
        pairs.write_text(f"anchor_id,query_id,gap_deg\n{pairs_rows[case]}\n")
        return ["eval", log, pairs, preds], "pairs.csv:2:"
    no_frame = "pairs.csv:2: log 'subj000' has no frame 'zzz'"
    if case == "query_not_in_truth":
        pairs.write_text("anchor_id,query_id,gap_deg\nf0000,zzz,1.0\n")
        return ["eval", log, pairs, preds], no_frame
    preds.write_text("query_id,qw,qx,qy,qz,tx_mm,ty_mm,tz_mm\n"
                     "f0001,1,0,0,0,0,0,0\n")
    if case == "anchor_not_in_truth":
        pairs.write_text("anchor_id,query_id,gap_deg\nzzz,f0001,1.0\n")
        return ["eval", log, pairs, preds], no_frame
    assert case == "query_without_prediction"
    pairs.write_text("anchor_id,query_id,gap_deg\nf0000,f0001,1.0\nf0000,f0002,1.0\n")
    return ["eval", log, pairs, preds], (f"pairs.csv:3: no prediction for query "
                                         f"'f0002' in {preds}")


@pytest.mark.parametrize("case", ["report_without_bins", "report_nan_metric",
                                  "report_overflowing_metric",
                                  "pairs_without_anchor_id",
                                  "query_not_in_truth", "short_stage_row",
                                  "zero_bin_width", "negative_bin_width",
                                  "long_stage_row", "nan_stage_translation",
                                  "fractional_stage_index", "huge_stage_index",
                                  "nan_log_quaternion", "inf_log_translation",
                                  "bad_log_intrinsics",
                                  "nan_prediction_quaternion",
                                  "zero_prediction_quaternion",
                                  "huge_prediction_quaternion",
                                  "duplicate_prediction_id",
                                  "nan_biwi_translation",
                                  "nan_biwi_calibration",
                                  "config_medium_pair_kind",
                                  "config_upper_input_format",
                                  "nan_threshold_flag", "config_nan_lambda",
                                  "negative_n_pairs", "truncated_config",
                                  "truncated_report", "ragged_calibration",
                                  "non_orthonormal_calibration",
                                  "non_numeric_pairs_gap",
                                  "unsupported_log_version",
                                  "log_without_records",
                                  "negative_calibration_focal",
                                  "report_scalar_pairs", "nan_pairs_gap",
                                  "extra_pairs_column", "non_utf8_log",
                                  "non_utf8_biwi_pose", "config_infinite_n_pairs",
                                  "reflection_calibration",
                                  "negative_seed_simulate", "negative_seed_pairs",
                                  "config_bool_n_pairs", "config_fractional_frames",
                                  "biwi_comment_subject", "quoted_comma_subject",
                                  "out_of_order_log_index",
                                  "duplicate_log_frame_id",
                                  "config_negative_threshold",
                                  "config_infinite_threshold",
                                  "config_negative_gamma", "config_negative_lambda",
                                  "negative_threshold_flag",
                                  "config_negative_abs_base",
                                  "config_overflowing_abs_slope",
                                  "config_overflowing_rel_slope",
                                  "config_negative_rel_slope",
                                  "config_negative_trans_noise",
                                  "config_overflowing_trans_noise",
                                  "config_zero_frames", "config_zero_subjects",
                                  "config_yaw_min_above_max", "zero_frames_flag",
                                  "tiny_bin_width", "anchor_not_in_truth",
                                  "query_without_prediction",
                                  "pairs_gap_above_180", "negative_pairs_gap",
                                  "deeply_nested_report", "deeply_nested_config",
                                  "report_list_command", "report_object_command",
                                  "config_null_pose_glob",
                                  "config_list_calib_name", "report_string_pairs",
                                  "report_short_pair", "report_list_metrics",
                                  "quoted_comma_truth_frame",
                                  "third_subject_quoted_comma_frame_sweep",
                                  "third_subject_quoted_comma_frame_pairs"])
def test_malformed_input_is_a_typed_error(case, tmp_path, capsys):
    argv, named = malformed_input(case, tmp_path)
    capsys.readouterr()
    assert run(["--out", tmp_path / "o"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, expected", [
    ('{"yaw_min": 10, "yaw_max": 0}', "{cfg}: yaw_min 10.0 > {cfg}: yaw_max 0.0"),
    # a default is named by its key alone
    ('{"pitch_max": -70}', "pitch_min -60.0 > {cfg}: pitch_max -70.0"),
])
def test_min_above_max_names_both_keys(text, expected, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(["--out", tmp_path / "o", "--config", cfg, "simulate"]) == 2
    assert capsys.readouterr().err == f"error: {expected.format(cfg=cfg)}\n"
    assert not (tmp_path / "o").exists()


def test_main_does_not_hide_value_errors(tmp_path, monkeypatch):
    def fail(sampler):
        raise ValueError("not a typed error")
    monkeypatch.setattr(relhpe.sampling, "pose_rows", fail)
    with pytest.raises(ValueError, match="not a typed error"):
        run(["--out", tmp_path, "simulate"])


def test_subcommand_flags_are_settings():
    """Every subcommand flag is a SETTINGS key, spelled --key with '-' for
    '_', whose value only SETTINGS converts and checks."""
    bad = []
    for command, p in _subparsers(build_parser()).items():
        for action in p._actions:
            if not action.option_strings or action.dest == "help":
                continue
            flag = "--" + action.dest.replace("_", "-")
            if (action.dest not in SETTINGS[command]
                    or action.option_strings != [flag]
                    or action.choices is not None or action.type is not None):
                bad.append(f"{command} {'/'.join(action.option_strings)}")
    assert not bad, f"flags outside SETTINGS or with their own checks: {bad}"


def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_surface():
    """Each subcommand's positional inputs in order and its flags, as
    cli.COMMANDS builds them."""
    surface = {command: ([a.dest for a in p._actions if not a.option_strings],
                         sorted(o for a in p._actions for o in a.option_strings
                                if a.dest != "help"))
               for command, p in _subparsers(build_parser()).items()}
    assert surface == {
        "ingest": (["input"], ["--calib-name", "--input-format", "--pose-glob"]),
        "pairs": (["input"], ["--extreme-thresh-deg", "--max-gap-deg",
                              "--n-pairs", "--neutral-thresh-deg", "--pair-kind"]),
        "eval": (["truth", "pairs", "predictions"], []),
        "sweep": (["input"], ["--axis", "--bin-width-deg", "--policy",
                              "--threshold-deg"]),
        "simulate": ([], ["--frames-per-log", "--subjects"]),
        "loss": (["predictions", "truth"], []),
        "report": (["input"], []),
    }
