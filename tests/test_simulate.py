import math

import numpy as np
import pytest

from relhpe import (AbsoluteSimEstimator, AnchorPolicy, NoiseModel, PoseLog,
                    PoseSampler, RelativeSimEstimator, Rotation, SE3Pose,
                    TableEstimator, apply_anchor, build_easy_pairs,
                    euler_from_rotation, geodesic_deg, load_predictions_csv,
                    predict_pairs, run_end_to_end, sample_logs)
from relhpe.errors import DomainError, EmptyRange, ParseError
from relhpe.poselog import FrameRecord
from relhpe.simulate import simulate_absolute, simulate_relative, _query_rng

from conftest import random_pose, yaw_pose


def make_log(poses, subject="s1"):
    frames = tuple(FrameRecord(f"f{i:04d}", i, p) for i, p in enumerate(poses))
    return PoseLog(subject, frames, "world")


class TestNoiseModel:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseModel(base_deg=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(trans_noise_mm=-0.1)
        with pytest.raises(DomainError):
            NoiseModel(slope_deg_per_deg=math.nan)

    def test_zero_noise_is_identity(self, rng):
        nm = NoiseModel()
        for _ in range(10):
            truth = random_pose(rng)
            out = simulate_absolute(truth, nm, Rotation.identity(),
                                    np.random.default_rng(0))
            assert geodesic_deg(out.rotation, truth.rotation) == 0.0
            assert np.array_equal(out.translation, truth.translation)


class TestExactMagnitude:
    def test_absolute_base_only(self, rng):
        # configured magnitude is applied exactly, not drawn from a
        # distribution, so every sample sits at 5 degrees
        nm = NoiseModel(base_deg=5.0, trans_noise_mm=3.0)
        for i in range(200):
            truth = random_pose(rng)
            out = simulate_absolute(truth, nm, Rotation.identity(),
                                    np.random.default_rng(i))
            assert abs(geodesic_deg(out.rotation, truth.rotation) - 5.0) < 1e-9
            assert abs(np.linalg.norm(out.translation - truth.translation)
                       - 3.0) < 1e-9

    def test_absolute_slope(self, rng):
        nm = NoiseModel(base_deg=1.0, slope_deg_per_deg=0.1)
        ref = Rotation.identity()
        for i in range(200):
            truth = random_pose(rng)
            dist = geodesic_deg(truth.rotation, ref)
            out = simulate_absolute(truth, nm, ref, np.random.default_rng(i))
            err = geodesic_deg(out.rotation, truth.rotation)
            assert abs(err - (1.0 + 0.1 * dist)) < 1e-9

    def test_relative_gap_scaling(self, rng):
        nm = NoiseModel(base_deg=0.5, slope_deg_per_deg=0.05)
        for i in range(200):
            anchor, query = random_pose(rng), random_pose(rng)
            gap = geodesic_deg(anchor.rotation, query.rotation)
            rel = simulate_relative(anchor, query, nm, np.random.default_rng(i))
            recovered = apply_anchor(rel, anchor)
            err = geodesic_deg(recovered.rotation, query.rotation)
            assert abs(err - (0.5 + 0.05 * gap)) < 1e-9

    def test_monte_carlo_mean(self, rng):
        nm = NoiseModel(base_deg=5.0)
        errs = []
        for i in range(500):
            truth = random_pose(rng)
            out = simulate_absolute(truth, nm, Rotation.identity(),
                                    np.random.default_rng(i))
            errs.append(geodesic_deg(out.rotation, truth.rotation))
        assert abs(np.mean(errs) - 5.0) < 0.2


class TestDeterminism:
    def test_same_seed_same_prediction(self, rng):
        truth = random_pose(rng)
        a = AbsoluteSimEstimator("a", NoiseModel(base_deg=4.0, seed=7))
        b = AbsoluteSimEstimator("b", NoiseModel(base_deg=4.0, seed=7))
        pa = a.predict_absolute("s1", "f0001", truth)
        pb = b.predict_absolute("s1", "f0001", truth)
        assert pa.rotation == pb.rotation
        assert np.array_equal(pa.translation, pb.translation)

    def test_different_seed_differs(self, rng):
        truth = random_pose(rng)
        a = AbsoluteSimEstimator("a", NoiseModel(base_deg=4.0, seed=7))
        b = AbsoluteSimEstimator("b", NoiseModel(base_deg=4.0, seed=8))
        pa = a.predict_absolute("s1", "f0001", truth)
        pb = b.predict_absolute("s1", "f0001", truth)
        assert pa.rotation != pb.rotation

    def test_stream_independent_of_order(self, rng):
        # per-query streams come from (seed, subject, frame), not call order
        truth1, truth2 = random_pose(rng), random_pose(rng)
        est = AbsoluteSimEstimator("e", NoiseModel(base_deg=3.0, seed=1))
        forward = [est.predict_absolute("s", "fA", truth1),
                   est.predict_absolute("s", "fB", truth2)]
        backward = [est.predict_absolute("s", "fB", truth2),
                    est.predict_absolute("s", "fA", truth1)]
        assert forward[0].rotation == backward[1].rotation
        assert forward[1].rotation == backward[0].rotation

    def test_query_rng_distinct_streams(self):
        a = _query_rng(0, "s1", "f1").uniform()
        b = _query_rng(0, "s1", "f2").uniform()
        c = _query_rng(1, "s1", "f1").uniform()
        assert a != b and a != c


class TestSampleLogs:
    def test_shape_and_frame0(self):
        sampler = PoseSampler(frames_per_log=20, subjects=3, seed=5)
        logs = sample_logs(sampler)
        assert len(logs) == 3
        for log in logs:
            assert len(log) == 20
            first = log.frames[0].pose
            assert first.rotation == Rotation.identity()
            assert np.array_equal(first.translation, np.zeros(3))

    def test_ranges_respected(self):
        sampler = PoseSampler(yaw_range=(-30, 30), pitch_range=(-10, 10),
                              roll_range=(-5, 5), trans_range_mm=(-50, 50),
                              frames_per_log=200, subjects=2, seed=11)
        for log in sample_logs(sampler):
            for f in log.frames[1:]:
                e = euler_from_rotation(f.pose.rotation)
                assert -30 - 1e-9 <= e.yaw <= 30 + 1e-9
                assert -10 - 1e-9 <= e.pitch <= 10 + 1e-9
                assert -5 - 1e-9 <= e.roll <= 5 + 1e-9
                assert np.all(np.abs(f.pose.translation) <= 50 + 1e-9)

    def test_deterministic(self):
        a = sample_logs(PoseSampler(frames_per_log=10, subjects=2, seed=3))
        b = sample_logs(PoseSampler(frames_per_log=10, subjects=2, seed=3))
        for la, lb in zip(a, b):
            for fa, fb in zip(la.frames, lb.frames):
                assert fa.pose.rotation == fb.pose.rotation
                assert np.array_equal(fa.pose.translation, fb.pose.translation)

    def test_validation(self):
        with pytest.raises(EmptyRange):
            PoseSampler(yaw_range=(10, -10))
        with pytest.raises(EmptyRange):
            PoseSampler(frames_per_log=0)


class TestTableEstimator:
    def test_lookup(self, rng):
        truth = random_pose(rng)
        stored = random_pose(rng)
        est = TableEstimator("t", {"f1": stored})
        out = est.predict_absolute("s", "f1", truth)
        assert out.rotation == stored.rotation
        assert out.frame_tag == truth.frame_tag

    def test_missing(self, rng):
        est = TableEstimator("t", {})
        with pytest.raises(KeyError):
            est.predict_absolute("s", "f1", random_pose(rng))


class TestEndToEnd:
    def _logs(self):
        return sample_logs(PoseSampler(frames_per_log=60, subjects=2, seed=9))

    def test_perfect_estimator_zero_error(self):
        logs = self._logs()
        est = AbsoluteSimEstimator("perfect", NoiseModel())
        out = run_end_to_end(logs, est, benchmark={
            "kind": "easy", "neutral_thresh_deg": 1000.0,
            "max_gap_deg": 30.0, "n_pairs": 50, "seed": 0})
        rep = out["perfect"]
        assert rep.n > 0
        assert rep.geodesic_mae < 1e-9
        assert rep.mae < 1e-9

    def test_relative_beats_noisier_absolute(self):
        logs = self._logs()
        good = RelativeSimEstimator("rel", NoiseModel(base_deg=1.0, seed=2))
        bad = AbsoluteSimEstimator("abs", NoiseModel(base_deg=8.0, seed=2))
        out = run_end_to_end(logs, [good, bad], benchmark={
            "kind": "hard", "neutral_thresh_deg": 40.0,
            "extreme_thresh_deg": 50.0, "n_pairs": 100, "seed": 0})
        assert out["rel"].geodesic_mae < out["abs"].geodesic_mae

    def test_sweep_recovers_noise_slope(self):
        # binned mean error along the gap axis should track the configured
        # linear noise law: fit a line through bin centers, slope within 10%
        logs = sample_logs(PoseSampler(frames_per_log=150, subjects=3, seed=4))
        est = RelativeSimEstimator(
            "rel", NoiseModel(base_deg=1.0, slope_deg_per_deg=0.2, seed=6))
        report = run_end_to_end(
            logs, est, policy=AnchorPolicy("nearest_within", threshold_deg=60.0),
            benchmark={"kind": "sweep", "axis": "anchor_query_gap",
                       "bin_width_deg": 5.0})
        xs, ys = [], []
        for b in report.bins:
            if b.pair_count >= 10:
                xs.append(0.5 * (b.lo + b.hi))
                ys.append(b.reports["rel"].geodesic_mae)
        assert len(xs) >= 3
        slope, _ = np.polyfit(xs, ys, 1)
        assert abs(slope - 0.2) < 0.02

    def test_end_to_end_deterministic(self):
        logs = self._logs()
        est = AbsoluteSimEstimator("a", NoiseModel(base_deg=3.0, seed=1))
        bench = {"kind": "easy", "neutral_thresh_deg": 1000.0,
                 "max_gap_deg": 30.0, "n_pairs": 40, "seed": 5}
        r1 = run_end_to_end(logs, est, benchmark=dict(bench))["a"]
        r2 = run_end_to_end(logs, est, benchmark=dict(bench))["a"]
        assert r1 == r2

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError):
            run_end_to_end(self._logs(), AbsoluteSimEstimator("a", NoiseModel()),
                           benchmark={"kind": "bogus"})


class TestPredictPairs:
    def test_relative_composition_identity(self, rng):
        # composing a zero-noise relative prediction with its anchor must
        # recover the ground-truth query exactly
        log = make_log([yaw_pose(10 * i) for i in range(6)])
        pairs = build_easy_pairs(log, neutral_thresh_deg=1000.0,
                                 max_gap_deg=15.0, n_pairs=10, seed=0)
        est = RelativeSimEstimator("r", NoiseModel())
        preds = predict_pairs(log, pairs, est)
        for _, query_id, _ in pairs.pairs:
            truth = log.pose_of(query_id)
            assert geodesic_deg(preds[query_id].rotation, truth.rotation) < 1e-9


class TestLoadPredictionsCsv:
    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "preds.csv"
        poses = {f"f{i}": random_pose(rng) for i in range(5)}
        lines = ["query_id,qw,qx,qy,qz,tx_mm,ty_mm,tz_mm"]
        for qid, p in poses.items():
            q, t = p.rotation, p.translation
            lines.append(",".join([qid] + [repr(float(v)) for v in
                                           (q.w, q.x, q.y, q.z, t[0], t[1], t[2])]))
        path.write_text("\n".join(lines) + "\n")
        back = load_predictions_csv(path)
        assert set(back) == set(poses)
        for qid in poses:
            assert back[qid].rotation == poses[qid].rotation
            assert np.array_equal(back[qid].translation, poses[qid].translation)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("# a comment\nf0,1,0,0,0,1.0,2.0,3.0\n")
        back = load_predictions_csv(path)
        assert list(back) == ["f0"]

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("f0,1,0,0\n")
        with pytest.raises(ParseError):
            load_predictions_csv(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("f0,one,0,0,0,0,0,0\n")
        with pytest.raises(ParseError):
            load_predictions_csv(path)
