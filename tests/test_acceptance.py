"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines on the terminal.
"""

import contextlib
import math
import time

import numpy as np
import pytest
import scipy.stats

from relhpe import (AnchorPolicy, CropSpec, EulerAngles, Intrinsics,
                    LossConfig, NoiseModel, PoseSampler,
                    RelativeSimEstimator, Rotation, SE3Pose, StagePrediction,
                    apply_anchor, build_easy_pairs, build_hard_pairs,
                    compose_crops, crop_update_intrinsics, evaluate,
                    export_canonical, geodesic_deg, ingest_biwi,
                    ingest_canonical, logtan_fov, loss_cam, loss_fov,
                    loss_rotation_geodesic, loss_rotation_quat,
                    loss_translation, project, propagate_anchor_error,
                    relative, rotation_from_euler, sample_logs, sweep)
from relhpe.camera import CameraPose
from relhpe.harness import PairSet
from relhpe.reports import pairs_csv, pairs_payload

from conftest import frame_records, pose_log, random_pose, random_rotation
from test_harness import easy_fixture_log, hard_fixture_log, write_biwi_fixture


@contextlib.contextmanager
def criterion(n, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_01_composition_chain():
    rng = np.random.default_rng(101)
    with criterion(1, "composition chain"):
        start = time.monotonic()
        for _ in range(10 ** 5):
            anchor = random_pose(rng)
            query = random_pose(rng)
            recovered = apply_anchor(relative(query, anchor), anchor)
            assert geodesic_deg(recovered.rotation, query.rotation) < 1e-9
            assert np.linalg.norm(recovered.translation
                                  - query.translation) < 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"composition chain took {elapsed:.1f} s"


def test_02_anchor_error_propagation():
    rng = np.random.default_rng(202)
    with criterion(2, "anchor-error propagation"):
        for _ in range(10 ** 4):
            anchor = random_pose(rng)
            query = random_pose(rng)
            delta = rng.uniform(1e-6, 30.0)
            axis = rng.normal(size=3)
            predicted = SE3Pose(
                Rotation.from_axis_angle(axis, math.radians(delta))
                * anchor.rotation, anchor.translation, anchor.frame_tag)
            _, offset = propagate_anchor_error(anchor, predicted, query)
            assert abs(offset - delta) < 1e-9


def test_03_loss_suite():
    rng = np.random.default_rng(303)

    def cam(t, q, fh, fw):
        return CameraPose(np.array(t, dtype=float), q, fh, fw)

    with criterion(3, "loss suite"):
        # K = 1 equals the direct weighted sum exactly
        pred = cam((1, 2, 3), random_rotation(rng), 1.1, 0.9)
        true = cam((0, 1, 5), random_rotation(rng), 1.0, 1.2)
        cfg = LossConfig(lambda_t=1.0, lambda_r=1.0, lambda_f=0.5, gamma=0.6)
        total, _ = loss_cam([StagePrediction(1, pred, true)], cfg)
        direct = (loss_translation(pred.t, true.t)
                  + loss_rotation_quat(pred.q, true.q)
                  + 0.5 * loss_fov((pred.fov_h, pred.fov_w),
                                   (true.fov_h, true.fov_w)))
        assert total == direct

        # K = 4, gamma-parameterized, vs independent summation oracle
        for gamma in (0.3, 0.6, 1.0):
            stages, oracle = [], 0.0
            for k in range(1, 5):
                p = cam(tuple(rng.uniform(-5, 5, 3)), random_rotation(rng),
                        1.2, 0.8)
                t = cam(tuple(rng.uniform(-5, 5, 3)), random_rotation(rng),
                        1.0, 1.1)
                stages.append(StagePrediction(k, p, t))
                lt = sum(abs(a - b) for a, b in zip(p.t, t.t))
                lr = sum(abs(a - b) for a, b in zip(p.q.quat, t.q.quat))
                lf = abs((logtan_fov(p.fov_w) - logtan_fov(p.fov_h))
                         - (logtan_fov(t.fov_w) - logtan_fov(t.fov_h)))
                oracle += gamma ** (4 - k) * (lt + lr + 0.5 * lf)
            oracle /= 4
            total, _ = loss_cam(stages, LossConfig(gamma=gamma))
            assert abs(total - oracle) <= 1e-12 * max(oracle, 1.0)

        # fov loss invariant under a common log-tan offset
        for _ in range(100):
            p1, p2, t1, t2 = rng.uniform(0.3, 2.5, 4)
            base = loss_fov((p1, p2), (t1, t2))
            c = rng.uniform(-0.5, 0.5)
            q1 = 2 * math.atan(math.exp(logtan_fov(p1) + c))
            q2 = 2 * math.atan(math.exp(logtan_fov(p2) + c))
            assert abs(loss_fov((q1, q2), (t1, t2)) - base) < 1e-12

        # q and -q give zero quaternion loss
        for _ in range(100):
            raw = rng.normal(size=4)
            assert loss_rotation_quat(Rotation(*raw), Rotation(*(-raw))) == 0.0

        # finite-difference directional derivative of the geodesic loss
        h = 1e-6
        for _ in range(100):
            true_q = random_rotation(rng)
            angle = rng.uniform(0.2, math.pi - 0.2)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)

            def loss_at(eps):
                pred_q = Rotation.from_axis_angle(axis, angle + eps) * true_q
                return loss_rotation_geodesic(pred_q, true_q)

            fd = (loss_at(h) - loss_at(-h)) / (2 * h)
            assert abs(fd - 1.0) < 1e-4


def test_04_euler_metric():
    with criterion(4, "Euler metric / yaw offset"):
        # yaw values straddling the +-180 seam so wrapping is exercised
        yaws = [-179.0, -120.0, -45.0, 0.0, 30.0, 90.0, 150.0, 178.5, 179.5]
        log = pose_log([SE3Pose(rotation_from_euler(EulerAngles(y, 0, 0)),
                                np.zeros(3), "world") for y in yaws])
        pairs = PairSet("all", tuple(("f0", f"f{i}", 0.0)
                                     for i in range(len(yaws))), 0)
        preds = pose_log([SE3Pose(rotation_from_euler(EulerAngles(y + 3.0, 0, 0)),
                                  np.zeros(3), "world") for y in yaws])
        rep = evaluate(pairs, preds, log)
        assert abs(rep.yaw_mae - 3.0) < 1e-9
        assert rep.pitch_mae < 1e-9
        assert rep.roll_mae < 1e-9
        assert abs(rep.mae - 1.0) < 1e-9


def test_05_benchmark_constructors():
    with criterion(5, "benchmark pair constructors"):
        hard = build_hard_pairs(hard_fixture_log(), n_pairs=10 ** 6, seed=0)
        assert abs(hard.stats["gap_mean_deg"] - 70.0) < 0.5

        log = easy_fixture_log()
        easy = build_easy_pairs(log, neutral_thresh_deg=1000.0,
                                max_gap_deg=6.5, n_pairs=10 ** 6, seed=0)
        rots = [(f.frame_id, f.pose.rotation) for f in frame_records(log)]
        analytic = np.mean([geodesic_deg(ra, rb)
                            for ia, ra in rots for ib, rb in rots
                            if ia != ib and geodesic_deg(ra, rb) <= 6.5])
        assert abs(easy.stats["gap_mean_deg"] - analytic) < 0.2

        # seeded determinism, byte for byte
        a = build_hard_pairs(hard_fixture_log(), n_pairs=50, seed=7)
        b = build_hard_pairs(hard_fixture_log(), n_pairs=50, seed=7)
        assert (pairs_csv(pairs_payload(a)).encode()
                == pairs_csv(pairs_payload(b)).encode())
        c = build_easy_pairs(log, neutral_thresh_deg=1000.0, max_gap_deg=6.5,
                             n_pairs=8, seed=3)
        d = build_easy_pairs(log, neutral_thresh_deg=1000.0, max_gap_deg=6.5,
                             n_pairs=8, seed=3)
        assert (pairs_csv(pairs_payload(c)).encode()
                == pairs_csv(pairs_payload(d)).encode())


def test_06_sweep_phenomenology():
    with criterion(6, "sweep phenomenology"):
        start = time.monotonic()
        logs = sample_logs(PoseSampler(frames_per_log=250, subjects=4, seed=6))

        # gap-proportional noise: per-bin MAE rises monotonically with gap
        est = RelativeSimEstimator(
            "rel", NoiseModel(base_deg=0.5, slope_deg_per_deg=0.15, seed=1))
        rising = sweep(logs, est, AnchorPolicy("nearest_within",
                                               threshold_deg=90.0),
                       "anchor_query_gap", bin_width_deg=5.0)
        idx, maes = [], []
        for i, b in enumerate(rising.bins):
            if b.pair_count >= 30:
                idx.append(i)
                maes.append(b.reports["rel"].mae)
        assert len(idx) >= 3
        rho, _ = scipy.stats.spearmanr(idx, maes)
        assert rho > 0.9

        # tight anchors flatten the error-vs-absolute-pose curve; denser
        # logs so a 5-degree threshold still pairs most queries
        dense = sample_logs(PoseSampler(pitch_range=(-10.0, 10.0),
                                        roll_range=(-5.0, 5.0),
                                        frames_per_log=800, subjects=2,
                                        seed=7))
        base = 1.0
        est_flat = RelativeSimEstimator(
            "rel", NoiseModel(base_deg=base, slope_deg_per_deg=0.02, seed=2))
        flat = sweep(dense, est_flat, AnchorPolicy("nearest_within",
                                                   threshold_deg=5.0),
                     "absolute_query_pose", bin_width_deg=10.0)
        vals = [b.reports["rel"].mae for b in flat.bins if b.pair_count >= 30]
        assert len(vals) >= 3
        assert max(vals) - min(vals) < 2.0 * base
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"sweep phenomenology took {elapsed:.1f} s"


def test_07_adapter_and_round_trip(tmp_path):
    rng = np.random.default_rng(707)
    with criterion(7, "dataset adapter and round trip"):
        poses = [random_pose(rng, frame="depth") for _ in range(3)]
        calib_rot = rotation_from_euler(EulerAngles(4.0, -3.0, 2.0))
        calib_t = np.array([-30.0, 8.0, 15.0])
        write_biwi_fixture(tmp_path / "s01", poses,
                           np.array([[520.0, 0, 315], [0, 518.0, 242],
                                     [0, 0, 1]]),
                           calib_rot.as_matrix(), calib_t)
        log = ingest_biwi(tmp_path / "s01")
        rc = calib_rot.as_matrix()
        for f, p in zip(frame_records(log), poses):
            expected_r = rc @ p.rotation.as_matrix()
            expected_t = rc @ p.translation + calib_t
            assert np.max(np.abs(f.pose.rotation.as_matrix()
                                 - expected_r)) < 1e-9
            assert np.max(np.abs(f.pose.translation - expected_t)) < 1e-9

        # canonical export/ingest is lossless across 100 random logs
        for i in range(100):
            k = (Intrinsics(500.0, 510.0, 320.0, 240.0, 640.0, 480.0)
                 if i % 2 == 0 else None)
            src = pose_log([random_pose(rng) for _ in range(5)], f"subj{i}",
                           intrinsics=[k] * 5)
            path = tmp_path / f"log{i}.csv"
            export_canonical(src, path)
            back = ingest_canonical(path)
            for fa, fb in zip(frame_records(src), frame_records(back)):
                assert fa.pose.rotation == fb.pose.rotation
                assert np.array_equal(fa.pose.translation,
                                      fb.pose.translation)


def test_08_crop_intrinsics():
    rng = np.random.default_rng(808)
    with criterion(8, "crop intrinsics"):
        k = Intrinsics(480.0, 500.0, 310.0, 255.0, 640.0, 480.0)
        for _ in range(10 ** 3):
            crop = CropSpec(x0=rng.uniform(0, 300), y0=rng.uniform(0, 200),
                            side=rng.uniform(50, 400), out_size=224)
            p = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(0.5, 10)])
            full = project(k, p)
            s = crop.out_size / crop.side
            oracle = np.array([(full[0] - crop.x0) * s,
                               (full[1] - crop.y0) * s])
            cropped = project(crop_update_intrinsics(k, crop), p)
            assert np.linalg.norm(cropped - oracle) < 1e-7

        for _ in range(200):
            c1 = CropSpec(rng.uniform(0, 100), rng.uniform(0, 100),
                          rng.uniform(100, 400), 256)
            c2 = CropSpec(rng.uniform(0, 100), rng.uniform(0, 100),
                          rng.uniform(50, 150), 128)
            twice = crop_update_intrinsics(crop_update_intrinsics(k, c1), c2)
            once = crop_update_intrinsics(k, compose_crops(c1, c2))
            for attr in ("fx", "fy", "cx", "cy", "width", "height"):
                assert abs(getattr(twice, attr) - getattr(once, attr)) < 1e-9
