import math
import os
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relhpe.anchors
import relhpe.harness
from relhpe import (AbsoluteSimEstimator, AnchorPolicy, EulerAngles,
                    NoiseModel, PoseLog, PoseSampler, RelativeSimEstimator, Rotation, SE3Pose,
                    anchor_arrays, build_easy_pairs,
                    build_hard_pairs, compose, evaluate, export_canonical,
                    geodesic_deg, geodesic_deg_many, ingest_biwi,
                    ingest_canonical, ingest_canonical_all,
                    load_predictions_csv, neutral_reference, pair_batch,
                    rotation_from_euler, sample_logs, score, sweep, wrap_deg)
from relhpe.anchors import POLICY_KINDS
from relhpe.camera import Intrinsics
from relhpe.harness import error_arrays, report_from_samples
from relhpe.rotation import hamilton
from relhpe.rows import csv_rows
from relhpe.errors import (DomainError, InsufficientFrames, InvariantViolation,
                           MalformedPoseFile, MissingCalibration,
                           MissingPrediction, ParseError, UnknownFrame)

from conftest import (frame_records, pose_log, random_pose,
                      write_biwi_fixture, yaw_pose)


def euler_pose(yaw, pitch=0.0, roll=0.0, t=(0, 0, 0), frame="world"):
    return SE3Pose(rotation_from_euler(EulerAngles(yaw, pitch, roll)),
                   np.array(t, dtype=float), frame)


def make_log(poses, subject="s1", intrinsics=None):
    return pose_log(poses, subject, [f"f{i:04d}" for i in range(len(poses))],
                    [intrinsics] * len(poses))


# ---------------------------------------------------------------------------
# canonical format


class TestCsvRows:
    def test_skipped_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(" ID,v\n\n  , \n# note\na,1\n#x,2\nid,3\n")
        assert list(csv_rows(path, (2,), header=("id",))) == [
            (5, ["a", "1"]), (7, ["id", "3"])]

    def test_width(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("a,1\nb,2,3\n")
        with pytest.raises(ParseError,
                           match="rows.csv:2: expected 2 or 4 fields, got 3"):
            list(csv_rows(path, (2, 4)))

    def test_bad_byte_names_its_line(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"a,1\n# note \xff\nb,2\n")
        rows = csv_rows(path, (2,))
        assert next(rows) == (1, ["a", "1"])
        with pytest.raises(ParseError, match="rows.csv:2: 'utf-8' codec can't "
                                             "decode byte 0xff in position 7"):
            next(rows)

    def test_bad_row_before_a_bad_byte_is_named(self, tmp_path):
        """The file is decoded as it is read, so an earlier bad row is found
        before a bad byte further down."""
        log = tmp_path / "bad.csv"
        log.write_bytes(b"# poselog v1 frame=world\ns,f0,0,1,0,0,0,0,0,0\n"
                        b"s,f1,7,1,0,0,0,0,0,0\ns,f2,2,1,0,0,0,0,0,\xff\n")
        with pytest.raises(ParseError, match="bad.csv:3: .* has index 7"):
            ingest_canonical_all(log)
        preds = tmp_path / "preds.csv"
        preds.write_bytes(b"f0,0,0,0,0,0,0,0\n"
                          + b"".join(b"f%d,1,0,0,0,0,0,0\n" % i for i in range(1, 201))
                          + b"f201,1,0,0,0,0,0,\xff\n")
        with pytest.raises(ParseError, match="preds.csv:1: quaternion norm 0.0"):
            load_predictions_csv(preds)
        preds.write_bytes(preds.read_bytes().replace(b"f0,0,", b"f0,1,"))
        with pytest.raises(ParseError, match="preds.csv:202: 'utf-8' codec"):
            load_predictions_csv(preds)


class TestCanonicalFormat:
    def test_minimal_one_frame(self, tmp_path):
        path = tmp_path / "log.csv"
        log = make_log([yaw_pose(10)])
        export_canonical(log, path)
        back = ingest_canonical(path)
        assert len(back) == 1
        assert back.subject_id == "s1"
        assert geodesic_deg(frame_records(back)[0].pose.rotation,
                            frame_records(log)[0].pose.rotation) < 1e-12

    def test_bad_quaternion_norm_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("# poselog v1 frame=world\n"
                        "s1,f0,0,0.9,0.0,0.0,0.0,1.0,2.0,3.0\n")
        with pytest.raises(InvariantViolation):
            ingest_canonical(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("s1,f0,0,1,0,0,0,0,0,0\n")
        with pytest.raises(ParseError):
            ingest_canonical(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("# poselog v1 frame=world\ns1,f0,0,1,0,0\n")
        with pytest.raises(ParseError) as e:
            ingest_canonical(path)
        assert ":2:" in str(e.value)

    def test_round_trip_random_logs(self, tmp_path, rng):
        for i in range(100):
            with_k = i % 3 == 0
            k = Intrinsics(500.0, 510.0, 320.0, 240.0, 640.0, 480.0) if with_k else None
            log = make_log([random_pose(rng, frame="rgb") for _ in range(5)],
                           subject=f"subj{i}", intrinsics=k)
            path = tmp_path / f"log{i}.csv"
            export_canonical(log, path)
            back = ingest_canonical(path)
            assert back.subject_id == log.subject_id
            assert back.frame_tag == "rgb"
            for fa, fb in zip(frame_records(log), frame_records(back)):
                assert fa.frame_id == fb.frame_id and fa.index == fb.index
                assert geodesic_deg(fa.pose.rotation, fb.pose.rotation) < 1e-12
                assert np.array_equal(fa.pose.translation, fb.pose.translation)
                assert fa.intrinsics == fb.intrinsics
            # re-export reproduces the file
            path2 = tmp_path / f"log{i}b.csv"
            export_canonical(back, path2)
            again = ingest_canonical(path2)
            for fa, fb in zip(frame_records(back), frame_records(again)):
                assert fa.pose.rotation == fb.pose.rotation

    def test_unusual_ids_round_trip(self, tmp_path):
        """Ids the CSV reader takes literally survive export and ingest."""
        log = pose_log([yaw_pose(0), yaw_pose(5)], " s#1", ['a"b', " x "])
        path = tmp_path / "log.csv"
        export_canonical(log, path)
        back = ingest_canonical(path)
        assert back.subject_id == " s#1"
        assert [f.frame_id for f in frame_records(back)] == ['a"b', " x "]

    @pytest.mark.parametrize("subject, frame_id", [
        ("#s01", "f0"), (" #s01", "f0"), ('"s"', "f0"), ("s,1", "f0"),
        ("s", "#f0"), ("s", "f,0"), ("s", "f\n0"), ("s", "f\r0")])
    def test_unwritable_ids_rejected(self, subject, frame_id):
        with pytest.raises(InvariantViolation, match="cannot be written"):
            pose_log([yaw_pose(0)], subject, [frame_id])

    def test_multi_subject(self, tmp_path):
        path = tmp_path / "log.csv"
        logs = [make_log([yaw_pose(5)], subject="a"),
                make_log([yaw_pose(10)], subject="b")]
        export_canonical(logs, path)
        back = ingest_canonical_all(path)
        assert [l.subject_id for l in back] == ["a", "b"]
        with pytest.raises(ParseError):
            ingest_canonical(path)


# ---------------------------------------------------------------------------
# BIWI-style adapter


class TestBiwiAdapter:
    def test_identity_calibration_passthrough(self, tmp_path, rng):
        poses = [random_pose(rng, frame="depth") for _ in range(3)]
        write_biwi_fixture(tmp_path / "s01", poses,
                           np.diag([500.0, 500.0, 1.0]) + np.array(
                               [[0, 0, 320], [0, 0, 240], [0, 0, 0]]),
                           np.eye(3), np.zeros(3))
        log = ingest_biwi(tmp_path / "s01")
        assert log.frame_tag == "rgb"
        for f, p in zip(frame_records(log), poses):
            assert geodesic_deg(f.pose.rotation, p.rotation) < 1e-9
            assert np.allclose(f.pose.translation, p.translation, atol=1e-9)

    def test_pure_translation_calibration(self, tmp_path, rng):
        poses = [random_pose(rng, frame="depth") for _ in range(3)]
        shift = np.array([10.0, -20.0, 5.0])
        write_biwi_fixture(tmp_path / "s02", poses,
                           np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1]]),
                           np.eye(3), shift)
        log = ingest_biwi(tmp_path / "s02")
        for f, p in zip(frame_records(log), poses):
            assert geodesic_deg(f.pose.rotation, p.rotation) < 1e-9
            assert np.allclose(f.pose.translation, p.translation + shift, atol=1e-9)

    def test_nontrivial_calibration_hand_composed(self, tmp_path, rng):
        poses = [random_pose(rng, frame="depth") for _ in range(3)]
        calib_rot = rotation_from_euler(EulerAngles(3.0, -2.0, 1.5))
        calib_t = np.array([-25.0, 4.0, 12.0])
        write_biwi_fixture(tmp_path / "s03", poses,
                           np.array([[520.0, 0, 315], [0, 518.0, 242], [0, 0, 1]]),
                           calib_rot.as_matrix(), calib_t)
        log = ingest_biwi(tmp_path / "s03")
        rc = calib_rot.as_matrix()
        for f, p in zip(frame_records(log), poses):
            # hand-composed oracle: R = Rc Rd, t = Rc td + tc
            expected_r = rc @ p.rotation.as_matrix()
            expected_t = rc @ p.translation + calib_t
            assert np.allclose(f.pose.rotation.as_matrix(), expected_r, atol=1e-9)
            assert np.allclose(f.pose.translation, expected_t, atol=1e-9)
        # intrinsics carried from calibration
        k = frame_records(log)[0].intrinsics
        assert (k.fx, k.fy, k.cx, k.cy) == (520.0, 518.0, 315.0, 242.0)
        assert (k.width, k.height) == (640.0, 480.0)

    def test_calibration_not_idempotent(self, tmp_path, rng):
        # applying a non-identity calibration twice must differ from once
        pose = random_pose(rng, frame="depth")
        calib = SE3Pose(rotation_from_euler(EulerAngles(5.0, 0, 0)),
                        np.array([1.0, 0, 0]), "rgb")
        once = compose(calib, pose)
        twice = compose(calib, once)
        assert geodesic_deg(once.rotation, twice.rotation) > 1.0

    def test_missing_calibration(self, tmp_path):
        os.makedirs(tmp_path / "s04", exist_ok=True)
        with pytest.raises(MissingCalibration):
            ingest_biwi(tmp_path / "s04")

    def test_malformed_pose_file(self, tmp_path, rng):
        root = tmp_path / "s05"
        write_biwi_fixture(root, [random_pose(rng, frame="depth")],
                           np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1]]),
                           np.eye(3), np.zeros(3))
        with open(root / "frame_00000_pose.txt", "w") as fh:
            fh.write("1 2 3\n")
        with pytest.raises(MalformedPoseFile):
            ingest_biwi(root)


# ---------------------------------------------------------------------------
# pair construction


def hard_fixture_log():
    """20 near-neutral frames (yaw -2..2) and 10 extreme ones (yaw 65..75);
    all anchor-query gaps then average exactly 70 degrees."""
    yaws = list(np.linspace(-2, 2, 20)) + list(np.linspace(65, 75, 10))
    return make_log([euler_pose(y) for y in yaws])


class TestNeutralReference:
    def test_picks_central_frame(self):
        log = hard_fixture_log()
        ref = neutral_reference(log)
        # the reference must be one of the near-neutral frames
        assert geodesic_deg(ref, Rotation.identity()) < 3.0

    def test_matches_brute_force(self, rng):
        log = make_log([random_pose(rng) for _ in range(15)])
        ref = neutral_reference(log)
        rots = [f.pose.rotation for f in frame_records(log)]
        means = [sum(geodesic_deg(r, o) for o in rots) / len(rots) for r in rots]
        assert ref == rots[means.index(min(means))]


class TestHardPairs:
    def test_all_neutral_raises(self):
        log = make_log([euler_pose(y) for y in np.linspace(-5, 5, 10)])
        with pytest.raises(InsufficientFrames) as e:
            build_hard_pairs(log)
        assert e.value.n_extreme == 0

    def test_two_frame_log(self):
        log = make_log([euler_pose(2.0), euler_pose(77.0)])
        ps = build_hard_pairs(log, neutral_thresh_deg=15, extreme_thresh_deg=45,
                              n_pairs=10, seed=1)
        assert ps.stats["count"] == 1
        assert abs(ps.pairs[0][2] - 75.0) < 1e-9

    def test_negative_n_pairs(self):
        log = make_log([euler_pose(y) for y in (0.0, 2.0, 60.0)])
        with pytest.raises(DomainError):
            build_hard_pairs(log, n_pairs=-1)
        with pytest.raises(DomainError):
            build_easy_pairs(log, n_pairs=-1)

    @pytest.mark.parametrize("build", [build_hard_pairs, build_easy_pairs])
    @pytest.mark.parametrize("kwargs, setting", [
        ({"n_pairs": 2.5}, "n_pairs"), ({"n_pairs": True}, "n_pairs"),
        ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"),
    ], ids=["fractional_n_pairs", "bool_n_pairs", "negative_seed", "float_seed"])
    def test_counts_and_seeds_checked_at_entry(self, build, kwargs, setting):
        # a log with no pair either way: the check comes before any work
        log = make_log([euler_pose(0.0)])
        with pytest.raises(DomainError) as e:
            build(log, **kwargs)
        assert e.value.setting == setting

    def test_mean_gap_engineered_to_70(self):
        ps = build_hard_pairs(hard_fixture_log(), n_pairs=10 ** 6, seed=0)
        assert abs(ps.stats["gap_mean_deg"] - 70.0) < 0.5

    def test_deterministic_under_seed(self):
        log = hard_fixture_log()
        a = build_hard_pairs(log, n_pairs=50, seed=7)
        b = build_hard_pairs(log, n_pairs=50, seed=7)
        c = build_hard_pairs(log, n_pairs=50, seed=8)
        assert a.pairs == b.pairs
        assert a.pairs != c.pairs

    def test_anchor_neutral_query_extreme(self):
        log = hard_fixture_log()
        ps = build_hard_pairs(log, n_pairs=100, seed=0)
        ref, records = neutral_reference(log), frame_records(log)
        for anchor_id, query_id, _ in ps.pairs:
            anchor = records[log.position(anchor_id)].pose
            query = records[log.position(query_id)].pose
            assert geodesic_deg(ref, anchor.rotation) < 15.0
            assert geodesic_deg(ref, query.rotation) > 45.0

    def test_sampling_memory_not_neutral_times_extreme(self):
        """At thresholds (180, 0) every frame is both neutral and extreme:
        about 4M candidates at 2000 frames, which took some 130 MB as
        position arrays.  Drawing 360 of them needs positions for those
        only."""
        log = sample_logs(PoseSampler(frames_per_log=2000, subjects=1))[0]
        tracemalloc.start()
        try:
            ps = build_hard_pairs(log, 180.0, 0.0, n_pairs=360)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ps.pairs) == 360
        assert peak < 5 * 2 ** 20


def easy_fixture_log():
    """Yaw clusters 30 degrees apart; within each cluster one pair whose gap
    walks uniformly over [2, 6], so candidate gaps average exactly 4."""
    gaps = np.linspace(2.0, 6.0, 9)
    poses = []
    for i, g in enumerate(gaps):
        base = 30.0 * i
        poses.append(euler_pose(base))
        poses.append(euler_pose(base + g))
    return make_log(poses)


class TestEasyPairs:
    def test_identical_pose_log(self):
        log = make_log([euler_pose(1.0)] * 5)
        ps = build_easy_pairs(log, n_pairs=100, seed=0)
        assert all(g == 0.0 for _, _, g in ps.pairs)

    def test_uniform_gap_fixture_mean(self):
        ps = build_easy_pairs(easy_fixture_log(), neutral_thresh_deg=1000.0,
                              max_gap_deg=6.5, n_pairs=10 ** 6, seed=0)
        assert abs(ps.stats["gap_mean_deg"] - 4.0) < 0.2

    def test_analytic_enumeration_oracle(self):
        log = easy_fixture_log()
        ps = build_easy_pairs(log, neutral_thresh_deg=1000.0, max_gap_deg=6.5,
                              n_pairs=10 ** 6, seed=0)
        # brute-force enumeration of admissible ordered pairs
        rots = [(f.frame_id, f.pose.rotation) for f in frame_records(log)]
        expected = [geodesic_deg(ra, rb)
                    for ia, ra in rots for ib, rb in rots
                    if ia != ib and geodesic_deg(ra, rb) <= 6.5]
        assert ps.stats["count"] == len(expected)
        assert abs(ps.stats["gap_mean_deg"] - np.mean(expected)) < 1e-9

    def test_no_pairs_under_gap(self):
        log = make_log([euler_pose(0.0), euler_pose(10.0)])
        with pytest.raises(InsufficientFrames):
            build_easy_pairs(log, max_gap_deg=5.0)

    def test_gap_cap_respected(self):
        ps = build_easy_pairs(easy_fixture_log(), neutral_thresh_deg=1000.0,
                              max_gap_deg=6.5, n_pairs=10 ** 6, seed=0)
        assert ps.stats["gap_max_deg"] <= 6.5


class TestFrameSetKernel:
    def test_no_scalar_geodesic_calls(self, monkeypatch):
        """Anchor choice, the medoid and both candidate lists go through the
        batched kernel only; the scalar stays the per-query path."""
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return geodesic_deg(a, b)

        for module in (relhpe.anchors, relhpe.harness):
            # harness binds no scalar geodesic_deg since the sweep is batched
            monkeypatch.setattr(module, "geodesic_deg", counting, raising=False)
        log = make_log([euler_pose(y, 0.1 * y) for y in np.linspace(-80, 80, 200)])
        for kind in POLICY_KINDS:
            out = anchor_arrays(log, AnchorPolicy(kind, 10.0))
            assert len(out.anchor) == 200
        neutral_reference(log)
        assert build_easy_pairs(log, n_pairs=50).stats["count"] == 50
        assert build_hard_pairs(log, n_pairs=50).stats["count"] == 50
        assert calls == []

    def test_hard_pairs_measure_only_kept_rows(self, monkeypatch):
        """build_hard_pairs runs the kernel on each frame's distance to the
        neutral reference, then on the sampled pairs only: no row per
        candidate."""
        log = make_log([euler_pose(y, 0.1 * y) for y in np.linspace(-80, 80, 400)])
        dist = geodesic_deg_many(neutral_reference(log).quat, log.quats)
        n_pairs = 50
        assert (dist < 15.0).sum() * (dist > 45.0).sum() > 10 * n_pairs
        rows = []
        kernel = relhpe.harness.geodesic_deg_many

        def counting(p, q):
            rows.append(max(len(np.atleast_2d(p)), len(np.atleast_2d(q))))
            return kernel(p, q)

        monkeypatch.setattr(relhpe.harness, "geodesic_deg_many", counting)
        assert len(build_hard_pairs(log, n_pairs=n_pairs).pairs) == n_pairs
        assert sum(rows) <= len(log) + n_pairs


class TestPoseLog:
    def test_position(self):
        log = make_log([yaw_pose(0), yaw_pose(10)])
        assert log.position("f0001") == 1
        with pytest.raises(UnknownFrame, match="'f0002'"):
            log.position("f0002")

    @pytest.mark.parametrize("tag", ["my frame", "a\nb", "tab\t", "\u2003"])
    def test_frame_tag_with_whitespace_rejected(self, tag):
        """The canonical header splits on whitespace, so such a tag would
        not read back ('my frame' as 'my'; 'a\nb' breaks the file)."""
        with pytest.raises(InvariantViolation, match="frame tag"):
            make_log([SE3Pose(Rotation.identity(), np.zeros(3), tag)])

    def test_quats_read_only(self, rng):
        log = make_log([random_pose(rng) for _ in range(3)])
        assert log.quats.tolist() == [list(f.pose.rotation.quat)
                                      for f in frame_records(log)]
        with pytest.raises(ValueError):
            log.quats[0, 0] = 1.0


# ---------------------------------------------------------------------------
# evaluation


class TestEvaluate:
    def test_perfect_predictions(self, rng):
        log = make_log([random_pose(rng) for _ in range(6)])
        ps = build_easy_pairs(log, neutral_thresh_deg=1000, max_gap_deg=360,
                              n_pairs=50, seed=0)
        rep = evaluate(ps, log, log)  # the truth as its own prediction table
        assert rep.mae == 0.0 and rep.geodesic_mae == 0.0
        assert rep.yaw_mae == rep.pitch_mae == rep.roll_mae == 0.0
        assert rep.t_l2_mm == 0.0

    def test_yaw_offset_three_degrees(self):
        truths = [euler_pose(y, p, r) for y, p, r in
                  [(0, 5, -3), (10, -8, 2), (-15, 3, 7), (4, 0, 0)]]
        log = make_log(truths)
        ps = build_easy_pairs(log, neutral_thresh_deg=1000, max_gap_deg=360,
                              n_pairs=1000, seed=0)
        preds = {}
        for f in frame_records(log):
            from relhpe import euler_from_rotation
            e = euler_from_rotation(f.pose.rotation)
            preds[f.frame_id] = euler_pose(e.yaw + 3.0, e.pitch, e.roll,
                                           t=tuple(f.pose.translation))
        rep = evaluate(ps, pose_log(preds), log)
        assert abs(rep.yaw_mae - 3.0) < 1e-9
        assert rep.pitch_mae < 1e-9 and rep.roll_mae < 1e-9
        assert abs(rep.mae - 1.0) < 1e-9

    def test_wrap_at_seam(self):
        log = make_log([euler_pose(179.0)])
        ps_pairs = type(build_easy_pairs)  # noqa: F841 (no builder for 1 frame)
        from relhpe import PairSet
        ps = PairSet("seam", (("f0000", "f0000", 0.0),), 0)
        preds = pose_log({"f0000": euler_pose(-179.0)})
        rep = evaluate(ps, preds, log)
        assert abs(rep.yaw_mae - 2.0) < 1e-9

    def test_wrap_deg(self):
        assert wrap_deg(358.0) == -2.0
        assert wrap_deg(-358.0) == 2.0
        assert wrap_deg(0.0) == 0.0

    def test_missing_prediction(self):
        log = make_log([euler_pose(0.0), euler_pose(3.0)])
        from relhpe import PairSet
        ps = PairSet("x", (("f0000", "f0001", 3.0),), 0)
        with pytest.raises(MissingPrediction, match="'f0001'"):
            evaluate(ps, pose_log({"f0000": euler_pose(0.0)}), log)

    @pytest.mark.parametrize("pairs, error, frame", [
        ((("f0000", "f0009", 3.0),), UnknownFrame, "f0009"),
        ((("f0008", "f0001", 3.0), ("f0000", "f0009", 0.0)), UnknownFrame, "f0009"),
        ((("f0009", "f0000", 3.0),), UnknownFrame, "f0009"),
        ((("f0000", "f0001", 3.0), ("f0009", "f0000", 0.0)), UnknownFrame, "f0009"),
        ((("f0001", "f0000", 3.0), ("f0000", "f0001", 0.0)), MissingPrediction,
         "f0001"),
    ], ids=["query", "query_before_anchor", "anchor", "anchor_before_prediction",
            "prediction"])
    def test_frame_checks(self, pairs, error, frame):
        """UnknownFrame for the first query the truth log lacks, then for
        the first anchor; only then MissingPrediction for the first query
        without a prediction."""
        from relhpe import PairSet
        log = make_log([euler_pose(0.0), euler_pose(3.0)])
        with pytest.raises(error, match=f"'{frame}'"):
            evaluate(PairSet("x", pairs, 0), pose_log({"f0000": euler_pose(0.0)}),
                     log)

    def test_equals_the_numpy_scorer(self, rng):
        log = hard_fixture_log()
        preds = pose_log({f.frame_id: random_pose(rng) for f in frame_records(log)})
        ps = build_hard_pairs(log, neutral_thresh_deg=15.0, extreme_thresh_deg=45.0,
                              n_pairs=100, seed=3)
        assert len(ps.pairs) == 100  # drawn from 20 x 10 candidates
        rows = [preds.position(q) for _, q, _ in ps.pairs]
        assert evaluate(ps, preds, log) == report_from_samples(*error_arrays(
            (preds.quats[rows], preds.translations[rows]), pair_batch(log, ps)))

    def test_overflowing_translation_error_is_inf_without_a_warning(self):
        """A prediction tx of 1e308 against a truth tx of -1e308 overflows to
        an inf error, which the report writer refuses, with no numpy
        RuntimeWarning (an error under this suite's warning filter)."""
        from relhpe import PairSet
        log = make_log([euler_pose(0.0, t=(-1e308, 0, 0)), euler_pose(3.0)])
        preds = pose_log({"f0000": euler_pose(0.0, t=(1e308, 0, 0))})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = evaluate(PairSet("x", (("f0001", "f0000", 3.0),), 0), preds, log)
        assert rep.t_mae_mm == (math.inf, 0.0, 0.0) and rep.t_l2_mm == math.inf
        assert rep.n == 1 and rep.mae == 0.0

    def test_per_sample_recomputation_oracle(self, rng):
        from relhpe import PairSet, euler_from_rotation
        log = make_log([random_pose(rng) for _ in range(20)])
        records = frame_records(log)
        pairs = tuple((records[0].frame_id, f.frame_id,
                       geodesic_deg(records[0].pose.rotation, f.pose.rotation))
                      for f in records[1:])
        ps = PairSet("x", pairs, 0)
        preds = {f.frame_id: random_pose(rng) for f in records}
        rep = evaluate(ps, pose_log(preds), log)
        # brute-force recomputation per sample
        yaw_errs, geos = [], []
        for _, qid, _ in pairs:
            truth = records[log.position(qid)].pose
            ep = euler_from_rotation(preds[qid].rotation)
            et = euler_from_rotation(truth.rotation)
            yaw_errs.append(abs(wrap_deg(ep.yaw - et.yaw)))
            geos.append(geodesic_deg(preds[qid].rotation, truth.rotation))
        assert abs(rep.yaw_mae - np.mean(yaw_errs)) < 1e-12
        assert abs(rep.geodesic_mae - np.mean(geos)) < 1e-12
        assert abs(rep.mae - (rep.yaw_mae + rep.pitch_mae + rep.roll_mae) / 3) < 1e-12


# ---------------------------------------------------------------------------
# scoring


class TruthEstimator:
    """An estimator with only an id and predict: it predicts the truth."""

    def __init__(self, id):
        self.id = id

    def predict(self, batch):
        return batch.query


def small_logs(n_logs=3):
    return sample_logs(PoseSampler(frames_per_log=40, subjects=n_logs, seed=2))


def easy_batches(logs):
    """One pair_batch per log, built as the caller iterates."""
    for log in logs:
        yield pair_batch(log, build_easy_pairs(
            log, neutral_thresh_deg=1000.0, max_gap_deg=30.0, n_pairs=20, seed=1))


def two_estimators(id_a="a", id_r="r"):
    return [AbsoluteSimEstimator(id_a, NoiseModel(base_deg=2.0, seed=1)),
            RelativeSimEstimator(id_r, NoiseModel(base_deg=1.0, seed=1))]


class TestScore:
    def test_an_id_and_predict_are_an_estimator(self):
        logs = small_logs()
        batches = list(easy_batches(logs))
        rep = score([TruthEstimator("truth")], batches)["truth"]
        assert rep.n == sum(len(b.frame_ids) for b in batches) > 0
        assert rep.mae == rep.geodesic_mae == rep.t_l2_mm == 0.0
        report = sweep(logs, [TruthEstimator("truth")], AnchorPolicy("fixed_first"),
                       "anchor_query_gap")
        filled = [b.reports["truth"] for b in report.bins if b.pair_count]
        assert sum(r.n for r in filled) == report.total_paired > 0
        assert all(r.mae == r.geodesic_mae == 0.0 for r in filled)

    def test_generators_of_estimators_and_batches(self):
        logs = small_logs()
        expected = score(two_estimators(), list(easy_batches(logs)))
        assert list(expected) == ["a", "r"] and expected["a"].n == 60
        assert score((est for est in two_estimators()),
                     easy_batches(logs)) == expected

    def test_duplicate_id_in_score(self):
        with pytest.raises(DomainError, match="estimator id 'x' is used more than once"):
            score(two_estimators("x", "x"), easy_batches(small_logs()))

    def test_duplicate_id_in_sweep(self):
        with pytest.raises(DomainError, match="estimator id 'x' is used more than once"):
            sweep(small_logs(), two_estimators("x", "x"), AnchorPolicy("fixed_first"),
                  "anchor_query_gap")

    def test_sweep_holds_one_batch_at_a_time(self, monkeypatch):
        """While an estimator predicts, only the batch of the log it scores
        is alive: sweep builds each log's batch after the last is scored."""
        batches, alive = [], []
        build = relhpe.harness.query_batch
        monkeypatch.setattr(relhpe.harness, "query_batch", lambda *args: (
            batches.append(weakref.ref(batch := build(*args))) or batch))

        class Probe(TruthEstimator):
            def predict(self, batch):
                alive.append(sum(ref() is not None for ref in batches))
                return batch.query

        sweep(small_logs(4), [Probe("p"), *two_estimators()],
              AnchorPolicy("fixed_first"), "anchor_query_gap")
        assert len(batches) == 4 and alive == [1] * 4


# ---------------------------------------------------------------------------
# sweeps


def perfect_relative():
    return RelativeSimEstimator("perfect", NoiseModel())


class TestSweep:
    def test_small_gaps_single_bin(self):
        log = make_log([euler_pose(y) for y in np.linspace(0, 4, 8)])
        rep = sweep(log, perfect_relative(), AnchorPolicy("fixed_first"),
                    "anchor_query_gap")
        nonzero = [b for b in rep.bins if b.pair_count > 0]
        assert len(nonzero) == 1
        assert nonzero[0].lo == 0.0

    def test_perfect_estimator_zero_mae_counts_match_histogram(self, rng):
        log = make_log([random_pose(rng) for _ in range(60)])
        rep = sweep(log, perfect_relative(), AnchorPolicy("fixed_first"),
                    "anchor_query_gap")
        records = frame_records(log)
        gaps = [geodesic_deg(records[0].pose.rotation, f.pose.rotation)
                for f in records]
        hist, _ = np.histogram(gaps, bins=len(rep.bins),
                               range=(0, len(rep.bins) * 5.0))
        assert [b.pair_count for b in rep.bins] == list(hist)
        for b in rep.bins:
            r = b.reports["perfect"]
            if r.n:
                assert r.mae < 1e-9 and r.geodesic_mae < 1e-9

    def test_counts_sum_and_partition(self, rng):
        log = make_log([random_pose(rng) for _ in range(50)])
        rep = sweep(log, perfect_relative(),
                    AnchorPolicy("nearest_within", threshold_deg=40.0),
                    "anchor_query_gap")
        assert sum(b.pair_count for b in rep.bins) == rep.total_paired
        assert rep.total_paired + rep.total_unpaired == 50

    def test_external_anchor_error_propagates(self, rng):
        # a perfect relative prediction composed onto an anchor prediction
        # that is off by theta is off by exactly theta, whatever the query:
        # the geodesic distance is bi-invariant
        theta = 7.0
        log = make_log([euler_pose(10.0 * i, t=rng.uniform(-50, 50, 3))
                        for i in range(8)])
        anchor = frame_records(log)[0]
        offset = Rotation.from_axis_angle(rng.normal(size=3), math.radians(theta))
        predicted = pose_log({anchor.frame_id: SE3Pose(
            offset * anchor.pose.rotation, anchor.pose.translation)})
        rep = sweep(log, perfect_relative(),
                    AnchorPolicy("external_predicted"), "anchor_query_gap",
                    anchor_predictions={log.subject_id: predicted})
        # gaps 0, 10, ..., 70 deg: one query per 5 deg bin
        filled = [b.reports["perfect"] for b in rep.bins if b.pair_count]
        assert rep.total_paired == 8 and [r.n for r in filled] == [1] * 8
        for r in filled:
            assert r.geodesic_mae == pytest.approx(theta, abs=1e-9)

    def test_one_truth_euler_pass_per_batch(self, rng, monkeypatch):
        # the query side's Euler angles are computed once per log's batch,
        # the prediction side's once per estimator and log
        logs = [make_log([random_pose(rng) for _ in range(30)], subject)
                for subject in ("s1", "s2")]
        estimators = [RelativeSimEstimator(f"r{i}", NoiseModel(1.0, 0.1, 2.0, i))
                      for i in range(3)]
        expected = sweep(logs, estimators, AnchorPolicy("fixed_first"),
                         "anchor_query_gap")
        rows = []
        euler_deg_many = relhpe.harness.euler_deg_many
        monkeypatch.setattr(relhpe.harness, "euler_deg_many",
                            lambda q: rows.append(len(q)) or euler_deg_many(q))
        assert sweep(logs, estimators, AnchorPolicy("fixed_first"),
                     "anchor_query_gap") == expected
        assert rows == [30] * (len(logs) * (1 + len(estimators)))

    def test_any_iterables(self, rng):
        # generators of logs or estimators sweep like lists of them
        logs = [make_log([random_pose(rng) for _ in range(20)], subject)
                for subject in ("s1", "s2")]
        ests = [perfect_relative(),
                AbsoluteSimEstimator("abs", NoiseModel(1.0, 0.1, 2.0, 3))]
        policy = AnchorPolicy("fixed_first")
        expected = sweep(logs, ests, policy, "anchor_query_gap")
        assert expected.total_paired == 40
        assert sweep(logs, (e for e in ests), policy, "anchor_query_gap") == expected
        assert sweep(iter(logs), ests, policy, "anchor_query_gap") == expected

    @pytest.mark.parametrize("width", [math.inf, math.nan, 1e-300, 0.0179])
    def test_bin_width_out_of_range(self, width):
        # more than 10,000 bins over [0, 180] deg is refused before any work
        log = make_log([euler_pose(0.0), euler_pose(3.0)])
        with pytest.raises(DomainError, match="bin width") as e:
            sweep(log, perfect_relative(), AnchorPolicy("fixed_first"),
                  "anchor_query_gap", bin_width_deg=width)
        assert e.value.setting == "bin_width_deg"

    def test_sweep_without_a_policy(self):
        log = make_log([euler_pose(0.0), euler_pose(3.0)])
        with pytest.raises(DomainError, match="needs an anchor policy"):
            sweep(log, perfect_relative(), None, "anchor_query_gap")

    def test_sweep_with_a_policy_name(self):
        log = make_log([euler_pose(0.0), euler_pose(3.0)])
        with pytest.raises(DomainError, match="got 'fixed_first'"):
            sweep(log, perfect_relative(), "fixed_first", "anchor_query_gap")

    def test_sweep_benchmark_without_an_axis(self):
        log = make_log([euler_pose(0.0), euler_pose(3.0)])
        with pytest.raises(DomainError, match="sweep axis None is not one of"):
            sweep(log, perfect_relative(), AnchorPolicy("fixed_first"), None)

    def test_absolute_axis_requires_nearest_within(self):
        log = make_log([euler_pose(0.0), euler_pose(3.0)])
        with pytest.raises(ValueError):
            sweep(log, perfect_relative(), AnchorPolicy("fixed_first"),
                  "absolute_query_pose")

    def test_gap_noise_mae_increases_with_bin(self):
        import scipy.stats
        yaws = np.concatenate([np.zeros(1), np.random.default_rng(3).uniform(0, 75, 400)])
        log = make_log([euler_pose(y) for y in yaws])
        est = RelativeSimEstimator("noisy", NoiseModel(base_deg=0.2,
                                                       slope_deg_per_deg=0.08,
                                                       seed=11))
        rep = sweep(log, est, AnchorPolicy("fixed_first"), "anchor_query_gap")
        idx, maes = [], []
        for i, b in enumerate(rep.bins):
            if b.reports["noisy"].n >= 30:
                idx.append(i)
                maes.append(b.reports["noisy"].geodesic_mae)
        rho = scipy.stats.spearmanr(idx, maes).statistic
        assert rho > 0.9


# The paper's claim as a metamorphic property: a relative estimator sees
# only anchor-to-query motion, so turning the whole world by one rotation W,
# before (W R) or after (R W) every truth pose, leaves its errors as they
# are; an absolute estimator's error grows with the pose, so W moves it.
_WORLD_LOGS = sample_logs(PoseSampler(frames_per_log=300, subjects=2, seed=5))
_WORLD_ESTIMATORS = (AbsoluteSimEstimator("abs", NoiseModel(2.0, 0.15, seed=1)),
                     RelativeSimEstimator("rel", NoiseModel(0.5, 0.02, seed=1)))


def _world_sweep(w=None, side="left"):
    """The 10 deg fixed_first sweep of _WORLD_LOGS, each truth rotation
    turned by the unit quaternion w on the given side."""
    logs = _WORLD_LOGS
    if w is not None:
        turn = ((lambda q: hamilton(w, q)) if side == "left"
                else (lambda q: hamilton(q, w)))
        logs = [PoseLog(log.subject_id, log.frame_ids,
                        np.stack(turn(log.quats.T), axis=1), log.translations,
                        log.frame_tag, log.intrinsics) for log in logs]
    return sweep(logs, _WORLD_ESTIMATORS, AnchorPolicy("fixed_first"),
                 "anchor_query_gap", bin_width_deg=10.0)


def _geodesic_maes(rep, est_id):
    return [b.reports[est_id].geodesic_mae for b in rep.bins]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(q=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
           lambda q: sum(v * v for v in q) > 0.01),
       side=st.sampled_from(["left", "right"]))
def test_world_rotation_leaves_relative_errors(q, side):
    w = tuple(v / math.sqrt(sum(v * v for v in q)) for v in q)
    base, turned = _world_sweep(), _world_sweep(w, side)
    assert turned.total_paired == base.total_paired == 600
    assert ([b.pair_count for b in turned.bins]
            == [b.pair_count for b in base.bins])
    np.testing.assert_allclose(_geodesic_maes(turned, "rel"),
                               _geodesic_maes(base, "rel"), rtol=0, atol=1e-9)


@pytest.mark.parametrize("side", ["left", "right"])
def test_world_rotation_moves_absolute_errors(side):
    w = Rotation(0.8, 0.2, -0.4, 0.4).quat
    moved = np.subtract(_geodesic_maes(_world_sweep(w, side), "abs"),
                        _geodesic_maes(_world_sweep(), "abs"))
    assert np.nanmax(np.abs(moved)) > 1.0
