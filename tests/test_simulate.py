import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

import relhpe.anchors
import relhpe.cli
import relhpe.geometry
import relhpe.harness
import relhpe.rotation
import relhpe.sampling
import relhpe.simulate

from relhpe import (AbsoluteSimEstimator, AnchorPolicy, NoiseModel,
                    PoseSampler, RelativeSimEstimator, Rotation, SE3Pose,
                    TableEstimator, apply_anchor, build_easy_pairs,
                    build_hard_pairs,
                    euler_from_rotation, export_canonical, geodesic_deg,
                    load_predictions_csv, pair_batch, sample_logs, score, sweep)
from relhpe.errors import (DomainError, EmptyRange, InvariantViolation,
                           MissingPrediction, ParseError)
from relhpe.harness import query_batch
from relhpe.geometry import EulerAngles, rotation_from_euler
from relhpe.simulate import (simulate_absolute, simulate_relative,
                             _fast_normals, _pcg64_columns,
                             _probed_tables, _query_rng,
                             _seed_states, _stream_vectors, _ziggurat_tables)

from conftest import (frame_records, pose_log, random_pose, random_rotation,
                      yaw_pose)
from test_poselog import bits, quaternion, translation


def make_log(poses, subject="s1"):
    return pose_log(poses, subject, [f"f{i:04d}" for i in range(len(poses))])


def oracle_absolute(est, subject_id, frame_id, truth):
    """The scalar reference for est's prediction of one query:
    simulate_absolute on the query's own stream."""
    return simulate_absolute(truth, est.noise, est.canonical_ref,
                             _query_rng(est.noise.seed, subject_id, frame_id))


class TestNoiseModel:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseModel(base_deg=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(trans_noise_mm=-0.1)
        with pytest.raises(DomainError):
            NoiseModel(slope_deg_per_deg=math.nan)

    @pytest.mark.parametrize("kwargs", [
        {"base_deg": math.inf}, {"trans_noise_mm": math.inf},
        # finite parameters whose magnitude at a 180 deg gap overflows
        {"slope_deg_per_deg": 1e308}, {"base_deg": 1.7e308, "slope_deg_per_deg": 1e306},
    ], ids=["infinite_base", "infinite_translation", "overflowing_slope",
            "overflowing_sum"])
    def test_rejects_a_magnitude_that_is_not_finite(self, kwargs):
        with pytest.raises(DomainError):
            NoiseModel(**kwargs)

    @pytest.mark.parametrize("seed", [1.5, "3", True, -1, None],
                             ids=["float", "string", "bool", "negative", "none"])
    def test_seed_is_a_non_negative_integer(self, seed):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            NoiseModel(base_deg=1.0, seed=seed)

    def test_numpy_integer_seed_is_its_int(self, rng):
        truth = random_pose(rng)
        est = [AbsoluteSimEstimator("a", NoiseModel(base_deg=4.0, seed=s))
               for s in (7, np.int64(7))]
        a, b = (oracle_absolute(e, "s1", "f0001", truth) for e in est)
        assert a.rotation == b.rotation

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
        pa = oracle_absolute(a, "s1", "f0001", truth)
        pb = oracle_absolute(b, "s1", "f0001", truth)
        assert pa.rotation == pb.rotation
        assert np.array_equal(pa.translation, pb.translation)

    def test_different_seed_differs(self, rng):
        truth = random_pose(rng)
        a = AbsoluteSimEstimator("a", NoiseModel(base_deg=4.0, seed=7))
        b = AbsoluteSimEstimator("b", NoiseModel(base_deg=4.0, seed=8))
        pa = oracle_absolute(a, "s1", "f0001", truth)
        pb = oracle_absolute(b, "s1", "f0001", truth)
        assert pa.rotation != pb.rotation

    def test_stream_independent_of_order(self, rng):
        # per-query streams come from (seed, subject, frame), not call order
        truth1, truth2 = random_pose(rng), random_pose(rng)
        est = AbsoluteSimEstimator("e", NoiseModel(base_deg=3.0, seed=1))
        forward = [oracle_absolute(est, "s", "fA", truth1),
                   oracle_absolute(est, "s", "fB", truth2)]
        backward = [oracle_absolute(est, "s", "fB", truth2),
                    oracle_absolute(est, "s", "fA", truth1)]
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
            first = frame_records(log)[0].pose
            assert first.rotation == Rotation.identity()
            assert np.array_equal(first.translation, np.zeros(3))

    def test_ranges_respected(self):
        sampler = PoseSampler(yaw_range=(-30, 30), pitch_range=(-10, 10),
                              roll_range=(-5, 5), trans_range_mm=(-50, 50),
                              frames_per_log=200, subjects=2, seed=11)
        for log in sample_logs(sampler):
            for f in frame_records(log)[1:]:
                e = euler_from_rotation(f.pose.rotation)
                assert -30 - 1e-9 <= e.yaw <= 30 + 1e-9
                assert -10 - 1e-9 <= e.pitch <= 10 + 1e-9
                assert -5 - 1e-9 <= e.roll <= 5 + 1e-9
                assert np.all(np.abs(f.pose.translation) <= 50 + 1e-9)

    def test_deterministic(self):
        a = sample_logs(PoseSampler(frames_per_log=10, subjects=2, seed=3))
        b = sample_logs(PoseSampler(frames_per_log=10, subjects=2, seed=3))
        for la, lb in zip(a, b):
            for fa, fb in zip(frame_records(la), frame_records(lb)):
                assert fa.pose.rotation == fb.pose.rotation
                assert np.array_equal(fa.pose.translation, fb.pose.translation)

    def test_validation(self):
        with pytest.raises(EmptyRange):
            PoseSampler(yaw_range=(10, -10))
        with pytest.raises(EmptyRange):
            PoseSampler(frames_per_log=0)

    @pytest.mark.parametrize("kwargs, setting", [
        ({"frames_per_log": 2.5}, "frames_per_log"),
        ({"subjects": True}, "subjects"),
        ({"frames_per_log": -1}, "frames_per_log"),
        ({"seed": -1}, "seed"),
        ({"seed": 2.0}, "seed"),
        ({"yaw_range": (math.nan, 10.0)}, "yaw_range"),
        ({"pitch_range": (-10.0, math.inf)}, "pitch_range"),
        # finite ends whose width overflows: numpy cannot draw from it
        ({"trans_range_mm": (-1e308, 1e308)}, "trans_range_mm"),
    ], ids=["fractional_frames", "bool_subjects", "negative_frames",
            "negative_seed", "float_seed", "nan_range", "infinite_range",
            "overflowing_range"])
    def test_rejected_at_construction(self, kwargs, setting):
        with pytest.raises(DomainError) as e:
            PoseSampler(**kwargs)
        assert e.value.setting == setting

    @settings(max_examples=60, deadline=None)
    @given(subjects=st.integers(1, 3), frames=st.integers(1, 12),
           seed=st.one_of(st.integers(0, 2**70), st.sampled_from([0, 2**32])),
           ranges=st.lists(st.sampled_from(
               [(-75.0, 75.0), (0.0, 0.0), (-400.0, 300.0), (179.0, 181.0),
                (-100.0, 100.0)]), min_size=4, max_size=4))
    def test_equals_scalar_reference(self, subjects, frames, seed, ranges):
        sampler = PoseSampler(*ranges, frames_per_log=frames, subjects=subjects,
                              seed=seed)
        assert _log_bytes(sample_logs(sampler)) == _log_bytes(
            _sample_logs_reference(sampler))


def _sample_logs_reference(sampler):
    """sample_logs as a loop: six scalar draws per frame, in order."""
    rng = np.random.default_rng(sampler.seed)
    logs = []
    for s in range(sampler.subjects):
        poses = [SE3Pose.identity("world")]
        for i in range(1, sampler.frames_per_log):
            yaw = rng.uniform(*sampler.yaw_range)
            pitch = rng.uniform(*sampler.pitch_range)
            roll = rng.uniform(*sampler.roll_range)
            t = rng.uniform(*sampler.trans_range_mm, size=3)
            pose = SE3Pose(rotation_from_euler(EulerAngles(yaw, pitch, roll)),
                           t, "world")
            poses.append(pose)
        logs.append(make_log(poses, f"subj{s:03d}"))
    return logs


def _log_bytes(logs):
    """Every field of every frame, floats as bytes (so signed zeros count)."""
    return [(log.subject_id, log.frame_tag,
             [(f.frame_id, f.index, f.pose.frame_tag,
               np.array(f.pose.rotation.quat).tobytes(),
               f.pose.translation.tobytes()) for f in frame_records(log)])
            for log in logs]


class TestTableEstimator:
    def test_lookup(self, rng):
        stored = random_pose(rng)
        est = TableEstimator("t", pose_log({"f0000": stored}))
        quats, translations = est.predict(
            query_batch(make_log([random_pose(rng)]), [0], [0]))
        assert Rotation(*quats[0]) == stored.rotation
        assert np.array_equal(translations[0], stored.translation)

    def test_missing(self, rng):
        est = TableEstimator("t", pose_log({"f0001": random_pose(rng)}))
        with pytest.raises(MissingPrediction, match="'f0000'"):
            est.predict(query_batch(make_log([random_pose(rng)]), [0], [0]))


class TestEndToEnd:
    def _logs(self):
        return sample_logs(PoseSampler(frames_per_log=60, subjects=2, seed=9))

    @staticmethod
    def _score(logs, estimators, build, **kwargs):
        """score over one pair_batch per log of build(log, **kwargs)."""
        return score(estimators, [pair_batch(log, build(log, **kwargs))
                                  for log in logs])

    def test_perfect_estimator_zero_error(self):
        logs = self._logs()
        est = AbsoluteSimEstimator("perfect", NoiseModel())
        out = self._score(logs, [est], build_easy_pairs, neutral_thresh_deg=1000.0,
                          max_gap_deg=30.0, n_pairs=50, seed=0)
        rep = out["perfect"]
        assert rep.n > 0
        assert rep.geodesic_mae < 1e-9
        assert rep.mae < 1e-9

    def test_relative_beats_noisier_absolute(self):
        logs = self._logs()
        good = RelativeSimEstimator("rel", NoiseModel(base_deg=1.0, seed=2))
        bad = AbsoluteSimEstimator("abs", NoiseModel(base_deg=8.0, seed=2))
        out = self._score(logs, [good, bad], build_hard_pairs,
                          neutral_thresh_deg=40.0, extreme_thresh_deg=50.0,
                          n_pairs=100, seed=0)
        assert out["rel"].geodesic_mae < out["abs"].geodesic_mae

    def test_sweep_recovers_noise_slope(self):
        # binned mean error along the gap axis should track the configured
        # linear noise law: fit a line through bin centers, slope within 10%
        logs = sample_logs(PoseSampler(frames_per_log=150, subjects=3, seed=4))
        est = RelativeSimEstimator(
            "rel", NoiseModel(base_deg=1.0, slope_deg_per_deg=0.2, seed=6))
        report = sweep(logs, est, AnchorPolicy("nearest_within", threshold_deg=60.0),
                       "anchor_query_gap", bin_width_deg=5.0)
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
        bench = {"neutral_thresh_deg": 1000.0, "max_gap_deg": 30.0,
                 "n_pairs": 40, "seed": 5}
        r1 = self._score(logs, [est], build_easy_pairs, **bench)["a"]
        r2 = self._score(logs, [est], build_easy_pairs, **bench)["a"]
        assert r1 == r2

    def test_query_in_two_pairs_scored_per_pair(self):
        # neutral frames at yaw 0 and 5 both anchor the one extreme frame at
        # 60: gaps 60 and 55, so relative noise 6 and 5.5 deg; each pair is
        # scored on the prediction composed onto its own anchor
        log = make_log([yaw_pose(0.0), yaw_pose(5.0), yaw_pose(60.0)])
        est = RelativeSimEstimator("r", NoiseModel(slope_deg_per_deg=0.1, seed=3))
        out = self._score([log], [est], build_hard_pairs, n_pairs=10)
        pairs = build_hard_pairs(log, n_pairs=10).pairs
        assert [(a, q) for a, q, _ in pairs] == [("f0000", "f0002"), ("f0001", "f0002")]
        assert out["r"].n == 2
        assert abs(out["r"].geodesic_mae - 5.75) < 1e-9

    @pytest.mark.parametrize("seeds, streams", [((4, 4), 1), ((4, 5), 2)])
    def test_equal_seeds_draw_a_batch_once(self, seeds, streams, monkeypatch):
        """Estimators with equal seeds draw a batch's noise streams once,
        whichever kind each is."""
        drawn = []
        draw = relhpe.simulate._stream_vectors
        monkeypatch.setattr(relhpe.simulate, "_stream_vectors",
                            lambda seed, *args: drawn.append(seed) or draw(seed, *args))
        log = self._logs()[0]
        batch = pair_batch(log, build_hard_pairs(
            log, neutral_thresh_deg=40.0, extreme_thresh_deg=50.0, n_pairs=30))
        ests = [AbsoluteSimEstimator("a", NoiseModel(base_deg=3.0, seed=seeds[0])),
                RelativeSimEstimator("r", NoiseModel(base_deg=1.0, seed=seeds[1]))]
        out = score(ests, [batch])
        assert list(out) == ["a", "r"] and out["a"].n == out["r"].n == 30
        assert len(batch.streams) == len(drawn) == streams


class TestRelativePredict:
    def test_relative_composition_identity(self, rng):
        # composing a zero-noise relative prediction with its anchor must
        # recover the ground-truth query exactly
        log = make_log([yaw_pose(10 * i) for i in range(6)])
        pairs = build_easy_pairs(log, neutral_thresh_deg=1000.0,
                                 max_gap_deg=15.0, n_pairs=10, seed=0)
        est = RelativeSimEstimator("r", NoiseModel())
        batch = query_batch(log, [log.position(q) for _, q, _ in pairs.pairs],
                            [log.position(a) for a, _, _ in pairs.pairs])
        quats, _ = est.predict(batch)
        records = frame_records(log)
        for (_, query_id, _), q in zip(pairs.pairs, quats):
            truth = records[log.position(query_id)].pose
            assert geodesic_deg(Rotation(*q), truth.rotation) < 1e-9


class TestLoadPredictionsCsv:
    @settings(derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(quaternion, translation), min_size=1, max_size=8),
           header=st.booleans())
    def test_round_trip(self, tmp_path, rows, header):
        """Poses written with repr read back bit for bit, with or without
        the header row."""
        path = tmp_path / "preds.csv"
        poses = {f"f{i}": (Rotation(*q), t) for i, (q, t) in enumerate(rows)}
        lines = ["query_id,qw,qx,qy,qz,tx_mm,ty_mm,tz_mm"] if header else []
        for qid, (q, t) in poses.items():
            lines.append(",".join([qid] + [repr(v) for v in (q.w, q.x, q.y, q.z, *t)]))
        path.write_text("\n".join(lines) + "\n")
        back = load_predictions_csv(path)
        assert back.frame_ids == tuple(poses)
        for (q, t), quat, translation in zip(
                poses.values(), back.quats.tolist(), back.translations.tolist()):
            assert bits(quat) == bits([q.w, q.x, q.y, q.z])
            assert bits(translation) == bits(t)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("# a comment\nf0,1,0,0,0,1.0,2.0,3.0\n")
        back = load_predictions_csv(path)
        assert back.frame_ids == ("f0",)

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

    def test_no_records(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("query_id,qw,qx,qy,qz,tx_mm,ty_mm,tz_mm\n# only a note\n")
        with pytest.raises(ParseError, match=f"^{path}: no records$"):
            load_predictions_csv(path)

    def test_ids_read_as_written(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(" f0 ,1,0,0,0,0,0,0\nf0,1,0,0,0,0,0,0\n")
        assert load_predictions_csv(path).frame_ids == (" f0 ", "f0")

    def test_unwritable_id_names_the_file(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text('"f,0",1,0,0,0,0,0,0\n')
        with pytest.raises(InvariantViolation, match=f"^{path}: frame id 'f,0'"):
            load_predictions_csv(path)


# small seeds often coincide, so estimators share streams; numpy splits a
# seed into 32-bit words, so seeds past 2**32 and 2**64 take more of them
_seeds = st.one_of(st.integers(0, 3),
                   st.sampled_from([2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3]),
                   st.integers(0, 2**130))
_noise = st.builds(NoiseModel, base_deg=st.sampled_from([0.0, 0.5, 3.0]),
                   slope_deg_per_deg=st.sampled_from([0.0, 0.05]),
                   trans_noise_mm=st.sampled_from([0.0, 2.5]),
                   seed=_seeds)


class TestBatchedEstimators:
    """The batched path equals the scalar simulate_absolute/simulate_relative
    driven by each query's _query_rng, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(abs_noise=_noise, rel_noise=_noise, n=st.integers(0, 10),
           log_seed=st.integers(0, 100), relative_first=st.booleans())
    def test_equals_scalar(self, abs_noise, rel_noise, n, log_seed,
                           relative_first):
        rng = np.random.default_rng(log_seed)
        # frame 0 sits on the reference, so base 0 gives it zero magnitude
        log = make_log([SE3Pose.identity()] + [random_pose(rng) for _ in range(n)])
        anchors = rng.integers(0, len(log), len(log)).tolist()
        ests = [AbsoluteSimEstimator("a", abs_noise),
                RelativeSimEstimator("r", rel_noise)]
        if relative_first:
            ests.reverse()
        # one batch for both, so equal seeds share (and top up) draws
        batch = query_batch(log, range(len(log)), anchors)
        records = frame_records(log)
        for est in ests:
            quats, translations = est.predict(batch)
            expected = []
            for f, a in zip(records, anchors):
                stream = _query_rng(est.noise.seed, log.subject_id, f.frame_id)
                if isinstance(est, AbsoluteSimEstimator):
                    pose = simulate_absolute(f.pose, est.noise, Rotation.identity(),
                                             stream)
                else:
                    anchor = records[a].pose
                    pose = apply_anchor(simulate_relative(anchor, f.pose, est.noise,
                                                          stream), anchor)
                expected.append(pose)
            assert quats.tolist() == [list(p.rotation.quat) for p in expected]
            assert translations.tolist() == [p.translation.tolist()
                                             for p in expected]

    def test_canonical_reference(self, rng):
        ref = random_rotation(rng)
        est = AbsoluteSimEstimator("a", NoiseModel(1.0, 0.1, 1.0, 4), ref)
        log = make_log([random_pose(rng) for _ in range(8)])
        quats, _ = est.predict(query_batch(log, range(8), range(8)))
        assert quats.tolist() == [
            list(oracle_absolute(est, log.subject_id, f.frame_id, f.pose)
                 .rotation.quat) for f in frame_records(log)]

    def test_table_estimator(self, rng):
        log = make_log([random_pose(rng) for _ in range(4)])
        stored = {f.frame_id: random_pose(rng) for f in frame_records(log)}
        est = TableEstimator("t", pose_log(stored))
        quats, translations = est.predict(query_batch(log, [2, 0], [0, 0]))
        assert quats.tolist() == [list(stored[k].rotation.quat)
                                  for k in ("f0002", "f0000")]
        assert translations.tolist() == [stored[k].translation.tolist()
                                         for k in ("f0002", "f0000")]
        with pytest.raises(MissingPrediction):
            TableEstimator("t", pose_log({"f0000": stored["f0000"]})).predict(
                query_batch(log, [1], [0]))


_frame_ids = st.lists(st.text(max_size=8), min_size=1, max_size=6)


def _scalar_vectors(seed, subject_id, frame_ids, depth):
    rows = []
    for frame_id in frame_ids:
        rng = _query_rng(seed, subject_id, frame_id)
        rows.append([relhpe.simulate._random_unit_vector(rng) for _ in range(depth)])
    return np.array(rows, dtype=float).reshape(-1, depth, 3)


class TestBatchedStreams:
    """Streams seeded in batches equal numpy's SeedSequence and PCG64 and
    the scalar _query_rng path."""

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(4, 9).flatmap(lambda width: st.lists(
        st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width),
        min_size=1, max_size=4)))
    def test_seed_sequence_words(self, rows):
        """sampling.generate_state on uint32 columns (one row per element)
        and on each row's ints, as _seed_states and seed_words call it."""
        columns = list(np.array(rows, dtype=np.uint32).T)
        got = np.stack(relhpe.sampling.generate_state(columns), axis=1)
        assert np.stack(columns, axis=1).tolist() == rows  # not hashed in place
        for row, out in zip(rows, got.astype("<u4")):
            expected = np.random.SeedSequence(row).generate_state(4, np.uint64)
            assert out.tobytes() == expected.astype("<u8").tobytes()
            ints = relhpe.sampling.generate_state(row)
            assert np.array(ints, "<u4").tobytes() == expected.astype("<u8").tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=_seeds, subject=st.text(max_size=8), frame_ids=_frame_ids)
    @example(seed=0, subject="s1", frame_ids=["f0001", "fünf", "帧/7", ""])
    @example(seed=2**32 - 1, subject="sübj", frame_ids=["f0000"])
    @example(seed=2**32, subject="s", frame_ids=["f0000", "f0001"])
    @example(seed=2**64 + 5, subject="s", frame_ids=["\N{SNOWMAN}"])
    def test_seed_states_and_pcg64_state(self, seed, subject, frame_ids):
        states = _seed_states(seed, subject, frame_ids)
        for r, frame_id in enumerate(frame_ids):
            digest = hashlib.sha256(f"{subject}/{frame_id}".encode()).digest()
            words = [int.from_bytes(digest[i:i + 4], "little")
                     for i in range(0, 16, 4)]
            sequence = np.random.SeedSequence([seed, *words])
            row = states[32 * r:32 * r + 32]
            assert row == sequence.generate_state(4, np.uint64).astype("<u8").tobytes()
            state = np.random.PCG64(_SeedWords(struct.unpack("<4Q", row))).state
            assert state == np.random.PCG64(sequence).state
            assert state == _query_rng(seed, subject, frame_id).bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(seed=_seeds, subject=st.text(max_size=8), frame_ids=_frame_ids,
           depth=st.integers(1, 3))
    def test_stream_vectors(self, seed, subject, frame_ids, depth):
        assert (_stream_vectors(seed, subject, frame_ids, depth).tobytes()
                == _scalar_vectors(seed, subject, frame_ids, depth).tobytes())

    def test_short_draw_rows_fall_back_to_scalar(self, monkeypatch):
        # with the redraw bound at 1, about a fifth of the draws are
        # redrawn, shifting the rest of their streams
        monkeypatch.setattr(relhpe.simulate, "_MIN_NORM", 1.0)
        calls = []
        scalar_rng = relhpe.simulate._query_rng
        monkeypatch.setattr(relhpe.simulate, "_query_rng",
                            lambda *key: calls.append(key) or scalar_rng(*key))
        log = make_log([random_pose(np.random.default_rng(5)) for _ in range(40)])
        est = AbsoluteSimEstimator("a", NoiseModel(2.0, 0.1, 1.5, seed=9))
        quats, translations = est.predict(query_batch(log, range(40), range(40)))
        assert 0 < len(calls) < 40
        expected = [oracle_absolute(est, log.subject_id, f.frame_id, f.pose)
                    for f in frame_records(log)]
        assert quats.tolist() == [list(p.rotation.quat) for p in expected]
        assert translations.tolist() == [p.translation.tolist() for p in expected]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            _query_rng(-1, "s", "f0000")
        with pytest.raises(ValueError):
            _seed_states(-1, "s", ["f0000"])


class _SeedWords(ISeedSequence):
    """A seed sequence whose generate_state(4, np.uint64) is the given
    words, so PCG64 seeds from them as from SeedSequence's."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (4, np.uint64)
        return np.array(self.words, dtype=np.uint64)


_U64 = st.integers(0, 2**64 - 1)
_INVERSE_MULT = pow(relhpe.sampling.PCG64_MULT, -1, 2**128)


_INC = 2 * 0x9E3779B97F4A7C15 + 1


def _forced_state(raw):
    """The PCG64 state (increment _INC) whose next raw output is raw:
    PCG64 outputs the low word of a state whose high word is 0, unrotated."""
    return (raw - _INC) * _INVERSE_MULT % 2**128


def _force_raw(bits, raw):
    bits.state = {"bit_generator": "PCG64", "uinteger": 0, "has_uint32": 0,
                  "state": {"state": _forced_state(raw), "inc": _INC}}


def _fast_rows(seed, frame_ids, count):
    """_fast_normals of the batch's streams, count draws per row."""
    return _fast_normals(_pcg64_columns(np.frombuffer(
        _seed_states(seed, "subj001", frame_ids), "<u8").reshape(-1, 4)),
        count, _ziggurat_tables())


def _numpy_normal(raw):
    """(value, whether it took raw alone) of Generator.standard_normal() on
    a PCG64 whose next raw output is raw; the state after that output is
    raw itself."""
    bits = np.random.PCG64(0)
    _force_raw(bits, raw)
    value = np.random.Generator(bits).standard_normal()
    return value, bits.state["state"]["state"] == raw


def _raw_reasons(seed, subject, frame_ids, count):
    """Per row, the fast-path rule each of the first count raw outputs of
    _query_rng's PCG64 breaks: (layer 0, layer 1, rabs >= bound)."""
    _, bound = _ziggurat_tables()
    raws = np.array([_query_rng(seed, subject, f).bit_generator.random_raw(count)
                     for f in frame_ids], dtype=np.uint64)
    layer = (raws & 0xff).astype(int)
    rabs = raws >> 9 & (2**52 - 1)
    return ((layer == 0).any(axis=1), (layer == 1).any(axis=1),
            ((layer >= 2) & (rabs >= bound[layer])).any(axis=1))


class TestZigguratTables:
    """The tables of the array pass, probed from numpy, against numpy's
    Generator on forced raw outputs."""

    def test_force_raw(self):
        for raw in (1, 2**9 | 7, 2**64 - 1, 0x123456789ABCDEF0):
            bits = np.random.PCG64(0)
            _force_raw(bits, raw)
            assert int(bits.random_raw()) == raw

    def test_widths_equal_generator(self):
        wi, _ = _probed_tables()
        assert wi.shape == (256,)
        for i in range(256):
            assert _numpy_normal(1 << 9 | i)[0] == wi[i]
        rng = np.random.default_rng(1)
        for i, rabs, sign in zip(rng.integers(2, 256, 300).tolist(),
                                 rng.integers(0, 2**51, 300).tolist(),
                                 rng.integers(0, 2, 300).tolist()):
            assert _numpy_normal(rabs << 9 | sign << 8 | i) == (
                (-1.0 if sign else 1.0) * rabs * wi[i], True)

    def test_bounds_at_most_numpys(self):
        _, bound = _probed_tables()
        assert bound[0] == bound[1] == 0
        for i in range(2, 256):
            lo, hi = 0, 2**52  # numpy's threshold: the least rabs not fast
            for _ in range(52):
                mid = (lo + hi) // 2
                if _numpy_normal(mid << 9 | i)[1]:
                    lo = mid + 1
                else:
                    hi = mid
            assert lo == hi
            assert hi - 1 <= bound[i] <= hi, i

    def test_derived_once_and_checked(self):
        assert _ziggurat_tables() is _ziggurat_tables()
        wi, bound = _ziggurat_tables()
        probed = _probed_tables()
        assert wi.tobytes() == probed[0].tobytes()
        assert bound.tobytes() == probed[1].tobytes()

    @pytest.mark.parametrize("layer", [2, 97, 255])
    def test_a_wrong_width_sends_every_row_to_the_per_row_path(
            self, layer, monkeypatch):
        probed = relhpe.simulate._probed_tables

        def corrupted():
            wi, bound = probed()
            wi[layer] = np.nextafter(wi[layer], 1.0)
            return wi, bound

        monkeypatch.setattr(relhpe.simulate, "_probed_tables", corrupted)
        _ziggurat_tables.cache_clear()
        try:
            assert _ziggurat_tables() is None
            per_row = []
            state_dict = relhpe.simulate._pcg64_dict
            monkeypatch.setattr(relhpe.simulate, "_pcg64_dict",
                                lambda *a: per_row.append(a) or state_dict(*a))
            frame_ids = [f"f{i:04d}" for i in range(50)]
            assert (_stream_vectors(5, "s1", frame_ids, 2).tobytes()
                    == _scalar_vectors(5, "s1", frame_ids, 2).tobytes())
            assert len(per_row) == len(frame_ids)
        finally:
            _ziggurat_tables.cache_clear()


class TestArrayPass:
    """The array pass equals PCG64 and the scalar streams, and sends a row
    to the per-row path for each reason it must."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(_U64, _U64, _U64, _U64), min_size=1,
                         max_size=5))
    @example(rows=[(2**64 - 1,) * 4, (0,) * 4, (0, 2**64 - 1, 0, 2**64 - 1)])
    def test_columns_equal_pcg64_state(self, rows):
        columns = _pcg64_columns(np.array(rows, dtype=np.uint64))
        hi, lo, inc_hi, inc_lo = (c.tolist() for c in columns)
        for r, words in enumerate(rows):
            assert np.random.PCG64(_SeedWords(words)).state["state"] == {
                "state": hi[r] << 64 | lo[r], "inc": inc_hi[r] << 64 | inc_lo[r]}

    def test_fast_path_boundary(self):
        # per layer, rows whose one draw sits on either side of the bound,
        # each a state whose next raw output is the one wanted
        wi, bound = _ziggurat_tables()
        raws = [(b - edge) << 9 | sign << 8 | layer
                for layer, b in enumerate(bound.tolist()) if b
                for edge in (0, 1) for sign in (0, 1)]
        states = [_forced_state(raw) for raw in raws]
        columns = [np.array(words, dtype=np.uint64) for words in (
            [s >> 64 for s in states], [s % 2**64 for s in states],
            [_INC >> 64] * len(raws), [_INC % 2**64] * len(raws))]
        values, fast = _fast_normals(columns, 1, (wi, bound))
        assert fast.tolist() == [raw >> 9 < bound[raw & 0xff] for raw in raws]
        for raw, value, ok in zip(raws, values[:, 0].tolist(), fast.tolist()):
            if ok:
                assert (value, True) == _numpy_normal(raw)

    @pytest.mark.parametrize("seed", [2, 2**33 + 17])
    def test_every_fallback_reason(self, seed):
        frame_ids = [f"f{i:05d}" for i in range(4000)]
        values, fast = _fast_rows(seed, frame_ids, 6)
        reasons = _raw_reasons(seed, "subj001", frame_ids, 6)
        assert all(reason.any() for reason in reasons)
        assert (~fast).tolist() == np.logical_or.reduce(reasons).tolist()
        expected = _scalar_vectors(seed, "subj001", frame_ids, 2)
        assert (_stream_vectors(seed, "subj001", frame_ids, 2).tobytes()
                == expected.tobytes())
        # the fast rows' normals are the scalar streams' own
        assert values[fast].tobytes() == np.array([
            _query_rng(seed, "subj001", frame_ids[r]).normal(size=6)
            for r in np.flatnonzero(fast)]).tobytes()

    @pytest.mark.parametrize("seed", [2, 2**33 + 17])
    def test_short_norm_rows_fall_back(self, seed, monkeypatch):
        monkeypatch.setattr(relhpe.simulate, "_MIN_NORM", 1.0)
        redrawn = []
        scalar_rng = relhpe.simulate._query_rng
        monkeypatch.setattr(relhpe.simulate, "_query_rng",
                            lambda *key: redrawn.append(key[2]) or scalar_rng(*key))
        frame_ids = [f"f{i:05d}" for i in range(4000)]
        _, fast = _fast_rows(seed, frame_ids, 6)
        vectors = _stream_vectors(seed, "subj001", frame_ids, 2)
        # rows whose draws all took the fast path, redrawn for a short norm
        assert {frame_ids[r] for r in np.flatnonzero(fast)} & set(redrawn)
        assert len(redrawn) < len(frame_ids)
        assert vectors.tobytes() == _scalar_vectors(seed, "subj001", frame_ids,
                                                    2).tobytes()


class TestSweepCallCounts:
    """A CLI sweep runs as one array pass per log: no scalar geodesic or
    Euler call, no per-query _query_rng (the streams are seeded in
    batches), and one noise stream seeded per paired query when the two
    estimators share the seed."""

    @pytest.mark.parametrize("argv", [
        ["--policy", "fixed_first"],
        ["--policy", "temporal_previous"],
        ["--policy", "nearest_within", "--threshold-deg", "10"],
        ["--policy", "nearest_within", "--threshold-deg", "10",
         "--axis", "absolute_query_pose"]])
    def test_counts(self, argv, tmp_path, monkeypatch):
        calls = {"geodesic_deg": 0, "euler_from_rotation": 0, "_query_rng": 0}
        seeded = []  # the frame id of every stream seeded
        seed_states = relhpe.simulate._seed_states

        def seeding(seed, subject_id, frame_ids):
            seeded.extend(frame_ids)
            return seed_states(seed, subject_id, frame_ids)

        monkeypatch.setattr(relhpe.simulate, "_seed_states", seeding)

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        modules = (relhpe.rotation, relhpe.geometry, relhpe.anchors,
                   relhpe.harness, relhpe.simulate, relhpe.cli)
        home = {"geodesic_deg": relhpe.rotation,
                "euler_from_rotation": relhpe.geometry,
                "_query_rng": relhpe.simulate}
        for name in calls:
            fn = getattr(home[name], name)
            for module in modules:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counting(name, fn))
        log = tmp_path / "log.csv"
        export_canonical(sample_logs(PoseSampler(frames_per_log=200, subjects=1,
                                                 seed=8)), log)
        assert relhpe.cli.main(["--out", str(tmp_path), "sweep", str(log)]
                               + argv) == 0
        paired = json.loads((tmp_path / "sweep.json").read_text())[
            "payload"]["total_paired"]
        assert paired > 100
        assert calls == {"geodesic_deg": 0, "euler_from_rotation": 0,
                         "_query_rng": 0}
        assert len(seeded) == paired
