import math

import numpy as np
import pytest

from relhpe import (AnchorPolicy, NoiseModel, RelativeSimEstimator, Rotation,
                    SE3Pose, anchor_arrays, apply_anchor, geodesic_deg,
                    propagate_anchor_error, relative, sweep)
from relhpe.errors import DomainError, FrameMismatch, MissingPredictions

from conftest import pose_log, random_pose, yaw_pose


def make_log(poses):
    return pose_log(poses, subject="s1")


def yaw_log(degrees):
    return make_log([yaw_pose(d) for d in degrees])


def anchors_of(log, policy):
    """(query id, anchor id or None, gap) for each frame of the log."""
    out = anchor_arrays(log, policy)
    ids = log.frame_ids
    return [(q, ids[j] if j >= 0 else None, g) for q, j, g in
            zip(ids, out.anchor.tolist(), out.gap_deg.tolist())]


class TestFixedFirst:
    def test_single_frame_self_anchor(self):
        log = yaw_log([12.0])
        assert anchors_of(log, AnchorPolicy("fixed_first")) == [("f0", "f0", 0.0)]

    def test_all_anchored_to_frame0(self):
        log = yaw_log([0, 10, 20, 30])
        out = anchor_arrays(log, AnchorPolicy("fixed_first"))
        # exactly one ground-truth anchor pose, frame 0's, is referenced
        assert out.anchor.tolist() == [0, 0, 0, 0]

    def test_gap_matches_geodesic(self):
        log = yaw_log([0, 40])
        out = anchor_arrays(log, AnchorPolicy("fixed_first"))
        assert abs(out.gap_deg[1] - 40.0) < 1e-9


class TestNearestWithin:
    def test_identical_poses_all_paired(self):
        log = make_log([yaw_pose(5.0)] * 4)
        out = anchor_arrays(log, AnchorPolicy("nearest_within", threshold_deg=5.0))
        assert (out.anchor >= 0).all()
        assert (out.gap_deg == 0.0).all()

    def test_matches_brute_force(self, rng):
        poses = [random_pose(rng) for _ in range(30)]
        log = make_log(poses)
        out = anchors_of(log, AnchorPolicy("nearest_within", threshold_deg=180.0))
        for i, (_, anchor_id, gap) in enumerate(out):
            # exhaustive search oracle
            gaps = [(geodesic_deg(poses[j].rotation, poses[i].rotation), j)
                    for j in range(30) if j != i]
            best_gap, best_j = min(gaps)
            assert anchor_id == f"f{best_j}"
            assert gap == best_gap

    def test_threshold_unpaired(self):
        log = yaw_log([0, 50, 100])
        out = anchor_arrays(log, AnchorPolicy("nearest_within", threshold_deg=10.0))
        assert (out.anchor == -1).all()

    def test_never_returns_gap_at_or_above_threshold(self, rng):
        poses = [random_pose(rng) for _ in range(40)]
        log = make_log(poses)
        out = anchor_arrays(log, AnchorPolicy("nearest_within", threshold_deg=30.0))
        assert (out.anchor >= 0).any()
        assert (out.gap_deg[out.anchor >= 0] < 30.0).all()

    def test_tie_breaks_lowest_index(self):
        log = make_log([yaw_pose(0), yaw_pose(10), yaw_pose(10)])
        out = anchor_arrays(log, AnchorPolicy("nearest_within", threshold_deg=90.0))
        # f1 and f2 tie as anchors for f0; lowest index wins
        assert out.anchor[0] == 1

    def test_single_frame_unpaired(self):
        log = yaw_log([0.0])
        out = anchor_arrays(log, AnchorPolicy("nearest_within", threshold_deg=5.0))
        assert out.anchor.tolist() == [-1]


class TestTemporalPrevious:
    def test_frame0_unpaired(self):
        log = yaw_log([0, 10, 20])
        out = anchors_of(log, AnchorPolicy("temporal_previous"))
        assert [anchor_id for _, anchor_id, _ in out] == [None, "f0", "f1"]

    def test_drift_bounded_by_sum_of_step_errors(self, rng):
        # auto-regressive composition: accumulated error after n steps with
        # per-step rotation error eps stays within n * eps
        eps = 1.5
        poses = [yaw_pose(10.0 * i) for i in range(10)]
        current = poses[0]
        for i in range(1, len(poses)):
            rel_true = relative(poses[i], poses[i - 1])
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            noisy_rel = SE3Pose(
                Rotation.from_axis_angle(axis, math.radians(eps)) * rel_true.rotation,
                rel_true.translation, rel_true.frame_tag)
            current = apply_anchor(noisy_rel, current)
            err = geodesic_deg(current.rotation, poses[i].rotation)
            assert err <= i * eps + 1e-9


class RecordingEstimator(RelativeSimEstimator):
    """A noiseless relative estimator that keeps each batch it predicts."""

    def __init__(self):
        super().__init__("perfect", NoiseModel())
        self.batches = []

    def predict(self, batch):
        self.batches.append(batch)
        return super().predict(batch)


def offset_pose(pose, deg):
    """pose with its rotation turned by deg about a fixed oblique axis."""
    axis = np.array([1.0, 2.0, 0.5])
    return SE3Pose(Rotation.from_axis_angle(axis, math.radians(deg))
                   * pose.rotation, pose.translation, pose.frame_tag)


EXTERNAL = AnchorPolicy("external_predicted")


class TestExternalPredicted:
    def test_uses_predicted_anchor_pose(self, rng):
        log = yaw_log([0, 30])
        table = pose_log({"f9": random_pose(rng), "f0": random_pose(rng)})
        # frames are chosen as fixed_first, gaps from ground truth
        out = anchor_arrays(log, EXTERNAL)
        assert out.anchor.tolist() == [0, 0]
        assert abs(out.gap_deg[1] - 30.0) < 1e-9
        # every query's anchor pose is the table's row for frame f0
        est = RecordingEstimator()
        sweep(log, est, EXTERNAL, "anchor_query_gap",
              anchor_predictions={"s1": table})
        (batch,) = est.batches
        assert np.array_equal(batch.anchor[0], np.tile(table.quats[1], (2, 1)))
        assert np.array_equal(batch.anchor[1], np.tile(table.translations[1], (2, 1)))
        assert np.array_equal(batch.anchor_truth[0], log.quats[[0, 0]])

    def test_missing_predictions(self):
        log = yaw_log([0, 30])
        perfect = RelativeSimEstimator("perfect", NoiseModel())
        for tables in (None, {}, {"s2": pose_log({"f0": yaw_pose(1)})},
                       {"s1": pose_log({"f1": yaw_pose(1)})}):
            with pytest.raises(MissingPredictions,
                               match="anchor frame 'f0' of log 's1'"):
                sweep(log, perfect, EXTERNAL, "anchor_query_gap",
                      anchor_predictions=tables)

    def test_prediction_in_another_frame(self):
        """A "depth" anchor prediction on a "world" log is refused, naming
        both tags, before any pose is composed with it."""
        log = yaw_log([0, 10, 20, 30, 40])
        perfect = RelativeSimEstimator("perfect", NoiseModel())
        with pytest.raises(FrameMismatch, match="'depth', log is 'world'"):
            sweep(log, perfect, EXTERNAL, "anchor_query_gap",
                  anchor_predictions={"s1": pose_log(
                      {"f0": SE3Pose.identity("depth")})})
        # in the log's frame the same prediction pairs every query
        rep = sweep(log, perfect, EXTERNAL, "anchor_query_gap",
                    anchor_predictions={"s1": pose_log(
                        {"f0": SE3Pose.identity()})})
        assert rep.total_paired == 5

    @pytest.mark.parametrize("bad, error", [
        (None, MissingPredictions),
        (pose_log({"f0": SE3Pose.identity("depth")}), FrameMismatch)])
    def test_refused_before_the_log_is_scored(self, bad, error):
        """The first log is scored; the second log's anchor prediction is
        checked, and refused, before its batch reaches an estimator."""
        logs = [pose_log([yaw_pose(d) for d in (0, 10)], subject=s)
                for s in ("s1", "s2")]
        tables = {"s1": pose_log({"f0": yaw_pose(2)}), "s2": bad}
        est = RecordingEstimator()
        with pytest.raises(error, match="'f0' of log 's2'"):
            sweep(logs, est, EXTERNAL, "anchor_query_gap",
                  anchor_predictions=tables)
        assert [b.subject_id for b in est.batches] == ["s1"]

    def test_each_subject_its_own_anchor_prediction(self):
        """Two logs share frame ids; each subject's queries are composed
        onto its own table's anchor, so a perfect relative estimator is off
        by exactly that subject's anchor error (the geodesic distance is
        bi-invariant)."""
        truth = {"s1": [0, 12, 22], "s2": [50, 92, 132]}
        theta = {"s1": 3.0, "s2": 11.0}
        logs = [pose_log([yaw_pose(d) for d in yaws], subject=s)
                for s, yaws in truth.items()]
        tables = {s: pose_log({"f0": offset_pose(yaw_pose(yaws[0]), theta[s])})
                  for s, yaws in truth.items()}
        est = RecordingEstimator()
        rep = sweep(logs, est, EXTERNAL, "anchor_query_gap",
                    anchor_predictions=tables)
        # gaps 0, 12, 22 (s1) and 0, 42, 82 (s2): bin 0 holds both frame 0s
        by_bin = {b.lo: b.reports["perfect"] for b in rep.bins if b.pair_count}
        assert {lo: r.n for lo, r in by_bin.items()} == {
            0.0: 2, 10.0: 1, 20.0: 1, 40.0: 1, 80.0: 1}
        assert by_bin[0.0].geodesic_mae == pytest.approx(7.0, abs=1e-9)
        for lo, s in ((10.0, "s1"), (20.0, "s1"), (40.0, "s2"), (80.0, "s2")):
            assert by_bin[lo].geodesic_mae == pytest.approx(theta[s], abs=1e-9)
        for batch, table in zip(est.batches, tables.values()):
            assert np.array_equal(batch.anchor[0], np.tile(table.quats, (3, 1)))


class TestPolicyValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AnchorPolicy("bogus")

    def test_nearest_needs_threshold(self):
        with pytest.raises(ValueError):
            AnchorPolicy("nearest_within")
        with pytest.raises(ValueError):
            AnchorPolicy("nearest_within", threshold_deg=-1.0)
        with pytest.raises(DomainError):
            AnchorPolicy("nearest_within", threshold_deg=math.nan)


class TestPropagateAnchorError:
    def test_perfect_anchor(self, rng):
        a, q = random_pose(rng), random_pose(rng)
        composed, offset = propagate_anchor_error(a, a, q)
        assert offset < 1e-9
        assert geodesic_deg(composed.rotation, q.rotation) < 1e-9

    def test_seven_degree_offset(self, rng):
        for _ in range(20):
            a, q = random_pose(rng), random_pose(rng)
            axis = rng.normal(size=3)
            pred = SE3Pose(Rotation.from_axis_angle(axis, math.radians(7.0))
                           * a.rotation, a.translation, a.frame_tag)
            _, offset = propagate_anchor_error(a, pred, q)
            assert abs(offset - 7.0) < 1e-9

    def test_offset_equals_anchor_error(self, rng):
        for _ in range(1000):
            a, pred, q = (random_pose(rng) for _ in range(3))
            _, offset = propagate_anchor_error(a, pred, q)
            expected = geodesic_deg(pred.rotation, a.rotation)
            assert abs(offset - expected) < 1e-9

    def test_frame_mismatch(self, rng):
        with pytest.raises(FrameMismatch):
            propagate_anchor_error(random_pose(rng, frame="a"),
                                   random_pose(rng, frame="b"),
                                   random_pose(rng, frame="a"))
