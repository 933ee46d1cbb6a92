import math

import numpy as np
import pytest

from relhpe import (AnchorPolicy, EulerAngles, NoiseModel,
                    RelativeSimEstimator, Rotation, SE3Pose, apply_anchor,
                    assign_anchors, geodesic_deg, propagate_anchor_error,
                    relative, rotation_from_euler, sweep)
from relhpe.anchors import anchor_arrays
from relhpe.errors import DomainError, FrameMismatch, MissingPredictions
from relhpe.poselog import FrameRecord, PoseLog

from conftest import random_pose, random_rotation, yaw_pose


def make_log(poses, subject="s1", frame="world"):
    frames = tuple(FrameRecord(f"f{i}", i, p) for i, p in enumerate(poses))
    return PoseLog(subject, frames, frame)


def yaw_log(degrees):
    return make_log([yaw_pose(d) for d in degrees])


class TestFixedFirst:
    def test_single_frame_self_anchor(self):
        log = yaw_log([12.0])
        out = assign_anchors(log, AnchorPolicy("fixed_first"))
        assert len(out) == 1
        assert out[0].anchor_id == "f0" and out[0].query_id == "f0"
        assert out[0].gap_deg == 0.0

    def test_all_anchored_to_frame0(self):
        log = yaw_log([0, 10, 20, 30])
        out = assign_anchors(log, AnchorPolicy("fixed_first"))
        assert all(a.anchor_id == "f0" for a in out)
        assert all(a.anchor_pose_source == "ground_truth" for a in out)
        # exactly one distinct ground-truth anchor pose is referenced
        anchor_ids = {a.anchor_id for a in out}
        assert len(anchor_ids) == 1

    def test_gap_matches_geodesic(self):
        log = yaw_log([0, 40])
        out = assign_anchors(log, AnchorPolicy("fixed_first"))
        assert abs(out[1].gap_deg - 40.0) < 1e-9


class TestNearestWithin:
    def test_identical_poses_all_paired(self):
        log = make_log([yaw_pose(5.0)] * 4)
        out = assign_anchors(log, AnchorPolicy("nearest_within", threshold_deg=5.0))
        assert all(a.paired for a in out)
        assert all(a.gap_deg == 0.0 for a in out)

    def test_matches_brute_force(self, rng):
        poses = [random_pose(rng) for _ in range(30)]
        log = make_log(poses)
        out = assign_anchors(log, AnchorPolicy("nearest_within", threshold_deg=180.0))
        for i, a in enumerate(out):
            # exhaustive search oracle
            gaps = [(geodesic_deg(poses[j].rotation, poses[i].rotation), j)
                    for j in range(30) if j != i]
            best_gap, best_j = min(gaps)
            assert a.anchor_id == f"f{best_j}"
            assert a.gap_deg == best_gap

    def test_threshold_unpaired(self):
        log = yaw_log([0, 50, 100])
        out = assign_anchors(log, AnchorPolicy("nearest_within", threshold_deg=10.0))
        assert not any(a.paired for a in out)

    def test_never_returns_gap_at_or_above_threshold(self, rng):
        poses = [random_pose(rng) for _ in range(40)]
        log = make_log(poses)
        out = assign_anchors(log, AnchorPolicy("nearest_within", threshold_deg=30.0))
        for a in out:
            if a.paired:
                assert a.gap_deg < 30.0

    def test_tie_breaks_lowest_index(self):
        log = make_log([yaw_pose(0), yaw_pose(10), yaw_pose(10)])
        out = assign_anchors(log, AnchorPolicy("nearest_within", threshold_deg=90.0))
        # f1 and f2 tie as anchors for f0; lowest index wins
        assert out[0].anchor_id == "f1"

    def test_single_frame_unpaired(self):
        log = yaw_log([0.0])
        out = assign_anchors(log, AnchorPolicy("nearest_within", threshold_deg=5.0))
        assert not out[0].paired


class TestTemporalPrevious:
    def test_frame0_unpaired(self):
        log = yaw_log([0, 10, 20])
        out = assign_anchors(log, AnchorPolicy("temporal_previous"))
        assert not out[0].paired
        assert out[1].anchor_id == "f0"
        assert out[2].anchor_id == "f1"

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


class TestExternalPredicted:
    def test_uses_predicted_anchor_pose(self, rng):
        log = yaw_log([0, 30])
        predicted = random_pose(rng)
        out = assign_anchors(log, AnchorPolicy("external_predicted",
                                               external_source="est1"),
                             predictions={"f0": predicted})
        assert all(a.anchor_pose_source == "predicted" for a in out)
        assert out[1].anchor_pose is predicted
        # gap is still computed from ground truth
        assert abs(out[1].gap_deg - 30.0) < 1e-9

    def test_missing_predictions(self):
        log = yaw_log([0, 30])
        policy = AnchorPolicy("external_predicted", external_source="est1")
        with pytest.raises(MissingPredictions):
            assign_anchors(log, policy)
        with pytest.raises(MissingPredictions):
            assign_anchors(log, policy, predictions={"f1": yaw_pose(1)})

    def test_prediction_in_another_frame(self):
        """A "depth" anchor prediction on a "world" log is refused, naming
        both tags, before any pose is composed with it."""
        log = yaw_log([0, 10, 20, 30, 40])
        policy = AnchorPolicy("external_predicted", external_source="est1")
        predicted = {"f0": SE3Pose.identity("depth")}
        perfect = RelativeSimEstimator("perfect", NoiseModel())
        calls = [lambda: anchor_arrays(log, policy, predicted),
                 lambda: assign_anchors(log, policy, predicted),
                 lambda: sweep(log, perfect, policy, "anchor_query_gap",
                               predictions_by_estimator={"est1": predicted})]
        for call in calls:
            with pytest.raises(FrameMismatch, match="'depth', log is 'world'"):
                call()
        # in the log's frame the same prediction pairs every query
        rep = sweep(log, perfect, policy, "anchor_query_gap",
                    predictions_by_estimator={"est1": {"f0": SE3Pose.identity()}})
        assert rep.total_paired == 5


@pytest.mark.parametrize("policy", [
    AnchorPolicy("fixed_first"), AnchorPolicy("temporal_previous"),
    AnchorPolicy("nearest_within", threshold_deg=40.0),
    AnchorPolicy("external_predicted", external_source="est1")],
    ids=lambda p: p.kind)
def test_list_form_is_the_array_form(policy, rng):
    """assign_anchors' AnchorAssignments carry anchor_arrays' decisions."""
    log = make_log([random_pose(rng) for _ in range(60)])
    predicted = random_pose(rng)
    out = assign_anchors(log, policy, {"f0": predicted})
    arrays = anchor_arrays(log, policy, {"f0": predicted})
    assert [a.query_id for a in out] == list(log.frame_ids)
    assert [log.position(a.anchor_id) if a.paired else -1
            for a in out] == arrays.anchor.tolist()
    assert [a.gap_deg for a in out] == arrays.gap_deg.tolist()
    assert 0 < sum(a.paired for a in out)
    for a in out:
        if not a.paired:
            assert (a.anchor_pose, a.anchor_pose_source) == (None, "ground_truth")
        elif policy.kind == "external_predicted":
            assert a.anchor_pose is predicted
            assert a.anchor_pose_source == arrays.source == "predicted"
        else:
            assert a.anchor_pose is log.frames[log.position(a.anchor_id)].pose
            assert a.anchor_pose_source == arrays.source == "ground_truth"


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

    def test_external_needs_source(self):
        with pytest.raises(ValueError):
            AnchorPolicy("external_predicted")


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
