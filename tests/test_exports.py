"""The package's 55 public names, loaded on first use: each is the object
its own module defines."""

import sys

import relhpe

EXPORTED = [
    "AbsoluteSimEstimator", "AnchorPolicy", "CameraPose",
    "CropSpec", "EulerAngles", "Intrinsics", "LossConfig",
    "MetricReport", "NoiseModel", "PairSet", "PoseLog", "PoseSampler",
    "RelativeSimEstimator", "Rotation", "SE3Pose", "StageBreakdown",
    "StagePrediction", "SweepBin", "SweepReport",
    "anchor_arrays", "apply_anchor", "build_easy_pairs", "build_hard_pairs",
    "compose", "compose_crops", "crop_update_intrinsics", "euler_from_rotation",
    "evaluate", "export_canonical", "fov_from_intrinsics", "geodesic_deg",
    "geodesic_deg_many", "ingest_biwi", "ingest_canonical",
    "ingest_canonical_all", "intrinsics_from_fov", "inverse",
    "load_predictions_csv", "logtan_fov", "loss_cam", "loss_fov",
    "loss_rotation_geodesic", "loss_rotation_quat", "loss_translation",
    "neutral_reference", "normalize_to_anchor", "pair_batch", "project",
    "propagate_anchor_error", "relative", "rotation_from_euler",
    "sample_logs", "score", "sweep", "wrap_deg"]


def test_all_lists_the_exported_names():
    assert len(EXPORTED) == 55
    assert sorted(relhpe.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(relhpe))


def test_each_name_is_its_modules_object():
    for name in EXPORTED:
        obj = getattr(relhpe, name)
        assert obj.__module__.startswith("relhpe."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from relhpe import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTED


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(relhpe, "no_such_name")
