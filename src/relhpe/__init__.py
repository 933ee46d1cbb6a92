"""Relative head-pose toolkit.

SE(3) relative-transform targets, composition-based absolute pose recovery,
the full training-objective math, anchor-selection strategies, and a
controlled benchmark harness with pose-level simulated estimators.

The public names below load on first use (PEP 562): importing the package
imports none of its modules, so a command that needs no numpy loads none.
"""

import importlib

# module -> the public names re-exported from it
_EXPORTS = {
    "anchors": ("AnchorPolicy", "anchor_arrays", "propagate_anchor_error"),
    "camera": ("CameraPose", "CropSpec", "Intrinsics", "compose_crops",
               "crop_update_intrinsics", "fov_from_intrinsics",
               "intrinsics_from_fov", "logtan_fov", "project"),
    "geometry": ("SE3Pose", "apply_anchor", "compose", "geodesic_deg_many",
                 "inverse", "normalize_to_anchor", "relative"),
    "rotation": ("EulerAngles", "Rotation", "euler_from_rotation", "geodesic_deg",
                 "rotation_from_euler"),
    "poselog": ("PoseLog",),
    "harness": ("PairSet", "SweepBin", "SweepReport", "build_easy_pairs",
                "build_hard_pairs", "export_canonical", "ingest_biwi",
                "ingest_canonical", "ingest_canonical_all", "neutral_reference",
                "pair_batch", "score", "sweep"),
    "scoring": ("evaluate",),
    "tables": ("MetricReport", "wrap_deg"),
    "losses": ("LossConfig", "StageBreakdown", "StagePrediction", "loss_cam",
               "loss_fov", "loss_rotation_geodesic", "loss_rotation_quat",
               "loss_translation"),
    "sampling": ("PoseSampler",),
    "simulate": ("AbsoluteSimEstimator", "NoiseModel",
                 "RelativeSimEstimator", "load_predictions_csv", "sample_logs"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
