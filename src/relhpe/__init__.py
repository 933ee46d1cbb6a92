"""Relative head-pose toolkit.

SE(3) relative-transform targets, composition-based absolute pose recovery,
the full training-objective math, anchor-selection strategies, and a
controlled benchmark harness with pose-level simulated estimators.
"""

from .anchors import AnchorAssignment, AnchorPolicy, assign_anchors, \
    propagate_anchor_error
from .camera import (CameraPose, CropSpec, Intrinsics, compose_crops,
                     crop_update_intrinsics, fov_from_intrinsics,
                     intrinsics_from_fov, logtan_fov, project)
from .geometry import (EulerAngles, Rotation, SE3Pose, apply_anchor, compose,
                       euler_from_rotation, geodesic_deg, geodesic_deg_many,
                       inverse, normalize_to_anchor, relative,
                       rotation_from_euler)
from .harness import (FrameRecord, MetricReport, PairSet, PoseLog, SweepBin,
                      SweepReport, TableEstimator, build_easy_pairs,
                      build_hard_pairs, evaluate, export_canonical,
                      ingest_biwi, ingest_canonical, ingest_canonical_all,
                      neutral_reference, run_end_to_end, sweep, wrap_deg)
from .losses import (LossConfig, StageBreakdown, StagePrediction, loss_cam,
                     loss_fov, loss_rotation_geodesic, loss_rotation_quat,
                     loss_translation)
from .simulate import (AbsoluteSimEstimator, NoiseModel, PoseSampler,
                       RelativeSimEstimator, load_predictions_csv, sample_logs,
                       simulate_absolute, simulate_relative)

__version__ = "0.1.0"
