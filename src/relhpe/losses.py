"""Training-objective components over predicted/target camera poses.

The multi-stage objective averages per-stage weighted sums with
exponentially decayed stage weights:

    L = (1/K) * sum_k gamma^(K-k) * (lt*LT_k + lr*LR_k + lf*LF_k)

Translation and rotation losses are L1 (rotation in canonical quaternion
space); the field-of-view loss supervises the inter-frame log-tan focal
ratio rather than absolute focal lengths.  Mode switches cover the
ablation variants: drop the fov term, keep rotation only, or swap the
quaternion L1 for the geodesic angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraPose, logtan_fov
from .errors import DomainError, EmptyStages, NonContiguousStages
from .geometry import Rotation, geodesic_deg

MODES = ("full", "no_fov", "rotation_only", "geodesic", "translation_aux")


@dataclass(frozen=True)
class LossConfig:
    """Weights, stage decay, and ablation mode.

    gamma defaults to 0.6; the decay value is a configuration choice, not
    a quoted constant, so every computation is parameterized over it.
    """

    lambda_t: float = 1.0
    lambda_r: float = 1.0
    lambda_f: float = 0.5
    gamma: float = 0.6
    mode: str = "full"

    def __post_init__(self):
        if not all(w >= 0 for w in (self.lambda_t, self.lambda_r, self.lambda_f)):
            raise DomainError("loss weights must be non-negative")
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma={self.gamma} outside (0, 1]")
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}; expected one of {MODES}")


@dataclass(frozen=True)
class StagePrediction:
    """One refinement stage: index k (1-based) plus predicted/true poses."""

    stage_index: int
    pose_pred: CameraPose
    pose_true: CameraPose


def loss_translation(pred, true) -> float:
    """L1 translation loss, mm."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(true, dtype=float)
    return float(np.abs(p - t).sum())


def loss_rotation_quat(pred: Rotation, true: Rotation) -> float:
    """L1 distance between canonical-sign quaternions.

    Canonicalization happens at Rotation construction, so q and -q inputs
    give identical losses.
    """
    return (abs(pred.w - true.w) + abs(pred.x - true.x)
            + abs(pred.y - true.y) + abs(pred.z - true.z))


def loss_rotation_geodesic(pred: Rotation, true: Rotation) -> float:
    """Geodesic rotation angle in radians (ablation variant)."""
    return math.radians(geodesic_deg(pred, true))


def loss_fov(pred, true) -> float:
    """L1 error on the inter-frame log-tan focal ratio.

    pred and true are (phi_1, phi_2) pairs in radians; the supervised
    quantity is r(phi_2) - r(phi_1) with r = logtan_fov, so a common
    offset on both predicted fovs (in r-space) cancels.
    """
    rp = logtan_fov(pred[1]) - logtan_fov(pred[0])
    rt = logtan_fov(true[1]) - logtan_fov(true[0])
    return abs(rp - rt)


@dataclass(frozen=True)
class StageBreakdown:
    """Per-stage weighted loss terms; their sum over stages is the total."""

    stage_index: int
    weight: float
    translation: float
    rotation: float
    fov: float

    @property
    def total(self) -> float:
        return self.translation + self.rotation + self.fov


def _stage_terms(stage: StagePrediction, cfg: LossConfig):
    """Weighted (translation, rotation, fov) terms for one stage."""
    pred, true = stage.pose_pred, stage.pose_true
    if cfg.mode == "geodesic":
        lr = loss_rotation_geodesic(pred.q, true.q)
    else:
        lr = loss_rotation_quat(pred.q, true.q)
    rot = cfg.lambda_r * lr
    if cfg.mode == "rotation_only":
        return 0.0, rot, 0.0
    trans = cfg.lambda_t * loss_translation(pred.t, true.t)
    if cfg.mode in ("no_fov",):
        return trans, rot, 0.0
    fov = cfg.lambda_f * loss_fov((pred.fov_h, pred.fov_w), (true.fov_h, true.fov_w))
    return trans, rot, fov


def loss_cam(stages, cfg: LossConfig):
    """Multi-stage camera loss.

    Returns (total, breakdown) where breakdown is a list of StageBreakdown
    whose weighted terms sum to the total.  K is inferred from the stage
    list; indices must be exactly 1..K.
    """
    stages = list(stages)
    if not stages:
        raise EmptyStages("no stage predictions")
    k_total = len(stages)
    indices = [s.stage_index for s in stages]
    if indices != list(range(1, k_total + 1)):
        raise NonContiguousStages(f"stage indices {indices}, expected 1..{k_total}")
    breakdown = []
    total = 0.0
    for stage in stages:
        weight = cfg.gamma ** (k_total - stage.stage_index) / k_total
        trans, rot, fov = _stage_terms(stage, cfg)
        item = StageBreakdown(stage.stage_index, weight,
                              weight * trans, weight * rot, weight * fov)
        breakdown.append(item)
        total += item.translation + item.rotation + item.fov
    return total, breakdown
