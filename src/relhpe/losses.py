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

from .camera import CameraPose, logtan_fov
from .errors import DomainError, EmptyStages, NonContiguousStages
from .records import Record
from .rotation import Rotation, geodesic_deg
from .vocab import MODES


class LossConfig(Record):
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
        for name in ("lambda_t", "lambda_r", "lambda_f"):
            if not getattr(self, name) >= 0:
                raise DomainError(f"loss weights must be non-negative, got "
                                  f"{name}={getattr(self, name)}", setting=name)
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma={self.gamma} outside (0, 1]", setting="gamma")
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}; expected one of {MODES}",
                              setting="mode")


class StagePrediction(Record):
    """One refinement stage: index k (1-based) plus predicted/true poses."""

    stage_index: int
    pose_pred: CameraPose
    pose_true: CameraPose


def loss_translation(pred, true) -> float:
    """L1 translation loss, mm, of two 3-vectors: the absolute differences
    added left to right, which is numpy's sum of them bit for bit."""
    p0, p1, p2 = map(float, pred)
    t0, t1, t2 = map(float, true)
    return abs(p0 - t0) + abs(p1 - t1) + abs(p2 - t2)


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


class StageBreakdown(Record):
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
