"""Anchor selection: which reference frame each query is predicted against.

Four regimes:

* fixed_first       - every query uses frame 0 of its log (one ground-truth
                      pose per subject).
* nearest_within    - the same-log frame minimizing the geodesic gap,
                      accepted only below a threshold; otherwise the query
                      stays unpaired.  Only the frames that pass an exact
                      screen (geometry.pairs_within_deg) reach the geodesic
                      kernel, in blocks of 16 queries: memory O(16 x N).
* temporal_previous - frame i-1 anchors frame i; frame 0 is unpaired.
* external_predicted - anchor frame as fixed_first, but the anchor pose
                      comes from an external estimator's prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, FrameMismatch, MissingPredictions
from .geometry import (SE3Pose, apply_anchor, geodesic_deg, geodesic_deg_many,
                       pairs_within_deg, relative)
from .poselog import PoseLog
from .vocab import POLICY_KINDS


@dataclass(frozen=True)
class AnchorPolicy:
    kind: str
    threshold_deg: Optional[float] = None
    external_source: Optional[str] = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise DomainError(f"unknown policy {self.kind!r}")
        if self.kind == "nearest_within":
            if self.threshold_deg is None or not 0 < self.threshold_deg < math.inf:
                raise DomainError("nearest_within needs a finite threshold_deg > 0",
                                  setting="threshold_deg")
        if self.kind == "external_predicted" and not self.external_source:
            raise DomainError("external_predicted needs external_source")


@dataclass(frozen=True)
class AnchorAssignment:
    """Anchor chosen for one query; anchor_id is None when unpaired."""

    query_id: str
    anchor_id: Optional[str]
    anchor_pose: Optional[SE3Pose]
    anchor_pose_source: str = "ground_truth"
    gap_deg: float = 0.0

    @property
    def paired(self) -> bool:
        return self.anchor_id is not None


def assign_anchors(log: PoseLog, policy: AnchorPolicy, predictions=None) -> list:
    """Anchor assignment for every frame of the log.

    predictions maps frame_id -> SE3Pose and is required (for the anchor
    frames) under external_predicted.
    """
    frames, quats = log.frames, log.quats
    out = []
    if policy.kind in ("fixed_first", "external_predicted"):
        anchor = frames[0]
        anchor_pose = anchor.pose
        source = "ground_truth"
        if policy.kind == "external_predicted":
            if predictions is None or anchor.frame_id not in predictions:
                raise MissingPredictions(
                    f"no prediction for anchor frame {anchor.frame_id!r} "
                    f"from estimator {policy.external_source!r}")
            anchor_pose = predictions[anchor.frame_id]
            source = "predicted"
        for f, gap in zip(frames, geodesic_deg_many(quats[0], quats).tolist()):
            out.append(AnchorAssignment(f.frame_id, anchor.frame_id,
                                        anchor_pose, source, gap))
    elif policy.kind == "temporal_previous":
        out.append(AnchorAssignment(frames[0].frame_id, None, None))
        gaps = geodesic_deg_many(quats[:-1], quats[1:]).tolist()
        for prev, f, gap in zip(frames, frames[1:], gaps):
            out.append(AnchorAssignment(f.frame_id, prev.frame_id,
                                        prev.pose, "ground_truth", gap))
    else:  # nearest_within
        anchor = np.full(len(frames), -1)
        gap = np.zeros(len(frames))
        for rows, cols, gaps in pairs_within_deg(quats, policy.threshold_deg):
            # by row, then gap; the stable sort keeps the lowest frame index
            # first among equal gaps, as argmin would
            order = np.lexsort((gaps, rows))
            rows, first = np.unique(rows[order], return_index=True)
            best = order[first]
            ok = gaps[best] < policy.threshold_deg
            anchor[rows[ok]] = cols[best[ok]]
            gap[rows[ok]] = gaps[best[ok]]
        for f, j, g in zip(frames, anchor.tolist(), gap.tolist()):
            if j < 0:
                out.append(AnchorAssignment(f.frame_id, None, None))
            else:
                out.append(AnchorAssignment(f.frame_id, frames[j].frame_id,
                                            frames[j].pose, "ground_truth", g))
    return out


def propagate_anchor_error(true_anchor: SE3Pose, predicted_anchor: SE3Pose,
                           true_query: SE3Pose):
    """Compose the true relative transform with an imperfect anchor.

    Returns (composed_query, rotation_offset_deg).  By bi-invariance of the
    geodesic metric the composed rotation error equals the anchor rotation
    error exactly, independent of the query.
    """
    if true_anchor.frame_tag != predicted_anchor.frame_tag:
        raise FrameMismatch("anchor poses in different frames")
    rel = relative(true_query, true_anchor)
    composed = apply_anchor(rel, predicted_anchor)
    offset = geodesic_deg(composed.rotation, true_query.rotation)
    return composed, offset
