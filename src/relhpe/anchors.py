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

anchor_arrays makes these decisions as arrays over a log's frames, and
names the anchor prediction by its row in a prediction table (a PoseLog).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, FrameMismatch, MissingPredictions
from .geometry import (SE3Pose, apply_anchor, geodesic_deg_many,
                       pairs_within_deg, relative)
from .poselog import PoseLog
from .rotation import geodesic_deg
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
class AnchorArrays:
    """Anchor assignment, row i for frame i of the log: anchor[i] is the
    anchor frame's position (-1 when unpaired) and gap_deg[i] the
    anchor-query geodesic gap (0 when unpaired).  When predicted_row is
    not None, every paired query's anchor pose is that row of the
    prediction table, an external estimator's prediction; else it is the
    anchor frame's pose."""

    anchor: np.ndarray
    gap_deg: np.ndarray
    predicted_row: Optional[int] = None


def anchor_arrays(log: PoseLog, policy: AnchorPolicy,
                  predictions: Optional[PoseLog] = None) -> AnchorArrays:
    """Anchor assignment for every frame of the log, as arrays.

    predictions is a prediction table (a PoseLog keyed by frame id) and
    is required, holding the anchor frame, under external_predicted;
    FrameMismatch when the table is tagged with another frame than the log.
    """
    quats, n = log.quats, len(log)
    anchor, gap = np.full(n, -1), np.zeros(n)
    if policy.kind in ("fixed_first", "external_predicted"):
        anchor[:] = 0
        gap = geodesic_deg_many(quats[0], quats)
        if policy.kind == "external_predicted":
            first = log.frame_ids[0]
            if predictions is None or first not in predictions:
                raise MissingPredictions(
                    f"no prediction for anchor frame {first!r} "
                    f"from estimator {policy.external_source!r}")
            if predictions.frame_tag != log.frame_tag:
                raise FrameMismatch(
                    f"anchor prediction for frame {first!r} from estimator "
                    f"{policy.external_source!r} is tagged "
                    f"{predictions.frame_tag!r}, log is {log.frame_tag!r}")
            return AnchorArrays(anchor, gap, predictions.position(first))
    elif policy.kind == "temporal_previous":
        anchor[1:] = np.arange(n - 1)
        gap[1:] = geodesic_deg_many(quats[:-1], quats[1:])
    else:  # nearest_within
        for rows, cols, gaps in pairs_within_deg(quats, policy.threshold_deg):
            # by row, then gap; the stable sort keeps the lowest frame index
            # first among equal gaps, as argmin would
            order = np.lexsort((gaps, rows))
            rows, first = np.unique(rows[order], return_index=True)
            best = order[first]
            ok = gaps[best] < policy.threshold_deg
            anchor[rows[ok]] = cols[best[ok]]
            gap[rows[ok]] = gaps[best[ok]]
    return AnchorArrays(anchor, gap)


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
