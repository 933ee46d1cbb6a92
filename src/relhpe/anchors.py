"""Anchor selection: which reference frame each query is predicted against.

Four regimes:

* fixed_first       - every query uses frame 0 of its log (one ground-truth
                      pose per subject).
* nearest_within    - the same-log frame minimizing the geodesic gap,
                      accepted only below a threshold; otherwise the query
                      stays unpaired.  Only the frames that pass an exact
                      screen (geometry.screened_pairs: sorted windows,
                      then a dot-product floor) and whose screened gap is
                      within geometry.MEDOID_MARGIN_DEG of their query's
                      least reach the geodesic kernel; memory
                      O(geometry.SCREEN_ROWS x N).
* temporal_previous - frame i-1 anchors frame i; frame 0 is unpaired.
* external_predicted - anchor frame as fixed_first, but the anchor pose
                      comes from an external estimator's prediction
                      (harness.sweep takes it from the subject's table).

anchor_arrays makes these decisions as arrays over a log's frames.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DomainError, FrameMismatch
from .geometry import (MEDOID_MARGIN_DEG, SE3Pose, apply_anchor,
                       geodesic_deg_many, relative, screened_pairs)
from .poselog import PoseLog
from .records import Record
from .rotation import geodesic_deg
from .vocab import POLICY_KINDS


class AnchorPolicy(Record):
    kind: str
    threshold_deg: Optional[float] = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise DomainError(f"unknown policy {self.kind!r}")
        if self.kind == "nearest_within":
            if self.threshold_deg is None or not 0 < self.threshold_deg < math.inf:
                raise DomainError("nearest_within needs a finite threshold_deg > 0",
                                  setting="threshold_deg")


class AnchorArrays(Record):
    """Anchor assignment, row i for frame i of the log: anchor[i] is the
    anchor frame's position (-1 when unpaired) and gap_deg[i] the
    anchor-query geodesic gap (0 when unpaired), both from the true poses."""

    anchor: np.ndarray
    gap_deg: np.ndarray


def anchor_arrays(log: PoseLog, policy: AnchorPolicy) -> AnchorArrays:
    """Anchor assignment for every frame of the log, as arrays.
    external_predicted chooses frames as fixed_first does."""
    quats, n = log.quats, len(log)
    anchor, gap = np.full(n, -1), np.zeros(n)
    if policy.kind in ("fixed_first", "external_predicted"):
        anchor[:] = 0
        gap = geodesic_deg_many(quats[0], quats)
    elif policy.kind == "temporal_previous":
        anchor[1:] = np.arange(n - 1)
        gap[1:] = geodesic_deg_many(quats[:-1], quats[1:])
    else:  # nearest_within
        least = np.full(n, math.inf)  # each row's least screened gap
        for rows, cols, dots in screened_pairs(quats, policy.threshold_deg):
            # a row's pairs come in one yield; only those within
            # MEDOID_MARGIN_DEG of its least screened gap can hold its
            # nearest frame (geometry, "nearest")
            screened = np.arccos(np.minimum(dots, 1.0)) * math.degrees(2.0)
            np.minimum.at(least, rows, screened)
            keep = screened <= least[rows] + MEDOID_MARGIN_DEG
            rows, cols = rows[keep], cols[keep]
            gaps = geodesic_deg_many(quats[rows], quats[cols])
            # by row, then gap, then frame index: each row's first is its
            # argmin, the lowest frame index among equal gaps
            order = np.lexsort((cols, gaps, rows))
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
