"""Pose-level simulated estimators and log sampling.

No images and no networks: estimators here perturb ground-truth poses with
controlled noise so the harness can be exercised end to end.  Rotation
noise is a left-multiplied perturbation about a uniformly random axis with
*exact* configured magnitude (not a Gaussian draw), which keeps per-sample
error assertions tight.

* Absolute estimators model error growing with the query's distance from a
  canonical reference: magnitude = base + slope * geodesic(truth, ref).
* Relative estimators model error growing with the anchor-query gap:
  magnitude = base + slope * gap.

RNG streams are derived per query from (seed, subject_id, frame_id), so
serial and parallel runs agree and identical seeds give identical reports.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyRange, ParseError
from .geometry import (EulerAngles, Rotation, SE3Pose, geodesic_deg,
                       relative, rotation_from_euler)
from .harness import (PairSet, build_easy_pairs, build_hard_pairs, csv_rows,
                      error_samples, finite_floats, predict_query,
                      report_from_samples, row_errors, sweep)
from .poselog import FrameRecord, PoseLog


def _query_rng(seed, subject_id, frame_id):
    digest = hashlib.sha256(f"{subject_id}/{frame_id}".encode()).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng([int(seed)] + words)


def _random_unit_vector(rng):
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


@dataclass(frozen=True)
class NoiseModel:
    base_deg: float = 0.0
    slope_deg_per_deg: float = 0.0
    trans_noise_mm: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not all(v >= 0 for v in (self.base_deg, self.slope_deg_per_deg,
                                    self.trans_noise_mm)):
            raise DomainError("noise parameters must be non-negative")


def _perturb(pose: SE3Pose, magnitude_deg: float, trans_mm: float, rng) -> SE3Pose:
    rot = pose.rotation
    if magnitude_deg > 0:
        axis = _random_unit_vector(rng)
        rot = Rotation.from_axis_angle(axis, math.radians(magnitude_deg)) * rot
    t = pose.translation
    if trans_mm > 0:
        t = t + trans_mm * _random_unit_vector(rng)
    return SE3Pose(rot, t, pose.frame_tag)


def simulate_absolute(truth: SE3Pose, nm: NoiseModel, canonical_ref: Rotation,
                      rng) -> SE3Pose:
    """Noisy absolute prediction; error grows with distance from the canonical
    reference orientation."""
    mag = nm.base_deg + nm.slope_deg_per_deg * geodesic_deg(truth.rotation,
                                                            canonical_ref)
    return _perturb(truth, mag, nm.trans_noise_mm, rng)


def simulate_relative(anchor: SE3Pose, query: SE3Pose, nm: NoiseModel,
                      rng) -> SE3Pose:
    """Noisy relative transform; error grows with the anchor-query gap."""
    gap = geodesic_deg(anchor.rotation, query.rotation)
    mag = nm.base_deg + nm.slope_deg_per_deg * gap
    return _perturb(relative(query, anchor), mag, nm.trans_noise_mm, rng)


class AbsoluteSimEstimator:
    """Absolute pose-level estimator with distance-proportional noise."""

    kind = "absolute"

    def __init__(self, id, noise: NoiseModel, canonical_ref: Rotation = None):
        self.id = id
        self.noise = noise
        self.canonical_ref = canonical_ref or Rotation.identity()

    def predict_absolute(self, subject_id, frame_id, true_pose: SE3Pose) -> SE3Pose:
        rng = _query_rng(self.noise.seed, subject_id, frame_id)
        return simulate_absolute(true_pose, self.noise, self.canonical_ref, rng)


class RelativeSimEstimator:
    """Relative pose-level estimator with gap-proportional noise."""

    kind = "relative"

    def __init__(self, id, noise: NoiseModel):
        self.id = id
        self.noise = noise

    def predict_relative(self, subject_id, frame_id, anchor_pose: SE3Pose,
                         true_query: SE3Pose) -> SE3Pose:
        rng = _query_rng(self.noise.seed, subject_id, frame_id)
        return simulate_relative(anchor_pose, true_query, self.noise, rng)


class TableEstimator:
    """Absolute estimator backed by a fixed prediction table (e.g. a CSV of
    real model outputs evaluated through the same harness)."""

    kind = "absolute"

    def __init__(self, id, predictions):
        self.id = id
        self.predictions = dict(predictions)

    def predict_absolute(self, subject_id, frame_id, true_pose: SE3Pose) -> SE3Pose:
        if frame_id not in self.predictions:
            raise KeyError(f"estimator {self.id!r}: no prediction for {frame_id!r}")
        pred = self.predictions[frame_id]
        return SE3Pose(pred.rotation, pred.translation, true_pose.frame_tag)


@dataclass(frozen=True)
class PoseSampler:
    """Uniform pose sampling ranges (degrees / mm) for synthetic logs."""

    yaw_range: tuple = (-75.0, 75.0)
    pitch_range: tuple = (-60.0, 60.0)
    roll_range: tuple = (-40.0, 40.0)
    trans_range_mm: tuple = (-100.0, 100.0)
    frames_per_log: int = 100
    subjects: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("yaw_range", "pitch_range", "roll_range", "trans_range_mm"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise EmptyRange(f"{name}: {lo} > {hi}")
        if self.frames_per_log < 1 or self.subjects < 1:
            raise EmptyRange("need at least one frame and one subject")


def sample_logs(sampler: PoseSampler) -> list:
    """Deterministic synthetic logs; frame 0 of each log is the identity pose
    so fixed-anchor policies and neutral-reference selection are well posed."""
    rng = np.random.default_rng(sampler.seed)
    logs = []
    for s in range(sampler.subjects):
        subject = f"subj{s:03d}"
        frames = [FrameRecord("f0000", 0, SE3Pose.identity("world"))]
        for i in range(1, sampler.frames_per_log):
            yaw = rng.uniform(*sampler.yaw_range)
            pitch = rng.uniform(*sampler.pitch_range)
            roll = rng.uniform(*sampler.roll_range)
            t = rng.uniform(*sampler.trans_range_mm, size=3)
            pose = SE3Pose(rotation_from_euler(EulerAngles(yaw, pitch, roll)),
                           t, "world")
            frames.append(FrameRecord(f"f{i:04d}", i, pose))
        logs.append(PoseLog(subject, tuple(frames), "world"))
    return logs


def predict_pairs(log: PoseLog, pairs: PairSet, estimator) -> dict:
    """Absolute predictions for every query in a pair set.

    Relative estimators predict against each pair's (ground-truth) anchor
    and compose; absolute estimators ignore the anchor.
    """
    return {query_id: predict_query(estimator, log.subject_id, query_id,
                                    log.pose_of(anchor_id),
                                    log.pose_of(query_id),
                                    log.pose_of(anchor_id))
            for anchor_id, query_id, _ in pairs.pairs}


def run_end_to_end(logs, estimators, policy=None, benchmark=None):
    """Wire logs -> anchors/pairs -> predictions -> metrics.

    benchmark is a dict:
      {"kind": "sweep", "axis": ..., "bin_width_deg": 5.0}  -> SweepReport
      {"kind": "easy"|"hard", ... pair-builder kwargs}      -> {est_id: MetricReport}
    """
    if not isinstance(logs, (list, tuple)):
        logs = [logs]
    if not isinstance(estimators, (list, tuple)):
        estimators = [estimators]
    benchmark = dict(benchmark or {"kind": "sweep", "axis": "anchor_query_gap"})
    kind = benchmark.pop("kind")
    if kind == "sweep":
        return sweep(logs, estimators, policy, benchmark.pop("axis"), **benchmark)
    if kind not in ("easy", "hard"):
        raise DomainError(f"unknown benchmark kind {kind!r}")
    builder = build_easy_pairs if kind == "easy" else build_hard_pairs
    pair_sets = [(log, builder(log, **benchmark)) for log in logs]
    out = {}
    for est in estimators:
        samples = []
        for log, pairs in pair_sets:
            samples += error_samples(pairs, predict_pairs(log, pairs, est), log)
        out[est.id] = report_from_samples(samples)
    return out


def load_predictions_csv(path) -> dict:
    """query_id -> SE3Pose from a CSV of (query_id, qw, qx, qy, qz, tx, ty, tz)."""
    preds = {}
    for lineno, row in csv_rows(path, (8,), header=("query_id", "frame_id")):
        qid = row[0].strip()
        if qid in preds:
            raise ParseError(f"{path}:{lineno}: duplicate query id {qid!r}")
        with row_errors(path, lineno):
            vals = finite_floats(row[1:])
            preds[qid] = SE3Pose(Rotation(*vals[0:4]), np.array(vals[4:7]))
    return preds
