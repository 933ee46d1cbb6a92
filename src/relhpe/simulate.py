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

RNG streams are keyed per query by (seed, subject_id, frame_id), so serial
and parallel runs agree and identical seeds give identical reports.  A
query's stream yields unit vectors in order: the rotation axis when the
magnitude is > 0, then the translation direction when trans_noise_mm > 0.
Estimators with equal seeds therefore draw the same vectors, and the batched
path (predict_absolute_many / predict_relative_many) derives each query's
stream once per batch and seed and shares its vectors between them.  The
scalar simulate_absolute / simulate_relative are the reference the batched
path equals bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyRange, ParseError
from .geometry import (EulerAngles, Rotation, SE3Pose, axis_angle_many,
                       compose_many, geodesic_deg, geodesic_deg_many,
                       inverse_many, multiply_many, pose_arrays, relative,
                       rotation_from_euler)
from .harness import (PairSet, build_easy_pairs, build_hard_pairs, csv_rows,
                      error_arrays, finite_floats, pool_errors, predict_batch,
                      query_batch, report_from_samples, row_errors, sweep)
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


def _unit_vectors(batch, seed, counts) -> np.ndarray:
    """(N, K, 3) array whose row i starts with the first counts[i] unit
    vectors of query i's stream.

    The vectors are kept in batch.streams under the seed, so estimators with
    equal seeds derive each stream once.  A row is derived again only when
    an estimator needs more vectors than an earlier one drew; since a stream
    always yields the same vectors in order, that changes no value.
    """
    counts = np.asarray(counts, dtype=int)
    have, vectors = batch.streams.get(
        seed, (np.zeros(len(counts), dtype=int), np.zeros((len(counts), 0, 3))))
    short = np.flatnonzero(counts > have)
    if short.size:
        depth = max(vectors.shape[1], int(counts.max()))
        vectors = np.concatenate(
            [vectors, np.zeros((len(counts), depth - vectors.shape[1], 3))], axis=1)
        for i in short.tolist():
            rng = _query_rng(seed, batch.subject_id, batch.frame_ids[i])
            for k in range(counts[i]):
                vectors[i, k] = _random_unit_vector(rng)
        batch.streams[seed] = (np.maximum(have, counts), vectors)
    return vectors


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


def _perturb_many(batch, pose, magnitudes, nm: NoiseModel):
    """_perturb over the rows of a pose array, drawing from the batch's
    shared streams."""
    quats, translations = pose
    rotated = magnitudes > 0
    moved = nm.trans_noise_mm > 0
    after_axis = rotated.astype(int)  # index of the translation direction
    vectors = _unit_vectors(batch, nm.seed, after_axis + moved)
    rows = np.flatnonzero(rotated)
    if rows.size:
        quats = quats.copy()
        noise = axis_angle_many(vectors[rows, 0], np.radians(magnitudes[rows]))
        quats[rows] = multiply_many(noise, quats[rows])
    if moved:
        direction = vectors[np.arange(len(rotated)), after_axis]
        translations = translations + nm.trans_noise_mm * direction
    return quats, translations


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

    def predict_absolute_many(self, batch):
        """predict_absolute for every row of a harness.QueryBatch."""
        nm = self.noise
        distance = geodesic_deg_many(batch.query[0], self.canonical_ref.quat)
        return _perturb_many(batch, batch.query,
                             nm.base_deg + nm.slope_deg_per_deg * distance, nm)


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

    def predict_relative_many(self, batch):
        """predict_relative for every row of a harness.QueryBatch."""
        nm = self.noise
        gap = geodesic_deg_many(batch.anchor_truth[0], batch.query[0])
        rel = compose_many(batch.query, inverse_many(batch.anchor_truth))
        return _perturb_many(batch, rel, nm.base_deg + nm.slope_deg_per_deg * gap,
                             nm)


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

    def predict_absolute_many(self, batch):
        """predict_absolute for every row of a harness.QueryBatch."""
        missing = [f for f in batch.frame_ids if f not in self.predictions]
        if missing:
            raise KeyError(f"estimator {self.id!r}: no prediction for {missing[0]!r}")
        return pose_arrays(self.predictions[f] for f in batch.frame_ids)


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


def _pair_batch(log: PoseLog, pairs: PairSet):
    """QueryBatch with one row per pair, in pair order."""
    return query_batch(log, [log.position(q) for _, q, _ in pairs.pairs],
                       [log.position(a) for a, _, _ in pairs.pairs])


def predict_pairs(log: PoseLog, pairs: PairSet, estimator) -> dict:
    """Absolute predictions for every query in a pair set.

    Relative estimators predict against each pair's (ground-truth) anchor
    and compose; absolute estimators ignore the anchor.  A query in several
    pairs keeps the prediction of its last pair (run_end_to_end scores each
    pair on its own prediction instead).
    """
    batch = _pair_batch(log, pairs)
    quats, translations = predict_batch(estimator, batch)
    return {query_id: SE3Pose(Rotation(*q), t, log.frame_tag)
            for query_id, q, t in zip(batch.frame_ids, quats.tolist(),
                                      translations.tolist())}


def run_end_to_end(logs, estimators, policy=None, benchmark=None):
    """Wire logs -> anchors/pairs -> predictions -> metrics.

    benchmark is a dict:
      {"kind": "sweep", "axis": ..., "bin_width_deg": 5.0}  -> SweepReport
      {"kind": "easy"|"hard", ... pair-builder kwargs}      -> {est_id: MetricReport}

    Pairs are scored one by one: a relative estimator's prediction for a
    pair is composed onto that pair's anchor, even where a query is in
    several pairs.
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
    batches = [_pair_batch(log, builder(log, **benchmark)) for log in logs]
    return {est.id: report_from_samples(*pool_errors(
                error_arrays(predict_batch(est, batch), batch.query)
                for batch in batches))
            for est in estimators}


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
