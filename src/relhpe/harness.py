"""Benchmark harness: pose-log ingestion (canonical format plus a BIWI-style
adapter), easy/hard pair construction, metric computation, and binned sweeps.

Canonical pose-log file format (UTF-8, comma separated, '.' decimal point):

    # poselog v1 frame=<frame_tag>
    subject_id,frame_id,index,qw,qx,qy,qz,tx_mm,ty_mm,tz_mm[,fx,fy,cx,cy,width,height]

One record per line; the six intrinsics fields are optional per record.
Blank rows and '#' comment rows are skipped (see csv_rows).

BIWI-style subject directory: one text file per frame holding the 3x3
rotation matrix (three rows) followed by the translation vector, plus a
per-subject calibration file with the RGB intrinsics and the depth-to-RGB
rigid transform:

    3 lines: RGB intrinsic matrix rows
    3 lines: depth->RGB rotation matrix rows
    1 line:  depth->RGB translation (mm)
    1 line:  image width height

Blank lines between sections are ignored.  All ingested poses are
re-expressed in the RGB camera frame (frame_tag "rgb").
"""

from __future__ import annotations

import csv
import glob as globmod
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .anchors import AnchorPolicy, assign_anchors
from .camera import Intrinsics
from .errors import (DomainError, InsufficientFrames, InvariantViolation,
                     MalformedPoseFile, MissingCalibration, MissingPrediction,
                     ParseError)
from .geometry import (Rotation, SE3Pose, apply_anchor, compose,
                       euler_from_rotation, geodesic_deg, geodesic_deg_many)
from .poselog import FrameRecord, PoseLog

FORMAT_VERSION = "v1"
_HEADER_PREFIX = "# poselog"


# ---------------------------------------------------------------------------
# canonical format


def export_canonical(logs, path):
    """Write one or more PoseLogs to a canonical-format file."""
    if isinstance(logs, PoseLog):
        logs = [logs]
    tags = {log.frame_tag for log in logs}
    if len(tags) != 1:
        raise InvariantViolation(f"logs carry mixed frame tags: {sorted(tags)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_HEADER_PREFIX} {FORMAT_VERSION} frame={tags.pop()}\n")
        for log in logs:
            for f in log.frames:
                q = f.pose.rotation
                t = f.pose.translation
                cols = [log.subject_id, f.frame_id, str(f.index),
                        repr(float(q.w)), repr(float(q.x)), repr(float(q.y)), repr(float(q.z)),
                        repr(float(t[0])), repr(float(t[1])), repr(float(t[2]))]
                if f.intrinsics is not None:
                    k = f.intrinsics
                    cols += [repr(float(k.fx)), repr(float(k.fy)), repr(float(k.cx)), repr(float(k.cy)),
                             repr(float(k.width)), repr(float(k.height))]
                fh.write(",".join(cols) + "\n")


def csv_rows(path, widths, header=()):
    """(line number, cells) for each data row of a comma-separated file.

    Rows whose cells are all blank and rows whose first cell starts with
    '#' are skipped, and so is a first row whose first cell, stripped and
    lower-cased, is in header.  Any other row must have one of the given
    widths, else ParseError '<path>:<line>: expected N fields, got M'.
    """
    expected = " or ".join(map(str, widths))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for cells in reader:
                first = cells[0].strip() if cells else ""
                if first.startswith("#") or not (
                        first or any(c.strip() for c in cells)):
                    continue
                if reader.line_num == 1 and first.lower() in header:
                    continue
                if len(cells) not in widths:
                    raise ParseError(f"{path}:{reader.line_num}: expected "
                                     f"{expected} fields, got {len(cells)}")
                yield reader.line_num, cells
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: {exc}") from exc


def finite_floats(cells) -> list:
    """The cells as floats; ValueError on a non-number, nan or inf."""
    vals = [float(c) for c in cells]
    if not all(map(math.isfinite, vals)):
        raise ValueError("non-finite number")
    return vals


@contextmanager
def row_errors(path, lineno):
    """Re-raise a ValueError (DomainError is one) from parsing one text row
    as ParseError '<path>:<lineno>: <message>'."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc


def ingest_canonical_all(path) -> list:
    """Parse a canonical file into one PoseLog per subject (file order)."""
    # csv_rows decodes the whole file strictly and names it on a bad byte
    with open(path, encoding="utf-8", errors="replace") as fh:
        first = fh.readline().rstrip("\n")
    if not first.startswith(_HEADER_PREFIX):
        raise ParseError(f"{path}: missing '{_HEADER_PREFIX}' header line")
    header = first.split()
    if len(header) < 3 or header[2] != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format version in header: {first!r}")
    frame_tag = "world"
    for tok in header[3:]:
        if tok.startswith("frame="):
            frame_tag = tok[len("frame="):]
    by_subject: dict = {}
    order = []
    for lineno, cols in csv_rows(path, (10, 16)):
        subject, frame_id = cols[0], cols[1]
        with row_errors(path, lineno):
            index = int(cols[2])
            vals = finite_floats(cols[3:])
            qw, qx, qy, qz = vals[0:4]
            norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
            if not abs(norm - 1.0) <= 1e-3:
                raise InvariantViolation(
                    f"{path}:{lineno}: quaternion norm {norm:.6f} deviates from 1 by more than 1e-3")
            pose = SE3Pose(Rotation(qw, qx, qy, qz), np.array(vals[4:7]), frame_tag)
            intr = Intrinsics(*vals[7:13]) if len(vals) == 13 else None
        if subject not in by_subject:
            by_subject[subject] = []
            order.append(subject)
        by_subject[subject].append(FrameRecord(frame_id, index, pose, intr))
    if not order:
        raise ParseError(f"{path}: no records")
    try:
        return [PoseLog(s, tuple(by_subject[s]), frame_tag) for s in order]
    except InvariantViolation as exc:
        raise InvariantViolation(f"{path}: {exc}") from exc


def ingest_canonical(path) -> PoseLog:
    """Parse a single-subject canonical file."""
    logs = ingest_canonical_all(path)
    if len(logs) != 1:
        raise ParseError(f"{path}: expected one subject, found {len(logs)}")
    return logs[0]


# ---------------------------------------------------------------------------
# BIWI-style adapter


def _numeric_rows(path):
    rows = []
    # undecodable bytes become U+FFFD, so their line is skipped as annotation
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            toks = line.split()
            if not toks:
                continue
            try:
                rows.append([float(t) for t in toks])
            except ValueError:
                continue  # ignore annotation lines
    return rows


def _is_rotation(m) -> bool:
    """Orthonormal with determinant +1 (a reflection is orthonormal too)."""
    return np.allclose(m.T @ m, np.eye(3), atol=1e-6) and np.linalg.det(m) > 0


def read_biwi_calibration(path):
    """(Intrinsics, depth->RGB SE3Pose) from a calibration file."""
    if not os.path.isfile(path):
        raise MissingCalibration(f"calibration file not found: {path}")
    rows = _numeric_rows(path)
    if len(rows) < 8:
        raise MissingCalibration(f"{path}: expected 8 numeric rows, got {len(rows)}")
    if [len(row) for row in rows[:8]] != [3, 3, 3, 3, 3, 3, 3, 2]:
        raise MissingCalibration(f"{path}: malformed calibration sections")
    if not all(math.isfinite(v) for row in rows[:8] for v in row):
        raise MissingCalibration(f"{path}: non-finite number")
    kmat, rmat = np.array(rows[0:3]), np.array(rows[3:6])
    if not _is_rotation(rmat):
        raise MissingCalibration(f"{path}: rotation block is not a rotation")
    try:
        intr = Intrinsics(fx=kmat[0, 0], fy=kmat[1, 1], cx=kmat[0, 2],
                          cy=kmat[1, 2], width=rows[7][0], height=rows[7][1])
    except DomainError as exc:
        raise MissingCalibration(f"{path}: {exc}") from exc
    transform = SE3Pose(Rotation.from_matrix(rmat), np.array(rows[6]), "rgb")
    return intr, transform


def read_biwi_pose(path) -> SE3Pose:
    """Depth-frame pose from a per-frame text file (3x3 rotation + translation)."""
    rows = _numeric_rows(path)
    vals = [v for row in rows for v in row]
    if len(vals) != 12:
        raise MalformedPoseFile(f"{path}: expected 12 numbers, got {len(vals)}")
    if not all(map(math.isfinite, vals)):
        raise MalformedPoseFile(f"{path}: non-finite number")
    rmat = np.array(vals[0:9]).reshape(3, 3)
    if not _is_rotation(rmat):
        raise MalformedPoseFile(f"{path}: rotation block is not a rotation")
    return SE3Pose(Rotation.from_matrix(rmat), np.array(vals[9:12]), "depth")


def ingest_biwi(subject_dir, pose_glob="frame_*_pose.txt",
                calib_name="rgb.cal") -> PoseLog:
    """Ingest a BIWI-style subject directory, re-expressed in the RGB frame."""
    intr, depth_to_rgb = read_biwi_calibration(os.path.join(subject_dir, calib_name))
    paths = sorted(globmod.glob(os.path.join(subject_dir, pose_glob)))
    if not paths:
        raise MalformedPoseFile(
            f"no pose files matching {pose_glob!r} in {subject_dir}")
    frames = []
    for index, path in enumerate(paths):
        depth_pose = read_biwi_pose(path)
        rgb_pose = compose(depth_to_rgb, depth_pose)
        frame_id = os.path.splitext(os.path.basename(path))[0]
        frames.append(FrameRecord(frame_id, index, rgb_pose, intr))
    subject = os.path.basename(os.path.normpath(subject_dir))
    return PoseLog(subject, tuple(frames), "rgb")


# ---------------------------------------------------------------------------
# pair construction


@dataclass(frozen=True)
class PairSet:
    """Named (anchor_id, query_id, gap_deg) pairs with summary stats."""

    name: str
    pairs: tuple
    seed: int

    @property
    def stats(self) -> dict:
        gaps = [g for _, _, g in self.pairs]
        return {
            "count": len(self.pairs),
            "gap_mean_deg": float(np.mean(gaps)) if gaps else 0.0,
            "gap_max_deg": float(np.max(gaps)) if gaps else 0.0,
        }


def neutral_reference(log: PoseLog) -> Rotation:
    """Per-subject neutral rotation: the frame minimizing the mean geodesic
    distance to all other frames.  Deterministic and annotation-free.
    """
    quats = log.quats
    means = [sum(geodesic_deg_many(q, quats).tolist()) / len(quats)
             for q in quats]
    return log.frames[means.index(min(means))].pose.rotation


def _distances_to_reference(log: PoseLog):
    return geodesic_deg_many(neutral_reference(log).quat, log.quats).tolist()


def _candidates(log: PoseLog, anchors, queries):
    """(anchor_id, query_id, gap_deg) for each pair of distinct frame
    positions, anchor-major, both lists in their given order."""
    frames, quats = log.frames, log.quats
    rows = quats[queries]
    return [(frames[a].frame_id, frames[q].frame_id, gap)
            for a in anchors
            for q, gap in zip(queries, geodesic_deg_many(quats[a], rows).tolist())
            if a != q]


def _sample_pairs(candidates, n_pairs, rng):
    if not n_pairs >= 0:
        raise DomainError(f"n_pairs must be non-negative, got {n_pairs}")
    if n_pairs >= len(candidates):
        return list(candidates)
    idx = rng.choice(len(candidates), size=n_pairs, replace=False)
    return [candidates[i] for i in sorted(idx)]


def build_hard_pairs(log: PoseLog, neutral_thresh_deg=15.0, extreme_thresh_deg=45.0,
                     n_pairs=360, seed=0) -> PairSet:
    """Near-neutral anchors paired with extreme-pose queries."""
    dist = _distances_to_reference(log)
    anchors = [i for i, d in enumerate(dist) if d < neutral_thresh_deg]
    queries = [i for i, d in enumerate(dist) if d > extreme_thresh_deg]
    if not anchors or not queries:
        raise InsufficientFrames(
            f"log {log.subject_id!r}: {len(anchors)} neutral frames "
            f"(< {neutral_thresh_deg} deg), {len(queries)} extreme frames "
            f"(> {extreme_thresh_deg} deg)",
            n_neutral=len(anchors), n_extreme=len(queries))
    candidates = _candidates(log, anchors, queries)
    rng = np.random.default_rng(seed)
    return PairSet("hard", tuple(_sample_pairs(candidates, n_pairs, rng)), seed)


def build_easy_pairs(log: PoseLog, neutral_thresh_deg=15.0, max_gap_deg=8.0,
                     n_pairs=360, seed=0) -> PairSet:
    """Near-neutral anchors paired with near-neutral queries at small gaps."""
    dist = _distances_to_reference(log)
    neutral = [i for i, d in enumerate(dist) if d < neutral_thresh_deg]
    candidates = [c for c in _candidates(log, neutral, neutral)
                  if c[2] <= max_gap_deg]
    if not candidates:
        raise InsufficientFrames(
            f"log {log.subject_id!r}: no frame pairs under gap {max_gap_deg} deg "
            f"among {len(neutral)} neutral frames",
            n_neutral=len(neutral), n_extreme=0)
    rng = np.random.default_rng(seed)
    return PairSet("easy", tuple(_sample_pairs(candidates, n_pairs, rng)), seed)


# ---------------------------------------------------------------------------
# metrics


def wrap_deg(delta: float) -> float:
    """Signed angle difference wrapped to [-180, 180)."""
    return (delta + 180.0) % 360.0 - 180.0


@dataclass(frozen=True)
class MetricReport:
    yaw_mae: float
    pitch_mae: float
    roll_mae: float
    mae: float
    geodesic_mae: float
    n: int
    t_mae_mm: Optional[tuple] = None
    t_l2_mm: Optional[float] = None

    @staticmethod
    def empty() -> "MetricReport":
        return MetricReport(0.0, 0.0, 0.0, 0.0, 0.0, 0)

    def as_dict(self) -> dict:
        d = {"yaw_mae": self.yaw_mae, "pitch_mae": self.pitch_mae,
             "roll_mae": self.roll_mae, "mae": self.mae,
             "geodesic_mae": self.geodesic_mae, "n": self.n}
        if self.t_mae_mm is not None:
            d["tx_mae_mm"], d["ty_mae_mm"], d["tz_mae_mm"] = self.t_mae_mm
            d["t_l2_mm"] = self.t_l2_mm
        return d


def report_from_samples(samples) -> MetricReport:
    """Aggregate error samples (see error_samples) into one MetricReport."""
    if not samples:
        return MetricReport.empty()
    arr = np.array([s[:4] for s in samples])
    yaw, pitch, roll, geo = arr.mean(axis=0)
    dts = np.array([s[4] for s in samples])
    t_mae = tuple(float(v) for v in np.abs(dts).mean(axis=0))
    t_l2 = float(np.linalg.norm(dts, axis=1).mean())
    return MetricReport(float(yaw), float(pitch), float(roll),
                        float((yaw + pitch + roll) / 3.0), float(geo),
                        len(samples), t_mae, t_l2)


def _error_sample(pred: SE3Pose, true: SE3Pose):
    ep = euler_from_rotation(pred.rotation)
    et = euler_from_rotation(true.rotation)
    return (abs(wrap_deg(ep.yaw - et.yaw)),
            abs(wrap_deg(ep.pitch - et.pitch)),
            abs(wrap_deg(ep.roll - et.roll)),
            geodesic_deg(pred.rotation, true.rotation),
            pred.translation - true.translation)


def error_samples(pairs: PairSet, predictions, truth: PoseLog) -> list:
    """One (|dyaw|, |dpitch|, |droll|, geodesic, dt 3-vector) sample per pair.

    predictions maps query_id -> predicted SE3Pose (absolute, truth frame).
    """
    samples = []
    for _, query_id, _ in pairs.pairs:
        if query_id not in predictions:
            raise MissingPrediction(query_id)
        samples.append(_error_sample(predictions[query_id], truth.pose_of(query_id)))
    return samples


def evaluate(pairs: PairSet, predictions, truth: PoseLog) -> MetricReport:
    """Per-axis MAE, geodesic MAE, and translation error over a pair set."""
    return report_from_samples(error_samples(pairs, predictions, truth))


# ---------------------------------------------------------------------------
# binned sweeps


SWEEP_AXES = ("anchor_query_gap", "absolute_query_pose")


@dataclass(frozen=True)
class SweepBin:
    lo: float
    hi: float
    reports: dict  # estimator id -> MetricReport
    pair_count: int


@dataclass(frozen=True)
class SweepReport:
    axis: str
    bin_width_deg: float
    bins: tuple
    total_paired: int
    total_unpaired: int


def predict_query(estimator, subject_id, query_id, anchor_pose: SE3Pose,
                  query_pose: SE3Pose, anchor_truth: SE3Pose) -> SE3Pose:
    """Absolute prediction for one query.

    A relative estimator sees the anchor and query views, so it predicts
    the anchor-to-query transform from their true poses (anchor_truth and
    query_pose); that transform is composed onto anchor_pose, which under
    external_predicted is another estimator's prediction and otherwise is
    anchor_truth.  An absolute estimator ignores the anchor.
    """
    if estimator.kind == "absolute":
        return estimator.predict_absolute(subject_id, query_id, query_pose)
    rel = estimator.predict_relative(subject_id, query_id, anchor_truth,
                                     query_pose)
    return apply_anchor(rel, anchor_pose)


def sweep(logs, estimators, policy: AnchorPolicy, axis: str,
          bin_width_deg: float = 5.0, predictions_by_estimator=None) -> SweepReport:
    """Binned per-estimator metrics along the chosen difficulty axis.

    axis "anchor_query_gap" bins by the anchor-query geodesic gap;
    "absolute_query_pose" bins by the query's distance to the per-subject
    neutral reference and requires a nearest_within policy so the gap stays
    controlled.  Unpaired queries are counted but never evaluated.
    """
    if axis not in SWEEP_AXES:
        raise DomainError(f"unknown sweep axis {axis!r}")
    if axis == "absolute_query_pose" and policy.kind != "nearest_within":
        raise DomainError("absolute_query_pose sweeps require a nearest_within policy")
    if not bin_width_deg > 0:
        raise DomainError(f"bin width must be positive, got {bin_width_deg}")
    if not isinstance(logs, (list, tuple)):
        logs = [logs]
    if not isinstance(estimators, (list, tuple)):
        estimators = [estimators]

    rows = []  # (axis_value, {est_id: sample})
    unpaired = 0
    for log in logs:
        preds_ext = None
        if policy.kind == "external_predicted":
            preds_ext = (predictions_by_estimator or {}).get(policy.external_source)
        assignments = assign_anchors(log, policy, preds_ext)
        if axis == "absolute_query_pose":
            dist = _distances_to_reference(log)
            dist_by_id = {f.frame_id: d for f, d in zip(log.frames, dist)}
        for assignment in sorted(assignments, key=lambda a: a.query_id):
            if not assignment.paired:
                unpaired += 1
                continue
            query_pose = log.pose_of(assignment.query_id)
            anchor_truth = log.pose_of(assignment.anchor_id)
            value = (assignment.gap_deg if axis == "anchor_query_gap"
                     else dist_by_id[assignment.query_id])
            samples = {}
            for est in estimators:
                pred = predict_query(est, log.subject_id, assignment.query_id,
                                     assignment.anchor_pose, query_pose,
                                     anchor_truth)
                samples[est.id] = _error_sample(pred, query_pose)
            rows.append((value, samples))

    max_value = max((v for v, _ in rows), default=0.0)
    n_bins = max(1, int(math.floor(max_value / bin_width_deg)) + 1)
    binned = [[] for _ in range(n_bins)]
    for value, samples in rows:
        b = min(int(value // bin_width_deg), n_bins - 1)
        binned[b].append(samples)
    bins = []
    for b, items in enumerate(binned):
        reports = {}
        for est in estimators:
            reports[est.id] = report_from_samples([s[est.id] for s in items])
        bins.append(SweepBin(b * bin_width_deg, (b + 1) * bin_width_deg,
                             reports, len(items)))
    return SweepReport(axis, bin_width_deg, tuple(bins), len(rows), unpaired)
