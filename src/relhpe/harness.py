"""Benchmark harness: pose-log ingestion (canonical format plus a BIWI-style
adapter), easy/hard pair construction, estimator scoring, metrics, and
binned sweeps.  A prediction table over a pair set is scored by
scoring.evaluate.

The canonical pose-log format, its one reader and its text are in
tables; canonical_logs builds PoseLogs from the reader's columns, one as
each is taken, and export_canonical writes their text through
reports.write_files.

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

Logs and prediction tables are PoseLogs, handled as columns: the readers
build them from arrays, export_canonical writes the columns, and the pair
builders, query batches and sweep (on anchors.anchor_arrays) index them,
so none of these builds an object per frame.
"""

from __future__ import annotations

import glob as globmod
import math
import os
from functools import cached_property

import numpy as np

from .anchors import AnchorPolicy, anchor_arrays
from .camera import Intrinsics
from .errors import (DomainError, EmptyInput, FrameMismatch,
                     InsufficientFrames, InvariantViolation, MalformedPoseFile,
                     MissingCalibration, MissingPredictions, ParseError, whole)
from .geometry import (SE3Pose, compose_many, euler_deg_many,
                       geodesic_deg_many, medoid_index, pairs_within_deg)
from .poselog import PoseLog
from .records import Record
from .reports import write_files
from .rotation import Rotation
from .sampling import sorted_choice
from .tables import (MetricReport, canonical_subjects, canonical_text, named_by,
                     wrap_deg)
from .vocab import SWEEP_AXES


# ---------------------------------------------------------------------------
# canonical format


def export_canonical(logs, path):
    """Write one or more PoseLogs to a canonical-format file, all or
    nothing: tables.canonical_text through reports.write_files, which
    makes path's directory if need be.  EmptyInput for no log."""
    if isinstance(logs, PoseLog):
        logs = [logs]
    if not logs:
        raise EmptyInput("export_canonical: at least one log is needed")
    tags = {log.frame_tag for log in logs}
    if len(tags) != 1:
        raise InvariantViolation(f"logs carry mixed frame tags: {sorted(tags)}")
    text = canonical_text(tags.pop(), (
        (log.subject_id, log.frame_ids, np.hstack(
            [log.quats, log.translations]
            + ([] if log.intrinsics is None else [log.intrinsics])).tolist())
        for log in logs))
    write_files(os.path.dirname(path), [(os.path.basename(path), text)])


def canonical_logs(path):
    """One PoseLog per subject of a canonical file (file order), as an
    iterator.  The whole file is read and checked by
    tables.canonical_subjects when this is called; each PoseLog is built
    only when it is taken, and its subject's read columns are dropped as
    it is, so a caller that keeps no log holds one at a time.  A refusal
    that only PoseLog makes comes when its subject is taken."""
    frame_tag, subjects = canonical_subjects(path)

    def build(subject):
        ids, numbers = subjects.pop(subject)
        values = np.frombuffer(numbers).reshape(-1, 13)
        k = values[:, 7:]
        with named_by(path):
            return PoseLog(subject, ids, values[:, :4], values[:, 4:7], frame_tag,
                           None if np.isnan(k[:, 0]).all() else k)

    return map(build, list(subjects))


def ingest_canonical_all(path) -> list:
    """Parse a canonical file into one PoseLog per subject (file order)."""
    return list(canonical_logs(path))


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
    poses, n = [read_biwi_pose(p) for p in paths], len(paths)
    depth = (np.array([p.rotation.quat for p in poses]),
             np.array([p.translation for p in poses]))
    to_rgb = (np.tile(depth_to_rgb.rotation.quat, (n, 1)),
              np.tile(depth_to_rgb.translation, (n, 1)))
    subject = os.path.basename(os.path.normpath(subject_dir))
    return PoseLog(
        subject, [os.path.splitext(os.path.basename(p))[0] for p in paths],
        *compose_many(to_rgb, depth), "rgb",
        [(intr.fx, intr.fy, intr.cx, intr.cy, intr.width, intr.height)] * n)


# ---------------------------------------------------------------------------
# pair construction


class PairSet(Record):
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
    distance to all other frames (lowest index on ties).  Deterministic and
    annotation-free.  An exact screen (geometry.medoid_index) leaves the
    exact mean to the frames that can win, and screens only the frames
    whose lower bound can still win; memory O(geometry.SCREEN_ROWS x N).
    """
    return Rotation(*log.quats[medoid_index(log.quats)].tolist())


def _distances_to_reference(log: PoseLog) -> np.ndarray:
    return geodesic_deg_many(neutral_reference(log).quat, log.quats)


def _sampled_pairs(name, log: PoseLog, count, rows, n_pairs, seed) -> PairSet:
    """PairSet of count candidate pairs, where rows(k) gives the anchor and
    query frame-position arrays of the candidates at the sorted indices k:
    all of them when n_pairs is at least count, else the indices
    default_rng(seed).choice(count, n_pairs, replace=False) picks, in
    candidate order (sampling.sorted_choice, in O(n_pairs) memory).  Only
    the kept pairs get a gap and become tuples."""
    if n_pairs < count:
        keep = np.array(sorted_choice(seed, count, n_pairs), dtype=np.int64)
    else:
        keep = np.arange(count)
    anchors, queries = rows(keep)
    gaps = geodesic_deg_many(log.quats[anchors], log.quats[queries])
    ids = log.frame_ids
    return PairSet(name, tuple(
        (ids[a], ids[q], gap)
        for a, q, gap in zip(anchors.tolist(), queries.tolist(), gaps.tolist())),
        seed)


def build_hard_pairs(log: PoseLog, neutral_thresh_deg=15.0, extreme_thresh_deg=45.0,
                     n_pairs=360, seed=0) -> PairSet:
    """Near-neutral anchors paired with extreme-pose queries.

    The candidates are the pairs of distinct frames, one neutral and one
    extreme, anchor-major in log order; a candidate's frames come from its
    index and the per-anchor counts, so only the sampled ones are measured.
    """
    whole("n_pairs", n_pairs)
    whole("seed", seed)
    dist = _distances_to_reference(log)
    anchors = np.flatnonzero(dist < neutral_thresh_deg)
    queries = np.flatnonzero(dist > extreme_thresh_deg)
    if not len(anchors) or not len(queries):
        raise InsufficientFrames(
            f"log {log.subject_id!r}: {len(anchors)} neutral frames "
            f"(< {neutral_thresh_deg} deg), {len(queries)} extreme frames "
            f"(> {extreme_thresh_deg} deg)",
            n_neutral=len(anchors), n_extreme=len(queries))
    own = np.isin(anchors, queries)  # a frame is both if the thresholds overlap
    ends = np.cumsum(len(queries) - own)  # an anchor is not its own query

    def rows(k):
        i = np.searchsorted(ends, k, side="right")
        j = k - ends[i] + len(queries) - own[i]
        j += own[i] & (j >= np.searchsorted(queries, anchors[i]))
        return anchors[i], queries[j]

    return _sampled_pairs("hard", log, int(ends[-1]), rows, n_pairs, seed)


def build_easy_pairs(log: PoseLog, neutral_thresh_deg=15.0, max_gap_deg=8.0,
                     n_pairs=360, seed=0) -> PairSet:
    """Near-neutral anchors paired with near-neutral queries at small gaps.

    The candidates are the ordered pairs of distinct neutral frames at gap
    <= max_gap_deg, anchor-major in log order; an exact screen
    (geometry.pairs_within_deg) sends only the pairs that can qualify to
    the geodesic kernel: memory O(geometry.SCREEN_ROWS x N) beyond the
    candidates' position arrays.
    """
    whole("n_pairs", n_pairs)
    whole("seed", seed)
    neutral = np.flatnonzero(_distances_to_reference(log) < neutral_thresh_deg)
    rows, cols = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for r, c, _ in pairs_within_deg(log.quats[neutral], max_gap_deg):
        rows.append(r)
        cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    by_anchor = np.lexsort((cols, rows))
    anchors, queries = neutral[rows[by_anchor]], neutral[cols[by_anchor]]
    if not len(anchors):
        raise InsufficientFrames(
            f"log {log.subject_id!r}: no frame pairs under gap {max_gap_deg} deg "
            f"among {len(neutral)} neutral frames",
            n_neutral=len(neutral), n_extreme=0)
    return _sampled_pairs("easy", log, len(anchors),
                          lambda k: (anchors[k], queries[k]), n_pairs, seed)


# ---------------------------------------------------------------------------
# metrics


def report_from_samples(angles, dts) -> MetricReport:
    """Aggregate error rows (see error_arrays) into one MetricReport."""
    if not len(angles):
        return MetricReport.empty()
    yaw, pitch, roll, geo = angles.mean(axis=0)
    with np.errstate(over="ignore"):  # huge errors give inf, which reports refuse
        t_mae = tuple(float(v) for v in np.abs(dts).mean(axis=0))
        t_l2 = float(np.linalg.norm(dts, axis=1).mean())
    return MetricReport(float(yaw), float(pitch), float(roll),
                        float((yaw + pitch + roll) / 3.0), float(geo),
                        len(angles), t_mae, t_l2)


def error_arrays(pred, batch):
    """Errors of a predicted pose array against a QueryBatch's queries, one
    row per query: (N, 4) |dyaw|, |dpitch|, |droll|, geodesic (degrees)
    and (N, 3) translation differences (mm), both C-contiguous."""
    (pred_q, pred_t), (true_q, true_t) = pred, batch.query
    angles = np.empty((len(pred_q), 4))
    angles[:, :3] = np.abs(wrap_deg(euler_deg_many(pred_q) - batch.query_euler))
    angles[:, 3] = geodesic_deg_many(pred_q, true_q)
    with np.errstate(over="ignore"):  # huge errors give inf, which reports refuse
        return angles, pred_t - true_t


# ---------------------------------------------------------------------------
# binned sweeps


_MIN_BIN_WIDTH_DEG = 0.018  # 10,000 bins over [0, 180] deg, both axes' range


class SweepBin(Record):
    lo: float
    hi: float
    reports: dict  # estimator id -> MetricReport
    pair_count: int


class SweepReport(Record):
    axis: str
    bin_width_deg: float
    bins: tuple
    total_paired: int
    total_unpaired: int


def _rows(log: PoseLog, positions):
    """The pose array of the log's frames at the given positions."""
    positions = np.asarray(positions, dtype=int)
    return log.quats[positions], log.translations[positions]


class QueryBatch(Record):
    """Queries of one log as pose arrays, row i for query frame_ids[i]; an
    estimator's predict(batch) returns the absolute pose array of its rows.

    query and anchor_truth are the true poses an estimator sees; anchor is
    the pose a relative estimator composes its prediction onto: another
    estimator's prediction under external_predicted, else anchor_truth.
    streams is scratch space the estimators of one batch share (simulate
    keeps each query's noise draws there).
    """

    subject_id: str
    frame_ids: list
    query: tuple
    anchor_truth: tuple
    anchor: tuple
    streams: dict = None

    def __post_init__(self):
        if self.streams is None:  # a fresh dict per batch
            object.__setattr__(self, "streams", {})

    @cached_property
    def query_euler(self) -> np.ndarray:
        """euler_deg_many of the query rotations, computed once for all
        the estimators scored on the batch."""
        return euler_deg_many(self.query[0])


def query_batch(log: PoseLog, queries, anchors, anchor=None) -> QueryBatch:
    """QueryBatch of the frames at positions queries, each anchored on the
    frame at the same row of anchors; anchor (a pose array) defaults to
    the anchor frames' true poses."""
    anchor_truth = _rows(log, anchors)
    return QueryBatch(log.subject_id, [log.frame_ids[i] for i in queries],
                      _rows(log, queries), anchor_truth,
                      anchor_truth if anchor is None else anchor)


def pair_batch(log: PoseLog, pairs: PairSet) -> QueryBatch:
    """QueryBatch with one row per pair, in pair order; UnknownFrame when
    a pair's query or anchor is not a frame of the log."""
    return query_batch(log, [log.position(q) for _, q, _ in pairs.pairs],
                       [log.position(a) for a, _, _ in pairs.pairs])


def _pooled_errors(estimators, batches) -> dict:
    """{estimator id: error_arrays rows} of each estimator's predict over
    every batch, joined in batch order.  Every estimator scores a batch
    before the next batch is taken, so the estimators share its noise
    streams and batches can be built one at a time.  DomainError if two
    estimators share an id."""
    estimators = list(estimators)
    chunks = {}  # estimator id -> its error_arrays per batch
    for est in estimators:
        if est.id in chunks:
            raise DomainError(f"estimator id {est.id!r} is used more than once")
        chunks[est.id] = []
    for batch in batches:
        for est in estimators:
            chunks[est.id].append(error_arrays(est.predict(batch), batch))
        del batch  # dropped before the next one is built
    pooled = {}
    for est_id in list(chunks):  # each estimator's chunks dropped once joined
        per_batch = chunks.pop(est_id)
        pooled[est_id] = (np.concatenate([np.empty((0, 4))] + [a for a, _ in per_batch]),
                          np.concatenate([np.empty((0, 3))] + [d for _, d in per_batch]))
    return pooled


def score(estimators, batches) -> dict:
    """{estimator id: MetricReport} of each estimator over the rows of all
    batches (QueryBatches, e.g. pair_batch of each log's pair set), in
    order; estimators and batches may be any iterables.  Each estimator's
    predict returns absolute poses: a relative estimator composes its
    prediction for a pair onto that pair's anchor, even where a query is
    in several pairs."""
    return {est_id: report_from_samples(angles, dts)
            for est_id, (angles, dts) in _pooled_errors(estimators, batches).items()}


def sweep(logs, estimators, policy: AnchorPolicy, axis: str,
          bin_width_deg: float = 5.0, anchor_predictions=None) -> SweepReport:
    """Binned per-estimator metrics along the chosen difficulty axis.

    axis "anchor_query_gap" bins by the anchor-query geodesic gap;
    "absolute_query_pose" bins by the query's distance to the per-subject
    neutral reference and requires a nearest_within policy so the gap stays
    controlled.  Unpaired queries are counted but never evaluated.  Within
    a bin, queries keep log order and query_id order within a log.
    anchor_predictions maps a subject id to that subject's prediction table
    (a PoseLog).  Under external_predicted each query of a log is composed
    onto its subject's prediction for the log's first frame; before that
    log's batch is scored, MissingPredictions when there is none, and
    FrameMismatch when the table is tagged with another frame than the log.
    logs and estimators may be any iterables, or a lone PoseLog and a lone
    estimator.  Each log is taken only after the last one's batch was
    scored, and none is kept, so an iterator such as canonical_logs holds
    one log at a time.
    """
    if not isinstance(policy, AnchorPolicy):
        raise DomainError(f"a sweep needs an anchor policy (an AnchorPolicy), "
                          f"got {policy!r}")
    if axis not in SWEEP_AXES:
        raise DomainError(f"sweep axis {axis!r} is not one of {', '.join(SWEEP_AXES)}")
    if axis == "absolute_query_pose" and policy.kind != "nearest_within":
        raise DomainError("absolute_query_pose sweeps require a nearest_within policy")
    if not _MIN_BIN_WIDTH_DEG <= bin_width_deg < math.inf:
        raise DomainError(f"bin width must be finite and at least {_MIN_BIN_WIDTH_DEG} "
                          f"deg, got {bin_width_deg}", setting="bin_width_deg")
    if isinstance(logs, PoseLog):
        logs = [logs]
    if hasattr(estimators, "predict"):
        estimators = [estimators]

    values = [np.empty(0)]  # axis value per paired query
    unpaired = []  # per log
    tables = anchor_predictions or {}

    def batch(log):  # taken one log at a time, and holds none
        rows = anchor_arrays(log, policy)
        queries = sorted(np.flatnonzero(rows.anchor >= 0).tolist(),
                         key=log.frame_ids.__getitem__)
        unpaired.append(len(log) - len(queries))
        if axis == "anchor_query_gap":
            values.append(rows.gap_deg[queries])
        else:
            values.append(_distances_to_reference(log)[queries])
        anchor = None
        if policy.kind == "external_predicted":
            table, first = tables.get(log.subject_id), log.frame_ids[0]
            where = f"anchor frame {first!r} of log {log.subject_id!r}"
            if table is None or first not in table:
                raise MissingPredictions(f"no prediction for {where}")
            if table.frame_tag != log.frame_tag:
                raise FrameMismatch(f"prediction for {where} is tagged "
                                    f"{table.frame_tag!r}, log is {log.frame_tag!r}")
            anchor = _rows(table, [table.position(first)] * len(queries))
        return query_batch(log, queries, rows.anchor[queries], anchor)

    errors = _pooled_errors(estimators, map(batch, logs))

    values = np.concatenate(values)
    max_value = values.max() if len(values) else 0.0
    n_bins = max(1, int(math.floor(max_value / bin_width_deg)) + 1)
    which = np.minimum(np.floor_divide(values, bin_width_deg).astype(int),
                       n_bins - 1)
    order = np.argsort(which, kind="stable")
    counts = np.bincount(which, minlength=n_bins).tolist()
    spans = [(end - n, end) for n, end in zip(counts, np.cumsum(counts).tolist())]
    reports = [{} for _ in spans]
    for est_id in list(errors):  # each estimator's rows dropped once binned
        angles, dts = errors.pop(est_id)
        angles, dts = angles[order], dts[order]
        for (lo, hi), by_id in zip(spans, reports):
            by_id[est_id] = report_from_samples(angles[lo:hi], dts[lo:hi])
    bins = tuple(SweepBin(b * bin_width_deg, (b + 1) * bin_width_deg, by_id, n)
                 for b, (by_id, n) in enumerate(zip(reports, counts)))
    return SweepReport(axis, bin_width_deg, bins, len(values), sum(unpaired))
