"""The `eval` command without numpy: its three files read into plain
tables and tuples, and the pair set scored on (w, x, y, z) tuples through
rotation's kernels.

read_truth and read_predictions run the row loops and name checks of
tables, which harness.ingest_canonical and simulate.load_predictions_csv
run too, so they accept and refuse the same files with the same messages.
score_pairs equals harness.score over a TableEstimator bit for bit: each
mean adds in the order numpy's mean does (metric_report).  cli imports
this module inside cmd_eval only, so no other command loads it.
"""

from __future__ import annotations

import math

from .errors import ParseError
from .reports import PAIRS_CSV_COLUMNS
from .rotation import quat_euler_deg, quat_geodesic_deg, unit_quat
from .rows import csv_rows, row_errors
from .tables import (MetricReport, canonical_subjects, frame_positions,
                     named_by, prediction_rows, wrap_deg)

# How far (degrees) a pairs-CSV gap may lie from the gap of its frames in
# the truth log.  `pairs` writes the gap geodesic_deg_many gives, with repr,
# so its files over the same log match exactly; the slack admits a gap that
# another tool computed in double precision (the arccos-of-trace form is
# off by up to about 2e-6 degrees near 0 and 180) or printed to three
# decimals.  A pair set made over another log is off by far more.
GAP_TOLERANCE_DEG = 1e-3


class PoseTable:
    """One log's poses as read, keyed by frame id: row i of numbers holds
    width floats, the quaternion (w, x, y, z) and the translation (mm)
    first.  The names are checked as PoseLog checks them, its
    InvariantViolation prefixed with path."""

    def __init__(self, path, subject_id, frame_ids, numbers, width, frame_tag):
        with named_by(path):
            self.positions = frame_positions(subject_id, frame_ids, frame_tag)
        self.subject_id, self.numbers, self.width = subject_id, numbers, width

    def __contains__(self, frame_id):
        return frame_id in self.positions

    def pose(self, frame_id):
        """(quaternion, translation) of a frame as tuples of floats, the
        quaternion as Rotation and PoseLog store it (unit_quat)."""
        i = self.positions[frame_id] * self.width
        w, x, y, z, tx, ty, tz = self.numbers[i:i + 7]
        return unit_quat(w, x, y, z), (tx, ty, tz)


def read_truth(path) -> PoseTable:
    """harness.ingest_canonical of a single-subject canonical file, with
    its checks and errors, as a PoseTable."""
    frame_tag, subjects = canonical_subjects(path)
    tables = [PoseTable(path, subject, ids, numbers, 13, frame_tag)
              for subject, (ids, numbers) in subjects.items()]
    if len(tables) != 1:
        raise ParseError(f"{path}: expected one subject, found {len(tables)}")
    return tables[0]


def read_predictions(path) -> PoseTable:
    """simulate.load_predictions_csv, with its checks and errors, as a
    PoseTable."""
    ids, numbers = prediction_rows(path)
    return PoseTable(path, "predictions", ids, numbers, 7, "world")


def read_pairs_csv(path):
    """The pairs command's CSV read by position: (anchor_id, query_id,
    gap_deg) per pair, each gap in [0, 180] degrees, and the line number
    of each pair."""
    pairs, lines = [], []
    for lineno, (anchor_id, query_id, gap) in csv_rows(
            path, (len(PAIRS_CSV_COLUMNS),), header=PAIRS_CSV_COLUMNS[:1]):
        with row_errors(path, lineno):
            if not math.isfinite(value := float(gap)):
                raise ValueError(f"non-finite number {gap}")
            if not 0.0 <= value <= 180.0:
                raise ValueError(f"gap_deg {value!r} is outside [0, 180]")
            pairs.append((anchor_id, query_id, value))
            lines.append(lineno)
    return pairs, lines


def check_pairs(path, lines, pairs, truth: PoseTable, preds_path, preds: PoseTable):
    """ParseError '<path>:<line>: ...' at the first pair with an id that
    the truth table lacks or a query that the prediction table preds (read
    from preds_path) lacks; else at the first pair whose gap is more than
    GAP_TOLERANCE_DEG from its frames' gap in the truth log."""
    for lineno, (anchor_id, query_id, _) in zip(lines, pairs):
        for frame_id in (anchor_id, query_id):
            if frame_id not in truth:
                raise ParseError(f"{path}:{lineno}: log {truth.subject_id!r} "
                                 f"has no frame {frame_id!r}")
        if query_id not in preds:
            raise ParseError(f"{path}:{lineno}: no prediction for query "
                             f"{query_id!r} in {preds_path}")
    for lineno, (anchor_id, query_id, gap) in zip(lines, pairs):
        true_gap = quat_geodesic_deg(truth.pose(anchor_id)[0],
                                     truth.pose(query_id)[0])
        if not abs(gap - true_gap) <= GAP_TOLERANCE_DEG:
            raise ParseError(
                f"{path}:{lineno}: gap_deg {gap!r} of {anchor_id!r} -> "
                f"{query_id!r} is {true_gap!r} in the truth log (tolerance "
                f"{GAP_TOLERANCE_DEG} deg)")


# ---------------------------------------------------------------------------
# metrics


def _pairwise_sum(a, lo, hi) -> float:
    """The sum of a[lo:hi] in numpy's pairwise order: in turn below 8
    values, in 8 running sums up to 128, else the two halves split at a
    multiple of 8."""
    n = hi - lo
    if n < 8:
        total = 0.0
        for i in range(lo, hi):
            total += a[i]
        return total
    if n <= 128:
        r = a[lo:lo + 8]
        stop = hi - n % 8
        for i in range(lo + 8, stop, 8):
            for j in range(8):
                r[j] += a[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(stop, hi):
            total += a[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a, lo, lo + half) + _pairwise_sum(a, lo + half, hi)


def metric_report(rows) -> MetricReport:
    """The MetricReport of error rows (|dyaw|, |dpitch|, |droll|, geodesic
    in degrees, dtx, dty, dtz in mm), equal to harness.report_from_samples
    of their arrays: the angle and |dt| means add down their column in
    turn, as numpy's axis-0 mean does, and t_l2_mm is the mean of the row
    norms in numpy's pairwise order.  A sum overflows to inf, not raising."""
    n = len(rows)
    if not n:
        return MetricReport.empty()
    totals = [0.0] * 7
    norms = []
    for *angles, dx, dy, dz in rows:
        for j, value in enumerate((*angles, abs(dx), abs(dy), abs(dz))):
            totals[j] += value
        norms.append(math.sqrt(dx * dx + dy * dy + dz * dz))
    yaw, pitch, roll, geo, tx, ty, tz = (total / n for total in totals)
    return MetricReport(yaw, pitch, roll, (yaw + pitch + roll) / 3.0, geo, n,
                        (tx, ty, tz), _pairwise_sum(norms, 0, n) / n)


def score_pairs(pairs, truth: PoseTable, preds: PoseTable) -> MetricReport:
    """The MetricReport of preds' pose of each pair's query against its
    truth, in pair order: harness.score of a TableEstimator over the
    pair_batch, bit for bit."""
    rows = []
    for _, query_id, _ in pairs:
        (q, t), (p, u) = truth.pose(query_id), preds.pose(query_id)
        yaw, pitch, roll = (a - b for a, b in zip(quat_euler_deg(p),
                                                  quat_euler_deg(q)))
        rows.append((abs(wrap_deg(yaw)), abs(wrap_deg(pitch)), abs(wrap_deg(roll)),
                     quat_geodesic_deg(p, q), u[0] - t[0], u[1] - t[1], u[2] - t[2]))
    return metric_report(rows)
