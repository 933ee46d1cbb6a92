"""The text formats of pose tables and the metric record, shared by the
numpy library and the standard-library `eval` path.

The canonical pose-log header, the checks on a log's names
(frame_positions) and the row loops of the canonical log
(canonical_subjects) and of the prediction table (prediction_rows) live
here: PoseLog, harness.ingest_canonical_all and
simulate.load_predictions_csv use them, and so does scoring, which reads
`eval`'s files without numpy.  MetricReport, the record both scorers
return, is here for the same reason.  Standard library only.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from contextlib import contextmanager
from typing import Optional

from .camera import Intrinsics
from .errors import DomainError, InvariantViolation, ParseError
from .records import Record
from .rows import csv_rows, finite_floats, row_errors

# A canonical pose-log file (see harness) starts with the line header(tag).
HEADER_PREFIX = "# poselog"
FORMAT_VERSION = "v1"

_NO_INTRINSICS = (math.nan,) * 6  # the intrinsics columns of a row without


def header(frame_tag: str) -> str:
    """The first line of a canonical file of logs tagged frame_tag."""
    return f"{HEADER_PREFIX} {FORMAT_VERSION} frame={frame_tag}"


# An id the CSV readers would skip as a '#' comment, read as a quoted field,
# or split (comma, line break): rows.csv_rows could not read it back.
_UNWRITABLE_ID = re.compile(r'\s*[#"]|[^,\r\n]*[,\r\n]')


def _check_id(kind, value, limit):
    """InvariantViolation unless csv_rows reads value back as one cell no
    longer than limit, the csv module's field size limit."""
    if _UNWRITABLE_ID.match(value):
        raise InvariantViolation(
            f"{kind} id {value!r} starts with '#' or '\"' or holds a comma "
            f"or line break, so it cannot be written to a CSV row")
    if len(value) > limit:
        raise InvariantViolation(
            f"{kind} id {value[:20]!r}... is {len(value)} characters long, "
            f"more than the CSV field size limit ({limit})")


def frame_positions(subject_id: str, frame_ids, frame_tag: str) -> dict:
    """{frame id: position} of a log's frames (a sequence of str), once its
    names can be written: InvariantViolation for a subject id, frame tag or
    frame id that a canonical file or CSV row cannot hold, and for a frame
    id that repeats."""
    # read here, not at import: the limit is a process-wide setting
    limit = csv.field_size_limit()
    _check_id("subject", subject_id, limit)
    # header(frame_tag) is split on whitespace, and csv_rows must read
    # it as one cell (after a comma a '"' would open a quoted field)
    # within the limit
    if any(c.isspace() or c == "," for c in frame_tag):
        raise InvariantViolation(
            f"frame tag {frame_tag!r} holds whitespace or a comma, so it "
            f"cannot be written to a poselog header")
    if len(header(frame_tag)) > limit:
        raise InvariantViolation(
            f"frame tag {frame_tag[:20]!r}... is {len(frame_tag)} characters "
            f"long: its poselog header is longer than the CSV field size "
            f"limit ({limit})")
    position = {f: i for i, f in enumerate(frame_ids)}
    if len(position) != len(frame_ids):
        raise InvariantViolation(f"duplicate frame ids in log {subject_id!r}")
    # one pass over all ids; the per-id check names the first bad one
    joined = "".join(frame_ids)
    if (any(c in joined for c in ',\r\n#"')
            or max(map(len, frame_ids)) > limit):
        for f in frame_ids:
            _check_id("frame", f, limit)
    return position


@contextmanager
def named_by(path):
    """Re-raise an InvariantViolation as InvariantViolation '<path>: ...'."""
    try:
        yield
    except InvariantViolation as exc:
        raise InvariantViolation(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# readers


def canonical_frame_tag(path) -> str:
    """The frame tag in a canonical file's header line ('world' if it
    names none); ParseError if the first line is no supported header."""
    # csv_rows names the line of a bad byte
    with open(path, encoding="utf-8", errors="replace") as fh:
        first = fh.readline().rstrip("\n")
    if not first.startswith(HEADER_PREFIX):
        raise ParseError(f"{path}: missing '{HEADER_PREFIX}' header line")
    words = first.split()
    if len(words) < 3 or words[2] != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format version in header: {first!r}")
    frame_tag = "world"
    for tok in words[3:]:
        if tok.startswith("frame="):
            frame_tag = tok[len("frame="):]
    return frame_tag


def canonical_subjects(path) -> dict:
    """The rows of a canonical file, read one at a time through csv_rows:
    subject -> (its frame ids as keys, in file order; 13 numbers a row,
    the quaternion, the translation and the intrinsics or six nan).
    ParseError '<path>:<line>: ...' at the first bad row: a number that is
    not finite, a quaternion norm more than 1e-3 from 1 (InvariantViolation),
    intrinsics that Intrinsics rejects, a repeated frame id or an index
    out of sequence."""
    subjects = {}
    for lineno, cols in csv_rows(path, (10, 16)):
        subject, frame_id = cols[0], cols[1]
        with row_errors(path, lineno):
            index, vals = int(cols[2]), finite_floats(cols[3:])
            w, x, y, z = vals[:4]
            norm = math.sqrt(w * w + x * x + y * y + z * z)
            if not abs(norm - 1.0) <= 1e-3:
                raise InvariantViolation(
                    f"{path}:{lineno}: quaternion norm {norm:.6f} deviates "
                    f"from 1 by more than 1e-3")
            # finite_floats leaves only the sizes' sign to check
            if len(vals) == 13 and not min(vals[7], vals[8], vals[11], vals[12]) > 0:
                Intrinsics(*vals[7:])  # raises, naming the fault
        if subject not in subjects:
            subjects[subject] = ({}, array("d"))
        ids, numbers = subjects[subject]
        if frame_id in ids:
            raise ParseError(f"{path}:{lineno}: duplicate frame id {frame_id!r} "
                             f"in log {subject!r}")
        if index != len(ids):
            raise ParseError(f"{path}:{lineno}: log {subject!r}: frame "
                             f"{frame_id!r} has index {index}, expected {len(ids)}")
        ids[frame_id] = None
        numbers.extend(vals)
        if len(vals) == 7:
            numbers.extend(_NO_INTRINSICS)
    return subjects


def prediction_rows(path):
    """(query ids as keys, in file order; 7 numbers a row, the quaternion
    and the translation) of a CSV of (query_id, qw, qx, qy, qz, tx, ty, tz)
    rows.  ParseError naming the line of a duplicate id, a non-finite
    number or a zero or overflowing quaternion, and '<path>: no records'
    for a file without."""
    ids, numbers = {}, array("d")
    for lineno, row in csv_rows(path, (8,), header=("query_id", "frame_id")):
        if row[0] in ids:
            raise ParseError(f"{path}:{lineno}: duplicate query id {row[0]!r}")
        with row_errors(path, lineno):
            vals = finite_floats(row[1:])
            w, x, y, z = vals[:4]
            norm = math.sqrt(w * w + x * x + y * y + z * z)
            if not 0.0 < norm < math.inf:
                raise DomainError(f"quaternion norm {norm} is zero or non-finite")
        ids[row[0]] = None
        numbers.extend(vals)
    if not ids:
        raise ParseError(f"{path}: no records")
    return ids, numbers


# ---------------------------------------------------------------------------
# the metric record


def wrap_deg(delta: float) -> float:
    """Signed angle difference wrapped to [-180, 180)."""
    return (delta + 180.0) % 360.0 - 180.0


class MetricReport(Record):
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
