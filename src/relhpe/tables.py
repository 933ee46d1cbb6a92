"""The text formats of pose tables and the metric record, shared by the
numpy library and the standard-library `eval` and `simulate` paths.

The canonical pose-log format (UTF-8, comma separated, '.' decimal point):

    # poselog v1 frame=<frame_tag>
    subject_id,frame_id,index,qw,qx,qy,qz,tx_mm,ty_mm,tz_mm[,fx,fy,cx,cy,width,height]

One record per line; the six intrinsics fields are optional per record.
Blank rows and '#' comment rows are skipped (see rows.csv_rows).

The format's rules live here only: the header, the checks on a log's
names (frame_positions, which PoseLog runs), the one reader
(canonical_subjects: harness.canonical_logs and scoring.read_truth)
and the one text of a file (canonical_text, which harness.export_canonical
and `simulate` write through reports.write_files).  The prediction
table's row loop (prediction_rows) and MetricReport, the record both
scorers return, are here for the same reason: scoring reads `eval`'s
files without numpy.  Standard library only.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from contextlib import contextmanager
from itertools import groupby
from typing import Optional

from .camera import Intrinsics
from .errors import InvariantViolation, ParseError
from .records import Record
from .rotation import unit_quat
from .rows import csv_rows, finite_floats, row_errors

# A canonical pose-log file starts with the line header(tag).
HEADER_PREFIX = "# poselog"
FORMAT_VERSION = "v1"

_NO_INTRINSICS = (math.nan,) * 6  # the intrinsics columns of a row without

# A canonical row's cells without and with intrinsics, how far its
# quaternion's norm may lie from 1, and which of its 13 numbers must be
# positive (fx, fy, width, height).
_WIDTHS = (10, 16)
_NORM_TEXT = "1e-3"
_NORM_TOLERANCE = float(_NORM_TEXT)
_SIZES = (7, 8, 11, 12)
_BLOCK_BYTES = 1 << 14  # text read per block by _plain_subjects


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
# the text of a file


def canonical_text(frame_tag, logs):
    """The text of a canonical file of logs tagged frame_tag, in chunks:
    its header line, then for each (subject id, frame ids, rows) of logs
    one chunk of one line per frame, subject, frame id, index and the
    row's numbers by repr.  A row holds the quaternion and the
    translation, or those and the intrinsics, which are left out when the
    first of them is nan.  A generator: each log is drawn and its text
    built only as the chunks are written (reports.write_files)."""
    yield header(frame_tag) + "\n"
    for subject_id, frame_ids, rows in logs:
        lines = []
        for i, (frame_id, row) in enumerate(zip(frame_ids, rows)):
            if len(row) > 7 and math.isnan(row[7]):
                row = row[:7]  # a frame without intrinsics
            lines.append(f"{subject_id},{frame_id},{i},"
                         f"{','.join(map(repr, row))}\n")
        yield "".join(lines)


# ---------------------------------------------------------------------------
# readers


def _frame_tag(path) -> str:
    """The frame tag in a canonical file's header line ('world' if it
    names none); ParseError if the first line is no supported header, or
    is longer than csv.field_size_limit(), past which it is not read."""
    limit = csv.field_size_limit()
    # csv_rows names the line of a bad byte
    with open(path, encoding="utf-8", errors="replace") as fh:
        first = fh.readline(limit + 1).rstrip("\n")
    if not first.startswith(HEADER_PREFIX):
        raise ParseError(f"{path}: missing '{HEADER_PREFIX}' header line")
    if len(first) > limit:  # csv_rows's error, without reading it whole
        raise ParseError(f"{path}:1: field larger than field limit ({limit})")
    words = first.split()
    if len(words) < 3 or words[2] != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format version in header: {first!r}")
    frame_tag = "world"
    for tok in words[3:]:
        if tok.startswith("frame="):
            frame_tag = tok[len("frame="):]
    return frame_tag


def _quat_norm(w, x, y, z) -> float:
    return math.sqrt(w * w + x * x + y * y + z * z)


def canonical_subjects(path) -> tuple:
    """(frame tag, subjects) of a canonical file: the header's frame tag,
    and subject -> (its frame ids as keys, in file order; 13 numbers a row,
    the quaternion, the translation and the intrinsics or six nan).

    ParseError '<path>: ...' for a first line that is no supported header
    or a file without records, and '<path>:<line>: ...' at the first bad
    row: a number that is not finite, a quaternion norm more than 1e-3
    from 1 (InvariantViolation), intrinsics that Intrinsics rejects, a
    repeated frame id or an index out of sequence.  A plain file is read a
    block of lines at a time; any other, and one with a block that fails
    a check, row by row, which names the first bad row or byte."""
    frame_tag = _frame_tag(path)
    subjects = _plain_subjects(path)
    if subjects is None:
        subjects = _row_subjects(path)
    if not subjects:
        raise ParseError(f"{path}: no records")
    return frame_tag, subjects


def _row_subjects(path) -> dict:
    """canonical_subjects' subjects, read one row at a time through
    csv_rows; ParseError at the first bad row."""
    subjects = {}
    for lineno, cols in csv_rows(path, _WIDTHS):
        subject, frame_id = cols[0], cols[1]
        with row_errors(path, lineno):
            index, vals = int(cols[2]), finite_floats(cols[3:])
            norm = _quat_norm(*vals[:4])
            if not abs(norm - 1.0) <= _NORM_TOLERANCE:
                raise InvariantViolation(
                    f"{path}:{lineno}: quaternion norm {norm:.6f} deviates "
                    f"from 1 by more than {_NORM_TEXT}")
            # finite_floats leaves only the sizes' sign to check
            if len(vals) == 13 and not min(vals[c] for c in _SIZES) > 0:
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


def _plain_subjects(path):
    """canonical_subjects' subjects read a block of whole lines at a time,
    with _row_subjects' row checks, or None once the file or a block is not
    plain or a row fails a check.  A plain block is ASCII without '"', '#'
    or '\r', and each line ends in '\n' and holds 9 commas, or each 15, so
    csv_rows would read the same cells.  A line is then under two blocks
    long, and a file is plain only while csv.field_size_limit() admits a
    cell that long and the header line, which csv_rows reads as a cell."""
    subjects, rest = {}, b""
    with open(path, "rb") as fh:
        head = fh.readline(csv.field_size_limit() + 1)
        if (not head.isascii() or b'"' in head or b"\r" in head
                or max(len(head), 2 * _BLOCK_BYTES) > csv.field_size_limit()):
            return None
        while chunk := fh.read(_BLOCK_BYTES):
            block, _, rest = (rest + chunk).rpartition(b"\n")
            lines, commas = block.count(b"\n") + 1, block.count(b",")
            width = commas // lines + 1
            if (width not in _WIDTHS or commas != (width - 1) * lines
                    or not block.isascii() or b'"' in block or b"#" in block
                    or b"\r" in block):
                return None
            # each '\n' starts a cell: a line has `width` cells if all are first
            cells = block.decode("ascii").replace("\n", ",\n").split(",")
            names, frame_ids = "".join(cells[0::width]).split("\n"), cells[1::width]
            if len(names) != lines:
                return None
            try:
                indices = list(map(int, cells[2::width]))
                del cells[0::width], cells[0::width - 1], cells[0::width - 2]
                vals = finite_floats(cells)
            except ValueError:
                return None
            n = width - 3  # numbers a line
            norms = map(_quat_norm, vals[0::n], vals[1::n], vals[2::n], vals[3::n])
            if not (all(abs(norm - 1.0) <= _NORM_TOLERANCE for norm in norms)
                    and (n == 7 or min(min(vals[c::n]) for c in _SIZES) > 0)):
                return None
            if n == 7:  # the intrinsics of a row without are six nan
                vals, short = [math.nan] * (13 * lines), vals
                for c in range(7):
                    vals[c::13] = short[c::7]
            start = 0
            for subject, run in groupby(names):
                stop = start + len(list(run))
                ids, numbers = subjects.setdefault(subject, ({}, array("d")))
                if indices[start:stop] != list(range(len(ids), len(ids) + stop - start)):
                    return None
                ids.update(dict.fromkeys(frame_ids[start:stop]))
                if len(ids) != indices[stop - 1] + 1:  # a frame id seen before
                    return None
                numbers.fromlist(vals[13 * start:13 * stop])
                start = stop
    return None if rest else subjects


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
            unit_quat(*vals[:4])  # a zero or overflowing norm is a DomainError
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
