"""Per-subject pose sequences: frame records and ordered logs.

A PoseLog is columnar: its frame ids, (N, 4) canonical quaternions, (N, 3)
translations and optional (N, 6) intrinsics are the log, and its only
constructor takes them.  The readers, the pair builders, the sweep and the
prediction tables read these columns; the FrameRecord view
(PoseLog.frames) is built only when asked for.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .camera import Intrinsics, intrinsics_ok_many
from .errors import DomainError, EmptyInput, InvariantViolation, UnknownFrame
from .geometry import SE3Pose, canonical_many
from .rotation import Rotation

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


@dataclass(frozen=True)
class FrameRecord:
    frame_id: str
    index: int
    pose: SE3Pose
    intrinsics: Optional[Intrinsics] = None


class PoseLog:
    """Ordered frames for one subject/sequence, all in one coordinate frame.

    Columns, row i for frame i: frame_ids (tuple of str), quats (read-only
    (N, 4) canonical (w, x, y, z), as Rotation stores them), translations
    (read-only (N, 3), mm) and intrinsics (read-only (N, 6) fx, fy, cx, cy,
    width, height with a row of NaN for a frame without, or None when no
    frame has any).  The constructor takes these columns and builds no
    per-frame object: each quaternion row becomes Rotation(*row)'s
    components (canonical_many).  DomainError on a zero or non-finite
    quaternion, a non-finite translation or an intrinsics row that
    Intrinsics rejects.
    """

    def __init__(self, subject_id: str, frame_ids, quats, translations,
                 frame_tag: str = "world", intrinsics=None):
        frame_ids = tuple(frame_ids)
        if not frame_ids:
            raise EmptyInput(f"log {subject_id!r} has no frames")
        # read here, not at import: the limit is a process-wide setting
        limit = csv.field_size_limit()
        _check_id("subject", subject_id, limit)
        # the header '# poselog v1 frame=<tag>' is split on whitespace, and
        # csv_rows must read it as one cell (after a comma a '"' would open
        # a quoted field) within the limit
        if any(c.isspace() or c == "," for c in frame_tag):
            raise InvariantViolation(
                f"frame tag {frame_tag!r} holds whitespace or a comma, so it "
                f"cannot be written to a poselog header")
        if len(frame_tag) > limit - len("# poselog v1 frame="):
            raise InvariantViolation(
                f"frame tag {frame_tag[:20]!r}... is {len(frame_tag)} characters "
                f"long: its poselog header is longer than the CSV field size "
                f"limit ({limit})")
        position = {f: i for i, f in enumerate(frame_ids)}
        if len(position) != len(frame_ids):
            raise InvariantViolation(f"duplicate frame ids in log {subject_id!r}")
        for f in frame_ids:
            _check_id("frame", f, limit)
        n = len(frame_ids)
        quats = canonical_many(np.asarray(quats, dtype=float).reshape(n, 4))
        translations = np.array(translations, dtype=float).reshape(n, 3)
        bad = ~np.isfinite(translations).all(axis=1)
        if bad.any():
            raise DomainError(f"frame {frame_ids[bad.argmax()]!r}: translation "
                              f"{translations[bad.argmax()].tolist()} is not finite")
        if intrinsics is not None:
            intrinsics = np.array(intrinsics, dtype=float).reshape(n, 6)
            bad = ~(np.isnan(intrinsics).all(axis=1) | intrinsics_ok_many(intrinsics))
            if bad.any():
                Intrinsics(*intrinsics[bad.argmax()].tolist())  # names the fault
            intrinsics.flags.writeable = False
        quats.flags.writeable = translations.flags.writeable = False
        self.subject_id, self.frame_ids, self.frame_tag = subject_id, frame_ids, frame_tag
        self.quats, self.translations, self.intrinsics = quats, translations, intrinsics
        self._position = position

    def __len__(self):
        return len(self.frame_ids)

    def __contains__(self, frame_id):
        return frame_id in self._position

    @cached_property
    def frames(self) -> tuple:
        """The log as FrameRecords, built from the columns on first use."""
        k = ([None] * len(self) if self.intrinsics is None else
             [None if math.isnan(row[0]) else Intrinsics(*row)
              for row in self.intrinsics.tolist()])
        return tuple(
            FrameRecord(f, i, SE3Pose(Rotation(*q), t, self.frame_tag), k[i])
            for i, (f, q, t) in enumerate(zip(
                self.frame_ids, self.quats.tolist(), self.translations.tolist())))

    def position(self, frame_id: str) -> int:
        """Index of a frame in the log."""
        if frame_id not in self._position:
            raise UnknownFrame(f"log {self.subject_id!r} has no frame {frame_id!r}")
        return self._position[frame_id]
