"""Per-subject pose sequences: frame records and ordered logs.

A PoseLog is columnar: its frame ids, (N, 4) canonical quaternions, (N, 3)
translations and optional (N, 6) intrinsics are the log.  The array paths
read these columns; the FrameRecord view (PoseLog.frames) is built only
when asked for.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .camera import Intrinsics, intrinsics_ok_many
from .errors import (DomainError, EmptyInput, FrameMismatch,
                     InvariantViolation, UnknownFrame)
from .geometry import Rotation, SE3Pose, canonical_many

# An id the CSV readers would skip as a '#' comment, read as a quoted field,
# or split (comma, line break): harness.csv_rows could not read it back.
_UNWRITABLE_ID = re.compile(r'\s*[#"]|[^,\r\n]*[,\r\n]')


def _check_id(kind, value):
    if _UNWRITABLE_ID.match(value):
        raise InvariantViolation(
            f"{kind} id {value!r} starts with '#' or '\"' or holds a comma "
            f"or line break, so it cannot be written to a CSV row")


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
    frame has any).

    PoseLog(subject_id, frames, frame_tag) takes FrameRecords, indexed
    0..N-1 and tagged frame_tag; PoseLog.from_arrays takes the columns.
    """

    def __init__(self, subject_id: str, frames, frame_tag: str = "world"):
        frames = tuple(frames)
        for want, f in enumerate(frames):
            if f.index != want:
                raise InvariantViolation(
                    f"log {subject_id!r}: frame {f.frame_id!r} has index "
                    f"{f.index}, expected {want}")
            if f.pose.frame_tag != frame_tag:
                raise FrameMismatch(
                    f"frame {f.frame_id!r} tagged {f.pose.frame_tag!r}, "
                    f"log is {frame_tag!r}")
        intrinsics = None
        if any(f.intrinsics is not None for f in frames):
            intrinsics = [(math.nan,) * 6 if k is None else
                          (k.fx, k.fy, k.cx, k.cy, k.width, k.height)
                          for k in (f.intrinsics for f in frames)]
        self._set_columns(
            subject_id, [f.frame_id for f in frames],
            [(r.w, r.x, r.y, r.z) for r in (f.pose.rotation for f in frames)],
            [f.pose.translation for f in frames], frame_tag, intrinsics)
        self.__dict__["frames"] = frames  # the cached view is the input

    @classmethod
    def from_arrays(cls, subject_id: str, frame_ids, quats, translations,
                    frame_tag: str = "world", intrinsics=None) -> "PoseLog":
        """The log of the given columns (see the class docstring), with no
        per-frame object built.  Each quaternion row becomes Rotation(*row)'s
        components (canonical_many); DomainError on a zero or non-finite
        quaternion, a non-finite translation or an intrinsics row that
        Intrinsics rejects."""
        log = cls.__new__(cls)
        log._set_columns(subject_id, frame_ids, quats, translations, frame_tag,
                         intrinsics)
        return log

    def _set_columns(self, subject_id, frame_ids, quats, translations,
                     frame_tag, intrinsics):
        frame_ids = tuple(frame_ids)
        if not frame_ids:
            raise EmptyInput(f"log {subject_id!r} has no frames")
        _check_id("subject", subject_id)
        if any(c.isspace() for c in frame_tag):
            raise InvariantViolation(
                f"frame tag {frame_tag!r} holds whitespace, so it cannot "
                f"be written to a poselog header")
        position = {f: i for i, f in enumerate(frame_ids)}
        if len(position) != len(frame_ids):
            raise InvariantViolation(f"duplicate frame ids in log {subject_id!r}")
        for f in frame_ids:
            _check_id("frame", f)
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
