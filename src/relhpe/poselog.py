"""Per-subject pose sequences: frame records and ordered logs."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .camera import Intrinsics
from .errors import (EmptyInput, FrameMismatch, InvariantViolation,
                     UnknownFrame)
from .geometry import SE3Pose

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


@dataclass(frozen=True)
class PoseLog:
    """Ordered frames for one subject/sequence, all in one coordinate frame."""

    subject_id: str
    frames: tuple
    frame_tag: str = "world"

    def __post_init__(self):
        frames = tuple(self.frames)
        object.__setattr__(self, "frames", frames)
        if not frames:
            raise EmptyInput(f"log {self.subject_id!r} has no frames")
        _check_id("subject", self.subject_id)
        object.__setattr__(self, "_position",
                           {f.frame_id: i for i, f in enumerate(frames)})
        if len(self._position) != len(frames):
            raise InvariantViolation(f"duplicate frame ids in log {self.subject_id!r}")
        for want, f in enumerate(frames):
            _check_id("frame", f.frame_id)
            if f.index != want:
                raise InvariantViolation(
                    f"log {self.subject_id!r}: frame {f.frame_id!r} has index "
                    f"{f.index}, expected {want}")
            if f.pose.frame_tag != self.frame_tag:
                raise FrameMismatch(
                    f"frame {f.frame_id!r} tagged {f.pose.frame_tag!r}, "
                    f"log is {self.frame_tag!r}")

    def __len__(self):
        return len(self.frames)

    @cached_property
    def quats(self) -> np.ndarray:
        """Read-only (N, 4) array of the frames' (w, x, y, z) quaternions."""
        q = np.array([(r.w, r.x, r.y, r.z)
                      for r in (f.pose.rotation for f in self.frames)])
        q.flags.writeable = False
        return q

    def pose_of(self, frame_id: str) -> SE3Pose:
        if frame_id not in self._position:
            raise UnknownFrame(f"log {self.subject_id!r} has no frame {frame_id!r}")
        return self.frames[self._position[frame_id]].pose
