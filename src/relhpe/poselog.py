"""Per-subject pose sequences: frame records and ordered logs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .camera import Intrinsics
from .errors import (EmptyInput, FrameMismatch, InvariantViolation,
                     UnknownFrame)
from .geometry import SE3Pose


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
        ids = [f.frame_id for f in frames]
        if len(set(ids)) != len(ids):
            raise InvariantViolation(f"duplicate frame ids in log {self.subject_id!r}")
        for want, f in enumerate(frames):
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

    def pose_of(self, frame_id: str) -> SE3Pose:
        for f in self.frames:
            if f.frame_id == frame_id:
                return f.pose
        raise UnknownFrame(f"log {self.subject_id!r} has no frame {frame_id!r}")
