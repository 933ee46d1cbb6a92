"""Per-subject pose sequences as ordered, columnar logs.

A PoseLog is columnar: its frame ids, (N, 4) canonical quaternions, (N, 3)
translations and optional (N, 6) intrinsics are the log, and its only
constructor takes them.  The readers, the pair builders, the sweep and the
prediction tables read these columns; no per-frame object is built.
"""

from __future__ import annotations

import numpy as np

from .camera import Intrinsics, intrinsics_ok_many
from .errors import DomainError, EmptyInput, UnknownFrame
from .geometry import canonical_many
from .tables import frame_positions


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
    Intrinsics rejects; InvariantViolation for names that a canonical file
    cannot hold or a repeated frame id (tables.frame_positions).
    """

    def __init__(self, subject_id: str, frame_ids, quats, translations,
                 frame_tag: str = "world", intrinsics=None):
        frame_ids = tuple(frame_ids)
        if not frame_ids:
            raise EmptyInput(f"log {subject_id!r} has no frames")
        position = frame_positions(subject_id, frame_ids, frame_tag)
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

    def position(self, frame_id: str) -> int:
        """Index of a frame in the log."""
        if frame_id not in self._position:
            raise UnknownFrame(f"log {self.subject_id!r} has no frame {frame_id!r}")
        return self._position[frame_id]
