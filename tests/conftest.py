import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from relhpe import (EulerAngles, Intrinsics, PoseLog, Rotation, SE3Pose,
                    rotation_from_euler)


def yaw_pose(deg, frame="world", t=(0.0, 0.0, 0.0)):
    return SE3Pose(rotation_from_euler(EulerAngles(deg, 0.0, 0.0)),
                   np.array(t, dtype=float), frame)


def random_rotation(rng) -> Rotation:
    # uniform on SO(3) via normalized Gaussian quaternion
    q = rng.normal(size=4)
    return Rotation(*q)


def random_pose(rng, frame="world", t_scale=500.0) -> SE3Pose:
    return SE3Pose(random_rotation(rng), rng.uniform(-t_scale, t_scale, 3), frame)


def pose_log(poses, subject="s", ids=None, intrinsics=None):
    """The PoseLog of SE3Poses, tagged with their frame; poses may be a dict
    of frame id -> pose, else ids default to f0, f1, ...  intrinsics holds
    one Intrinsics or None per frame."""
    if isinstance(poses, dict):
        ids, poses = list(poses), list(poses.values())
    tags = {p.frame_tag for p in poses}
    assert len(tags) == 1, tags
    k = None
    if intrinsics is not None and any(i is not None for i in intrinsics):
        k = [(math.nan,) * 6 if i is None else
             (i.fx, i.fy, i.cx, i.cy, i.width, i.height) for i in intrinsics]
    return PoseLog(subject, [f"f{i}" for i in range(len(poses))] if ids is None
                   else ids, [p.rotation.quat for p in poses],
                   [p.translation for p in poses], tags.pop(), k)


@dataclass(frozen=True)
class FrameRecord:
    frame_id: str
    index: int
    pose: SE3Pose
    intrinsics: Optional[Intrinsics] = None


def frame_records(log):
    """The log's rows as FrameRecords of scalar Rotation, SE3Pose and
    Intrinsics objects (None for a row of NaN), the per-frame oracle that
    tests read the columns through."""
    k = ([None] * len(log) if log.intrinsics is None else
         [None if math.isnan(row[0]) else Intrinsics(*row)
          for row in log.intrinsics.tolist()])
    return tuple(
        FrameRecord(f, i, SE3Pose(Rotation(*q), t, log.frame_tag), k[i])
        for i, (f, q, t) in enumerate(zip(
            log.frame_ids, log.quats.tolist(), log.translations.tolist())))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
