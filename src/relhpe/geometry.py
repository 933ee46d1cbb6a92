"""SO(3)/SE(3) algebra: quaternion rotations, rigid transforms, the relative
pose formulation and its composition inverse, and the geodesic metric.

Conventions used throughout the package:

* Quaternions are stored (w, x, y, z), unit norm, with canonical sign
  w >= 0 (if w == 0, the first nonzero component is positive).  q and -q
  encode the same rotation; canonicalizing makes quaternion-space losses
  well defined.
* Euler angles are intrinsic Y-X-Z: R = R_y(yaw) @ R_x(pitch) @ R_z(roll)
  in a right-handed camera frame (x right, y down, z forward).  Yaw and
  roll live in [-180, 180] degrees, pitch in [-90, 90].
* Translations are millimeters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyInput, FrameMismatch

_UNIT_TOL = 1e-9


def _canonical(q):
    w, x, y, z = q
    if w < 0.0:
        return (-w, -x, -y, -z)
    if w == 0.0:
        for c in (x, y, z):
            if c != 0.0:
                if c < 0.0:
                    return (w, -x, -y, -z)
                break
    return (w, x, y, z)


@dataclass(frozen=True)
class Rotation:
    """Unit quaternion with canonical sign.

    Accepts any nonzero finite quaternion; normalizes and canonicalizes on
    construction.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.w * self.w + self.x * self.x
                      + self.y * self.y + self.z * self.z)
        if not 0.0 < n < math.inf:
            raise DomainError(f"quaternion norm {n} is zero or non-finite")
        if abs(n - 1.0) <= 1e-12:
            # already unit: skip the division so round trips through text
            # serialization are bit-stable
            w, x, y, z = _canonical((float(self.w), float(self.x),
                                     float(self.y), float(self.z)))
        else:
            w, x, y, z = _canonical((self.w / n, self.x / n,
                                     self.y / n, self.z / n))
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(1.0, 0.0, 0.0, 0.0)

    @property
    def quat(self) -> np.ndarray:
        """Quaternion as (w, x, y, z) array."""
        return np.array([self.w, self.x, self.y, self.z])

    @staticmethod
    def from_axis_angle(axis, angle_rad: float) -> "Rotation":
        ax = np.asarray(axis, dtype=float)
        n = float(np.linalg.norm(ax))
        if n == 0.0:
            raise DomainError("zero axis")
        ax = ax / n
        h = 0.5 * angle_rad
        s = math.sin(h)
        return Rotation(math.cos(h), s * ax[0], s * ax[1], s * ax[2])

    @staticmethod
    def from_matrix(m) -> "Rotation":
        """Quaternion from a 3x3 rotation matrix (Shepperd's method)."""
        m = np.asarray(m, dtype=float)
        t = m[0, 0] + m[1, 1] + m[2, 2]
        if t > 0.0:
            s = math.sqrt(t + 1.0) * 2.0
            w = 0.25 * s
            x = (m[2, 1] - m[1, 2]) / s
            y = (m[0, 2] - m[2, 0]) / s
            z = (m[1, 0] - m[0, 1]) / s
        elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            w = (m[2, 1] - m[1, 2]) / s
            x = 0.25 * s
            y = (m[0, 1] + m[1, 0]) / s
            z = (m[0, 2] + m[2, 0]) / s
        elif m[1, 1] >= m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            w = (m[0, 2] - m[2, 0]) / s
            x = (m[0, 1] + m[1, 0]) / s
            y = 0.25 * s
            z = (m[1, 2] + m[2, 1]) / s
        else:
            s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            w = (m[1, 0] - m[0, 1]) / s
            x = (m[0, 2] + m[2, 0]) / s
            y = (m[1, 2] + m[2, 1]) / s
            z = 0.25 * s
        return Rotation(w, x, y, z)

    def as_matrix(self) -> np.ndarray:
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])

    def __mul__(self, other: "Rotation") -> "Rotation":
        """Hamilton product; self applied after other."""
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Rotation(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def inverse(self) -> "Rotation":
        return Rotation(self.w, -self.x, -self.y, -self.z)

    def apply(self, v) -> np.ndarray:
        """Rotate a 3-vector."""
        return self.as_matrix() @ np.asarray(v, dtype=float)


@dataclass(frozen=True)
class EulerAngles:
    """Yaw/pitch/roll in degrees under the intrinsic Y-X-Z convention.

    gimbal_lock is set when |pitch| >= 89 deg; the values then come from
    the degenerate branch (roll fixed at 0).
    """

    yaw: float
    pitch: float
    roll: float
    gimbal_lock: bool = False


@dataclass(frozen=True)
class SE3Pose:
    """Rigid transform: rotation plus translation (mm) in a named frame."""

    rotation: Rotation
    translation: np.ndarray
    frame_tag: str = "world"

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity(frame_tag: str = "world") -> "SE3Pose":
        return SE3Pose(Rotation.identity(), np.zeros(3), frame_tag)


def compose(a: SE3Pose, b: SE3Pose) -> SE3Pose:
    """Transform applying b first, then a: (R_a R_b, R_a t_b + t_a)."""
    return SE3Pose(a.rotation * b.rotation,
                   a.rotation.apply(b.translation) + a.translation,
                   a.frame_tag)


def inverse(p: SE3Pose) -> SE3Pose:
    r_inv = p.rotation.inverse()
    return SE3Pose(r_inv, -r_inv.apply(p.translation), p.frame_tag)


def relative(query: SE3Pose, anchor: SE3Pose) -> SE3Pose:
    """Relative transform taking the anchor pose to the query pose:
    T_query * T_anchor^-1.  Both poses must share a frame.
    """
    if query.frame_tag != anchor.frame_tag:
        raise FrameMismatch(
            f"query frame {query.frame_tag!r} != anchor frame {anchor.frame_tag!r}")
    return compose(query, inverse(anchor))


def apply_anchor(rel: SE3Pose, anchor: SE3Pose) -> SE3Pose:
    """Recover the absolute query pose by composing a relative transform
    with the anchor pose.
    """
    out = compose(rel, anchor)
    return SE3Pose(out.rotation, out.translation, anchor.frame_tag)


def normalize_to_anchor(poses) -> list:
    """Re-express a pose list so the first pose becomes the identity:
    each output is first^-1 * pose.  Pairwise displacements T_i^-1 T_j are
    preserved exactly (a common left factor cancels).
    """
    poses = list(poses)
    if not poses:
        raise EmptyInput("normalize_to_anchor needs at least one pose")
    tags = {p.frame_tag for p in poses}
    if len(tags) > 1:
        raise FrameMismatch(f"mixed frames: {sorted(tags)}")
    first_inv = inverse(poses[0])
    return [compose(first_inv, p) for p in poses]


def geodesic_deg(a: Rotation, b: Rotation) -> float:
    """Rotation angle of R_a^T R_b in degrees, clamped to [0, 180].

    Computed from the chordal quaternion distance: with sign-aligned unit
    quaternions the rotation angle is 4 * atan2(|a - b|, |a + b|).  This
    equals arccos((trace(R_a^T R_b) - 1) / 2) but is exactly symmetric,
    exactly zero on equal inputs, and keeps full relative precision near
    0 and 180 where the arccos form loses digits.
    """
    s = 1.0 if (a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z) >= 0.0 else -1.0
    dw, dx, dy, dz = a.w - s * b.w, a.x - s * b.x, a.y - s * b.y, a.z - s * b.z
    sw, sx, sy, sz = a.w + s * b.w, a.x + s * b.x, a.y + s * b.y, a.z + s * b.z
    diff = math.sqrt(dw * dw + dx * dx + dy * dy + dz * dz)
    summ = math.sqrt(sw * sw + sx * sx + sy * sy + sz * sz)
    return math.degrees(4.0 * math.atan2(diff, summ))


def geodesic_deg_many(p, q) -> np.ndarray:
    """geodesic_deg over the rows of (4,) or (N, 4) arrays of (w, x, y, z),
    a (4,) side paired with every row.  Equal to the scalar bit for bit: it
    repeats its expressions in order and takes math.atan2 (numpy's arctan2
    can differ in the last bit).
    """
    aw, ax, ay, az = np.asarray(p, dtype=float).T
    bw, bx, by, bz = np.asarray(q, dtype=float).T
    s = np.where(aw * bw + ax * bx + ay * by + az * bz >= 0.0, 1.0, -1.0)
    dw, dx, dy, dz = aw - s * bw, ax - s * bx, ay - s * by, az - s * bz
    sw, sx, sy, sz = aw + s * bw, ax + s * bx, ay + s * by, az + s * bz
    diff = np.sqrt(dw * dw + dx * dx + dy * dy + dz * dz)
    summ = np.sqrt(sw * sw + sx * sx + sy * sy + sz * sz)
    ang = np.fromiter(map(math.atan2, diff.ravel().tolist(),
                          summ.ravel().tolist()), float, diff.size)
    return np.degrees(4.0 * ang)


def rotation_from_euler(e: EulerAngles) -> Rotation:
    """Rotation from intrinsic Y-X-Z Euler angles (degrees)."""
    hy = 0.5 * math.radians(e.yaw)
    hp = 0.5 * math.radians(e.pitch)
    hr = 0.5 * math.radians(e.roll)
    qy = Rotation(math.cos(hy), 0.0, math.sin(hy), 0.0)
    qx = Rotation(math.cos(hp), math.sin(hp), 0.0, 0.0)
    qz = Rotation(math.cos(hr), 0.0, 0.0, math.sin(hr))
    return qy * qx * qz


def euler_from_rotation(r: Rotation) -> EulerAngles:
    """Intrinsic Y-X-Z decomposition in degrees.

    From R = R_y(yaw) R_x(pitch) R_z(roll):
        R[1,2] = -sin(pitch)
        R[0,2] / R[2,2] = tan(yaw)        (scaled by cos(pitch))
        R[1,0] / R[1,1] = tan(roll)       (scaled by cos(pitch))
    Near |pitch| = 90 deg yaw and roll are coupled; the degenerate branch
    fixes roll = 0 and flags gimbal_lock.
    """
    m = r.as_matrix()
    sp = -m[1, 2]
    if sp > 1.0:
        sp = 1.0
    elif sp < -1.0:
        sp = -1.0
    pitch = math.degrees(math.asin(sp))
    if abs(pitch) >= 89.0:
        yaw = math.degrees(math.atan2(-m[2, 0], m[0, 0]))
        return EulerAngles(yaw, pitch, 0.0, gimbal_lock=True)
    yaw = math.degrees(math.atan2(m[0, 2], m[2, 2]))
    roll = math.degrees(math.atan2(m[1, 0], m[1, 1]))
    return EulerAngles(yaw, pitch, roll)
