"""SO(3)/SE(3) algebra: rigid transforms, the relative pose formulation and
its composition inverse, Euler angles, and the batched forms of these and
of the geodesic metric.  The scalar Rotation, geodesic_deg, EulerAngles and
euler_from_rotation are in rotation, which loads no numpy.

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

import numpy as np

from . import rotation
from .errors import DomainError, EmptyInput, FrameMismatch
from .records import Record
from .rotation import (EulerAngles, Rotation, chord_squares, hamilton,
                       matrix_entries)

# The Euler decomposition runs on floats beside Rotation; it stays
# importable from here, with the conventions above.
euler_from_rotation = rotation.euler_from_rotation


class SE3Pose(Record):
    """Rigid transform: rotation plus translation (mm) in a named frame.

    DomainError when a translation component is nan or infinite.
    """

    rotation: Rotation
    translation: np.ndarray
    frame_tag: str = "world"

    def __init__(self, rotation: Rotation, translation, frame_tag: str = "world"):
        translation = np.asarray(translation, dtype=float).reshape(3)
        x, y, z = translation.tolist()
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise DomainError(f"translation {[x, y, z]} is not finite")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)
        object.__setattr__(self, "frame_tag", frame_tag)

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
    r = rel.rotation
    return SE3Pose(r * anchor.rotation,
                   r.apply(anchor.translation) + rel.translation,
                   anchor.frame_tag)


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


def geodesic_deg_many(p, q) -> np.ndarray:
    """rotation.geodesic_deg over the rows of (4,) or (N, 4) arrays of
    (w, x, y, z), a (4,) side paired with every row."""
    diff, summ = chord_squares(np.asarray(p, dtype=float).T,
                               np.asarray(q, dtype=float).T)
    return np.minimum(np.degrees(4.0 * _per_element(
        math.atan2, np.sqrt(diff), np.sqrt(summ))), 180.0)


def rotation_from_euler(e: EulerAngles) -> Rotation:
    """Rotation from intrinsic Y-X-Z Euler angles (degrees)."""
    hy = 0.5 * math.radians(e.yaw)
    hp = 0.5 * math.radians(e.pitch)
    hr = 0.5 * math.radians(e.roll)
    qy = Rotation(math.cos(hy), 0.0, math.sin(hy), 0.0)
    qx = Rotation(math.cos(hp), math.sin(hp), 0.0, 0.0)
    qz = Rotation(math.cos(hr), 0.0, 0.0, math.sin(hr))
    return qy * qx * qz


# ---------------------------------------------------------------------------
# batched forms
#
# Each helper equals its scalar form bit for bit: both run rotation's
# kernels, these on the columns of (N, 4) quaternions, where numpy's
# elementwise arithmetic rounds like Python floats.  Only what differs by
# type is written here: np.sqrt, np.clip, the canonical sign, math's
# functions per element and norms as np.linalg.norm takes them.  A pose
# array is a pair of (N, 4) quaternions and (N, 3) translations (mm).


def _per_element(fn, *arrays) -> np.ndarray:
    """fn over the elements of equal-size arrays, as a flat float array.

    numpy's SIMD ufuncs are about 30-75x faster per 16,000 elements
    (arctan2 0.05 ms against 1.9 ms, arcsin 0.02 ms against 1.5 ms, numpy
    2.4 on an AVX-512 x86-64 CPU), but their last bits depend on the CPU:
    with AVX-512 masked off through NPY_DISABLE_CPU_FEATURES, np.arctan2
    and np.arcsin gave other bytes, while np.sin, np.cos, np.sqrt, +, *
    and the reductions gave the same bytes.
    So math's functions run per element, as in the scalar forms, and the
    batched results equal the scalar ones bit for bit.
    """
    return np.fromiter(map(fn, *(np.ravel(a).tolist() for a in arrays)),
                       float, np.size(arrays[0]))


def canonical_many(q) -> np.ndarray:
    """Rotation(*row) over the rows of q: normalize unless the norm is within
    1e-12 of 1, then take the canonical sign."""
    w, x, y, z = np.asarray(q, dtype=float).T
    n = np.sqrt(w * w + x * x + y * y + z * z)
    bad = ~((0.0 < n) & (n < math.inf))
    if bad.any():
        raise DomainError(f"quaternion norm {n[bad][0]} is zero or non-finite")
    n = np.where(np.abs(n - 1.0) <= 1e-12, 1.0, n)  # x / 1.0 is x
    w, x, y, z = w / n, x / n, y / n, z / n
    first = np.where(x != 0.0, x, np.where(y != 0.0, y, z))
    sign = np.where((w < 0.0) | ((w == 0.0) & (first < 0.0)), -1.0, 1.0)
    return np.stack([np.where(w < 0.0, -w, w), sign * x, sign * y, sign * z],
                    axis=1)


def multiply_many(a, b) -> np.ndarray:
    """Rotation.__mul__ over rows: the Hamilton products a[i] * b[i]."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return canonical_many(np.stack(hamilton(a.T, b.T), axis=1))


def as_matrix_many(q) -> np.ndarray:
    """Rotation.as_matrix over rows, as a C-contiguous (N, 3, 3) array."""
    return np.stack(matrix_entries(np.asarray(q, dtype=float).T),
                    axis=1).reshape(-1, 3, 3)


def rotate_many(q, v) -> np.ndarray:
    """Rotation.apply over rows: R(q[i]) @ v[i].  A stacked (3, 3) @ (3, 1)
    matmul runs the same BLAS product as the scalar's (3, 3) @ (3,)."""
    v = np.asarray(v, dtype=float).reshape(-1, 3, 1)
    return np.matmul(as_matrix_many(q), v)[:, :, 0]


def row_norms(a) -> np.ndarray:
    """Norms along a float array's last axis, kept at length 1: per-row
    BLAS dots as np.linalg.norm takes them (a sum of squares can differ)."""
    return np.sqrt(np.matmul(a[..., None, :], a[..., :, None])[..., 0])


def axis_angle_many(axes, angles_rad) -> np.ndarray:
    """Rotation.from_axis_angle over rows."""
    axes = np.asarray(axes, dtype=float).reshape(-1, 3)
    n = row_norms(axes)
    if not n.all():
        raise DomainError("zero axis")
    axes = axes / n
    h = 0.5 * np.asarray(angles_rad, dtype=float)
    s = _per_element(math.sin, h)
    return canonical_many(np.stack([_per_element(math.cos, h), s * axes[:, 0],
                                    s * axes[:, 1], s * axes[:, 2]], axis=1))


def inverse_many(p):
    """inverse over the rows of a pose array."""
    q, t = p
    r = canonical_many(np.asarray(q, dtype=float) * [1.0, -1.0, -1.0, -1.0])
    return r, -rotate_many(r, t)


def compose_many(a, b):
    """compose over the rows of two pose arrays: b[i] first, then a[i]."""
    (qa, ta), (qb, tb) = a, b
    return multiply_many(qa, qb), rotate_many(qa, tb) + ta


def euler_deg_many(q) -> np.ndarray:
    """euler_from_rotation over rows: (N, 3) yaw, pitch, roll in degrees
    (the gimbal_lock flag is not returned)."""
    m00, _, m02, m10, m11, m12, m20, _, m22 = matrix_entries(
        np.asarray(q, dtype=float).T)
    pitch = np.degrees(_per_element(math.asin, np.clip(-m12, -1.0, 1.0)))
    lock = np.abs(pitch) >= 89.0
    yaw = np.degrees(_per_element(math.atan2, np.where(lock, -m20, m02),
                                  np.where(lock, m00, m22)))
    roll = np.degrees(_per_element(math.atan2, m10, m11))
    return np.stack([yaw, pitch, np.where(lock, 0.0, roll)], axis=1)


# ---------------------------------------------------------------------------
# exact screens for frame-set decisions
#
# The decisions over every pair of a log's frames (the nearest frame within
# a threshold, the frames within a gap, the medoid) are made by
# geodesic_deg_many, one math.atan2 per pair.  A cheap screen first drops
# the pairs or rows that provably cannot change the decision; the exact
# kernel then decides on the rest, so results equal the unscreened ones.

SCREEN_ROWS = 16                # rows per screen block
WITHIN_DOT_SLACK = 1e-12        # see screen_blocks, "threshold"
MEDOID_MARGIN_DEG = 1e-4        # see screen_blocks, "mean"


def screen_blocks(quats):
    """Screen values between every two rows of quats: yields (start, c)
    per block of at most SCREEN_ROWS rows, where c[i, j] =
    |u[start + i] . u[j]| and u is the rows divided by their norms.
    Memory is O(SCREEN_ROWS x len(quats)).

    Bounds, for rows within 1e-12 of unit norm (as Rotation makes them).
    Let phi be the angle in R^4 between the sign-aligned unit directions
    of two rows; their rotation angle is theta = 2 phi (the quaternion
    and rotation-angle metrics are equivalent: Huynh, "Metrics for 3D
    Rotations", JMIV 2009).

    * The exact kernel.  For rows a = n_a u and b = n_b v with
      n = (n_a + n_b) / 2 and d = (n_a - n_b) / 2, u - v and u + v are
      orthogonal, so |a - b|^2 = n^2 |u - v|^2 + d^2 |u + v|^2 and
      |a + b|^2 = n^2 |u + v|^2 + d^2 |u - v|^2.  With phi <= 90 deg,
      4 atan2(|a - b|, |a + b|) is thus within 4 |d| / n (4e-12 rad)
      above theta and within O(d^2) below it, plus a few ulp of rounding.
    * The screen.  Normalizing costs a few ulp per component, and the
      four-term dot then lies within delta = 1e-15 of cos phi.
    * Threshold.  A pair whose exact angle is <= t deg has
      phi <= t / 2 + 1e-14 rad, so c >= cos(t / 2) - 1e-14: keeping the
      pairs with c >= cos(t / 2) - WITHIN_DOT_SLACK keeps all of them.
      For t >= 180 every pair is kept.
    * Mean.  arccos is decreasing and concave on [0, 1], so moving its
      argument by delta moves it by at most arccos(1 - delta), about
      sqrt(2 delta): each 2 arccos(min(c, 1)) lies within
      e = 2 sqrt(2e-15) rad + 4e-12 rad ~ 5.1e-6 deg of the exact angle,
      and a row mean of them within e plus its summation error
      (N 2^-53 180 deg, 2e-8 deg at N = 10^6) of the exact mean.  A row
      whose screened mean exceeds the least one by more than twice that
      has an exact mean above the exact mean of the screened argmin, so
      it cannot be the medoid; MEDOID_MARGIN_DEG is about ten times the
      bound.
    """
    u = np.asarray(quats, dtype=float).reshape(-1, 4)
    u = u / np.sqrt((u * u).sum(axis=1))[:, None]
    vw, vx, vy, vz = np.ascontiguousarray(u.T)
    for start in range(0, len(u), SCREEN_ROWS):
        # elementwise, not a BLAS matmul: no BLAS work buffers to allocate
        uw, ux, uy, uz = u[start:start + SCREEN_ROWS].T[:, :, None]
        yield start, np.abs(uw * vw + ux * vx + uy * vy + uz * vz)


def pairs_within_deg(quats, max_deg):
    """Every ordered pair (i, j), i != j, of rows of quats whose
    geodesic_deg_many is <= max_deg, with that gap.  Yields (rows, cols,
    gaps) arrays per block of SCREEN_ROWS rows, in row-major order; only
    the pairs that pass the threshold screen (see screen_blocks) go to
    the exact kernel.
    """
    if not max_deg >= 0:  # no gap is negative (or below nan)
        return
    quats = np.asarray(quats, dtype=float)
    floor = math.cos(math.radians(min(max_deg, 180.0)) / 2.0) - WITHIN_DOT_SLACK
    for start, c in screen_blocks(quats):
        keep = c >= floor
        diagonal = np.arange(len(keep))
        keep[diagonal, start + diagonal] = False
        rows, cols = keep.nonzero()
        rows += start
        gaps = geodesic_deg_many(quats[rows], quats[cols])
        within = gaps <= max_deg
        yield rows[within], cols[within], gaps[within]


def medoid_index(quats) -> int:
    """Index of the row minimizing the mean geodesic_deg_many to all rows
    (sum / N, the sum taken left to right in row order), lowest index on
    ties.  The exact mean is taken only for the rows whose screened mean is
    within MEDOID_MARGIN_DEG of the least (see screen_blocks).
    """
    n = len(quats)
    screened = np.concatenate([np.arccos(np.minimum(c, 1.0)).sum(axis=1)
                               for _, c in screen_blocks(quats)])
    screened *= math.degrees(2.0) / n
    rows = np.flatnonzero(screened <= screened.min() + MEDOID_MARGIN_DEG)
    means = []
    for i in rows.tolist():
        total = 0.0  # not the built-in sum, compensated from CPython 3.12
        for d in geodesic_deg_many(quats[i], quats).tolist():
            total += d
        means.append(total / n)
    return int(rows[means.index(min(means))])
