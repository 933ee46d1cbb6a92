"""SO(3)/SE(3) algebra: rigid transforms, the relative pose formulation and
its composition inverse, Euler angles, and the batched forms of these and
of the geodesic metric.  The scalar Rotation, geodesic_deg, EulerAngles,
euler_from_rotation and rotation_from_euler are in rotation, which loads
no numpy.

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
from .rotation import Rotation, chord_squares, hamilton, matrix_entries

# The Euler angles and conversions run on floats beside Rotation; they
# stay importable from here, with the conventions above.
EulerAngles = rotation.EulerAngles
euler_from_rotation = rotation.euler_from_rotation
rotation_from_euler = rotation.rotation_from_euler


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
# geodesic_deg_many, one math.atan2 per pair.  Cheap screens first drop
# the pairs or rows that provably cannot change the decision; the exact
# kernel then decides on the rest, so results equal the unscreened ones.
#
# Bounds, for rows within 1e-12 of unit norm (as Rotation makes them).  Let
# u and v be two rows divided by their norms, and phi the angle in R^4
# between u and +-v, whichever sign makes it at most 90 deg; their rotation
# angle is theta = 2 phi, a metric on rotations (the quaternion and
# rotation-angle metrics are equivalent: Huynh, "Metrics for 3D Rotations",
# JMIV 2009).
#
# * The exact kernel.  For rows a = n_a u and b = n_b v with
#   n = (n_a + n_b) / 2 and d = (n_a - n_b) / 2, u - v and u + v are
#   orthogonal, so |a - b|^2 = n^2 |u - v|^2 + d^2 |u + v|^2 and
#   |a + b|^2 = n^2 |u + v|^2 + d^2 |u - v|^2.  With phi <= 90 deg,
#   4 atan2(|a - b|, |a + b|) is thus within 4 |d| / n (4e-12 rad)
#   above theta and within O(d^2) below it, plus a few ulp of rounding.
# * The screen value c = |u . v| (_abs_dots).  Normalizing costs a few ulp
#   per component, and the four-term dot then lies within delta = 1e-15
#   of cos phi.  The screens sign-align the rows (w >= 0); negating a row
#   is exact, so c is the same bits either way.
# * Threshold.  A pair whose exact angle is <= t deg has
#   phi <= t / 2 + 1e-14 rad, so c >= cos(t / 2) - 1e-14: keeping the
#   pairs with c >= floor = cos(t / 2) - WITHIN_DOT_SLACK keeps all of
#   them.  For t >= 180, floor < 0 and every pair is kept.
# * Window (pairs_within_deg; fixed-radius near neighbours by sorting:
#   Bentley, Stanat & Williams, IPL 1977).  If c >= floor, then
#   s u . v >= floor - delta for s = 1 or s = -1, and as |u|^2 and |v|^2
#   are within delta of 1, |u - s v|^2 = |u|^2 + |v|^2 - 2 s u . v
#   <= 2 - 2 floor + 4 delta, so |u - s v| <= r + 2 sqrt(delta) with
#   r = sqrt(2 - 2 floor).  Every coordinate k then has
#   |u_k - s v_k| <= |u - s v| <= reach = r + WINDOW_MARGIN, the margin
#   (1e-6) over ten times 2 sqrt(delta) plus the rounding of r and of
#   u_k +- reach.  With the rows sorted on u_k, the partners of a block of
#   rows whose u_k span [lo, hi] thus lie in the column window
#   [lo - reach, hi + reach] (s = 1) or in the mirrored one
#   [-hi - reach, -lo + reach] (s = -1).  And s = -1 needs
#   u_w + v_w <= |u + v| <= reach with both terms >= 0, so the mirrored
#   window is screened only for a block holding a row with u_w <= reach
#   (rotations near 180 deg).  The two windows are merged when they
#   overlap, so no pair is screened twice.
# * Mean.  arccos is decreasing and concave on [0, 1], so moving its
#   argument by delta moves it by at most arccos(1 - delta), about
#   sqrt(2 delta): each screened distance d~ = 2 arccos(min(c, 1)) lies
#   within e = 2 sqrt(2e-15) rad + 4e-12 rad ~ 5.1e-6 deg of theta, and a
#   screened row mean E~ within e plus its summation error
#   (N 2^-53 180 deg, 2e-8 deg at N = 10^6) of the exact mean E.
#   MEDOID_SCREEN_ERR_DEG (1e-5) bounds both errors.  A row whose E~
#   exceeds the least one by more than twice that has an exact mean above
#   the exact mean of the screened argmin, so it cannot be the medoid; the
#   candidates for the exact means are the rows with
#   E~ <= min E~ + MEDOID_MARGIN_DEG, the margin about ten times that.
# * Medoid pruning (medoid_index; Newling & Fleuret, "A Sub-Quadratic Exact
#   Medoid Algorithm", AISTATS 2017).  For rows p and j, the triangle
#   inequality theta(j, x) >= |theta(p, x) - theta(p, j)|, averaged over
#   every row x, gives E_j >= |E_p - theta(p, j)|; with the errors above,
#   E~_j >= |E~_p - d~(p, j)| - 3 MEDOID_SCREEN_ERR_DEG (the float
#   arithmetic of the bound adds about 1e-14 deg, inside the slack of
#   err).  medoid_index screens rows in blocks, keeps for every row j the
#   largest bound LB_j = max |E~_p - d~(p, j)| over the screened rows p,
#   and screens next only rows with LB_j - 3 err <= best + margin, best the
#   least E~ so far.  A row never screened thus has
#   E~_j > best + margin >= min E~ + margin, so it is no candidate; nor is
#   it the argmin of E~, whose E~ is <= best.  So best ends as min E~, and
#   the screened rows with E~ <= best + margin are exactly the candidates
#   of a screen of every row.  Each E~ is the same row sum, in the same
#   order, as such a screen takes it, so the two agree bit for bit.

SCREEN_ROWS = 16                # a block holds at most SCREEN_ROWS x N values
WITHIN_DOT_SLACK = 1e-12        # see "threshold" above
WINDOW_MARGIN = 1e-6            # see "window"
MEDOID_SCREEN_ERR_DEG = 1e-5    # see "mean"
MEDOID_MARGIN_DEG = 1e-4        # see "mean"


def _unit_columns(quats) -> np.ndarray:
    """The rows of quats divided by their norms and sign-aligned (w >= 0),
    as the (4, N) C-contiguous array of their columns."""
    u = np.asarray(quats, dtype=float).reshape(-1, 4)
    u = u / np.sqrt((u * u).sum(axis=1))[:, None]
    u[u[:, 0] < 0.0] *= -1.0
    return np.ascontiguousarray(u.T)


def _abs_dots(rows, cols, out, spare):
    """out[i, j] = |rows[:, i] . cols[:, j]| for (4, m, 1) rows and (4, n)
    cols, summed w, x, y, z in that order; spare is a second (m, n) buffer.
    Elementwise, not a BLAS matmul: no BLAS work buffers to allocate."""
    np.multiply(rows[0], cols[0], out=out)
    for k in (1, 2, 3):
        out += np.multiply(rows[k], cols[k], out=spare)
    np.abs(out, out=out)


def pairs_within_deg(quats, max_deg):
    """Every ordered pair (i, j), i != j, of rows of quats whose
    geodesic_deg_many is <= max_deg, with that gap, yielded as (rows, cols,
    gaps) arrays.  Each row's pairs come in one yield, columns ascending;
    rows come in the order of the sorted windows.  Only the pairs that
    pass the window and threshold screens (see above) go to the exact
    kernel; memory O(SCREEN_ROWS x N).
    """
    if not max_deg >= 0:  # no gap is negative (or below nan)
        return
    quats = np.asarray(quats, dtype=float)
    u = _unit_columns(quats)
    n = u.shape[1]
    if not n:
        return
    floor = math.cos(math.radians(min(max_deg, 180.0)) / 2.0) - WITHIN_DOT_SLACK
    reach = math.sqrt(2.0 - 2.0 * floor) + WINDOW_MARGIN
    # sorted on the widest coordinate, whose windows hold the fewest rows
    k = int((u.max(axis=1) - u.min(axis=1)).argmax())
    order = u[k].argsort(kind="stable")
    u = u[:, order]
    key = u[k]
    lo, hi = key.searchsorted(key - reach), key.searchsorted(key + reach, "right")
    mirror_lo = key.searchsorted(-key - reach)
    mirror_hi = key.searchsorted(-key + reach, "right")
    near = np.cumsum(u[0] <= reach)  # rows up to each that need the mirror
    budget = SCREEN_ROWS * n
    dots, spare, keep = np.empty(budget), np.empty(budget), np.empty(budget, bool)
    a = 0
    while a < n:
        # windows of the blocks [a, b) for each candidate last row b - 1;
        # a block of more rows than budget // (hi[a] - lo[a]) cannot fit
        last = np.arange(a, min(n, a + budget // (hi[a] - lo[a])))
        l1, h1 = lo[a], hi[last]
        mirrored = near[last] > (near[a - 1] if a else 0)
        l2 = np.where(mirrored, mirror_lo[last], 0)
        h2 = np.where(mirrored, np.maximum(mirror_hi[a], l2), 0)
        width = h1 - l1 + h2 - l2 - np.maximum(
            np.minimum(h1, h2) - np.maximum(l1, l2), 0)  # the union's
        # the most rows whose windows hold at most budget values (one
        # row's window holds at most n)
        i = np.count_nonzero((last - a + 1) * width <= budget) - 1
        b, h1, l2, h2 = a + i + 1, h1[i], l2[i], h2[i]
        if l2 < h2 and l2 <= h1 and l1 <= h2:  # overlapping: one window
            l1, h1, l2, h2 = min(l1, l2), max(h1, h2), 0, 0
        cols = np.concatenate((np.arange(l1, h1), np.arange(l2, h2)))
        size, shape = (b - a) * len(cols), (b - a, len(cols))
        c = dots[:size].reshape(shape)
        _abs_dots(u[:, a:b, None], u[:, cols], c, spare[:size].reshape(shape))
        r, j = np.greater_equal(c, floor, out=keep[:size].reshape(shape)).nonzero()
        r += a
        j = cols[j]
        other = r != j
        rows, cols = order[r[other]], order[j[other]]
        gaps = geodesic_deg_many(quats[rows], quats[cols])
        within = np.flatnonzero(gaps <= max_deg)
        within = within[np.lexsort((cols[within], rows[within]))]
        yield rows[within], cols[within], gaps[within]
        a = b


def medoid_index(quats) -> int:
    """Index of the row minimizing the mean geodesic_deg_many to all rows
    (sum / N, the sum taken left to right in row order), lowest index on
    ties.  Rows are screened in blocks of SCREEN_ROWS, in index order, each
    against every row; a row is screened only while its lower bound can
    still reach the least screened mean (see above, "medoid pruning"), and
    the exact mean is taken only for the rows whose screened mean is within
    MEDOID_MARGIN_DEG of the least.  Memory O(SCREEN_ROWS x N).
    """
    u = _unit_columns(quats)
    n = u.shape[1]
    to_deg = math.degrees(2.0)
    screened = np.full(n, math.inf)  # each row's screened mean, once screened
    bound = np.zeros(n)  # its largest lower bound so far; inf once screened
    dots, spare = np.empty((SCREEN_ROWS, n)), np.empty((SCREEN_ROWS, n))
    least = math.inf
    block = np.arange(min(n, SCREEN_ROWS))
    while len(block):
        c = dots[:len(block)]
        _abs_dots(u[:, block, None], u, c, spare[:len(block)])
        np.arccos(np.minimum(c, 1.0, out=c), out=c)
        means = c.sum(axis=1)
        means *= to_deg / n
        screened[block] = means
        least = min(least, means.min())
        c *= to_deg
        c -= means[:, None]
        np.maximum(bound, np.abs(c, out=c).max(axis=0), out=bound)
        bound[block] = math.inf
        block = np.flatnonzero(bound <= least + MEDOID_MARGIN_DEG
                               + 3.0 * MEDOID_SCREEN_ERR_DEG)[:SCREEN_ROWS]
    rows = np.flatnonzero(screened <= least + MEDOID_MARGIN_DEG)
    means = []
    for i in rows.tolist():
        total = 0.0  # not the built-in sum, compensated from CPython 3.12
        for d in geodesic_deg_many(quats[i], quats).tolist():
            total += d
        means.append(total / n)
    return int(rows[means.index(min(means))])
