"""The scalar rotation: a unit quaternion with canonical sign, and the
geodesic angle between two of them.

Quaternions are stored (w, x, y, z), unit norm, with canonical sign
w >= 0 (if w == 0, the first nonzero component is positive); see
geometry for the package's other conventions.  The components are Python
floats and the algebra runs on them, so this module loads only the
standard library: numpy is imported by the methods that take or give
arrays (quat, from_axis_angle, from_matrix, as_matrix, apply).  The
kernels hamilton, matrix_entries and chord_squares run on floats and on
numpy arrays alike, so geometry's batched forms share their formulas.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .records import Record


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


def hamilton(a, b):
    """The Hamilton product a * b (b applied first), not normalized."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def matrix_entries(q):
    """The nine entries of q's rotation matrix, row by row (a flat tuple
    converts to an array about twice as fast as nested lists)."""
    w, x, y, z = q
    return (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y))


def chord_squares(a, b):
    """(|a - s b|^2, |a + s b|^2), s = +-1 the sign of a . b (+1 at 0)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    s = (aw * bw + ax * bx + ay * by + az * bz >= 0.0) * 2.0 - 1.0
    dw, dx, dy, dz = aw - s * bw, ax - s * bx, ay - s * by, az - s * bz
    sw, sx, sy, sz = aw + s * bw, ax + s * bx, ay + s * by, az + s * bz
    return (dw * dw + dx * dx + dy * dy + dz * dz,
            sw * sw + sx * sx + sy * sy + sz * sz)


class Rotation(Record):
    """Unit quaternion with canonical sign.

    Accepts any nonzero finite quaternion; normalizes and canonicalizes on
    construction.  Components are stored as Python floats, whatever the
    input type, so the scalar algebra below runs on plain floats.
    """

    w: float
    x: float
    y: float
    z: float

    def __init__(self, w: float, x: float, y: float, z: float):
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if not 0.0 < n < math.inf:
            raise DomainError(f"quaternion norm {n} is zero or non-finite")
        if abs(n - 1.0) <= 1e-12:
            # already unit: skip the division so round trips through text
            # serialization are bit-stable
            w, x, y, z = _canonical((float(w), float(x), float(y), float(z)))
        else:
            w, x, y, z = _canonical((float(w / n), float(x / n),
                                     float(y / n), float(z / n)))
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(1.0, 0.0, 0.0, 0.0)

    @property
    def quat(self):
        """Quaternion as a (w, x, y, z) array."""
        import numpy as np
        return np.array([self.w, self.x, self.y, self.z])

    @staticmethod
    def from_axis_angle(axis, angle_rad: float) -> "Rotation":
        import numpy as np
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
        import numpy as np
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

    def as_matrix(self):
        """The 3x3 rotation matrix, as an array."""
        import numpy as np
        return np.array(matrix_entries((self.w, self.x, self.y, self.z)),
                        dtype=float).reshape(3, 3)

    def __mul__(self, other: "Rotation") -> "Rotation":
        """Hamilton product; self applied after other."""
        return Rotation(*hamilton((self.w, self.x, self.y, self.z),
                                  (other.w, other.x, other.y, other.z)))

    def inverse(self) -> "Rotation":
        return Rotation(self.w, -self.x, -self.y, -self.z)

    def apply(self, v):
        """Rotate a 3-vector; the result is an array."""
        import numpy as np
        return np.array(matrix_entries((self.w, self.x, self.y, self.z)),
                        dtype=float).reshape(3, 3) @ np.asarray(v, dtype=float)


def geodesic_deg(a: Rotation, b: Rotation) -> float:
    """Rotation angle of R_a^T R_b in degrees, clamped to [0, 180].

    Computed from the chordal quaternion distance: with sign-aligned unit
    quaternions the rotation angle is 4 * atan2(|a - b|, |a + b|).  This
    equals arccos((trace(R_a^T R_b) - 1) / 2) but is exactly symmetric,
    exactly zero on equal inputs, and keeps full relative precision near
    0 and 180 where the arccos form loses digits.
    """
    diff, summ = chord_squares((a.w, a.x, a.y, a.z), (b.w, b.x, b.y, b.z))
    return min(math.degrees(4.0 * math.atan2(math.sqrt(diff), math.sqrt(summ))),
               180.0)
