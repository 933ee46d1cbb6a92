"""Camera-pose encoding, field-of-view algebra, and crop-aware intrinsics
updates for square face crops.

The 9-value camera pose encoding is [t (3), q (4), fov_h, fov_w]: a rigid
pose plus the vertical and horizontal fields of view in radians.  Fields of
view are tracked per axis; square pixels are not assumed.

The scalar algebra runs on Python floats, so this module loads only the
standard library: numpy is imported by the functions that take or give
arrays (CameraPose.as_vector, intrinsics_ok_many, project).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidCrop
from .rotation import Rotation


@dataclass(frozen=True)
class CameraPose:
    """Pose plus field of view: translation (mm), rotation, fov_h/fov_w (rad).

    t is stored as a tuple of 3 floats; DomainError if it holds another
    number of values.
    """

    t: tuple
    q: Rotation
    fov_h: float
    fov_w: float

    def __post_init__(self):
        t = tuple(map(float, self.t))
        if len(t) != 3:
            raise DomainError(f"translation {t} does not hold 3 values")
        object.__setattr__(self, "t", t)
        for name in ("fov_h", "fov_w"):
            v = getattr(self, name)
            if not 0.0 < v < math.pi:
                raise DomainError(f"{name}={v} outside (0, pi)")

    def as_vector(self):
        """9-value encoding [t, q, fov_h, fov_w], as an array."""
        import numpy as np
        q = self.q
        return np.array([*self.t, q.w, q.x, q.y, q.z, self.fov_h, self.fov_w])


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: float
    height: float

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise DomainError("focal lengths must be positive and finite")
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise DomainError("principal point must be finite")
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise DomainError("image dimensions must be positive and finite")


def intrinsics_ok_many(k):
    """Intrinsics' checks over the rows of an (N, 6) array of fx, fy, cx,
    cy, width, height: True where Intrinsics(*row) would be accepted."""
    import numpy as np
    fx, fy, cx, cy, width, height = np.asarray(k, dtype=float).T
    return ((0 < fx) & (fx < math.inf) & (0 < fy) & (fy < math.inf)
            & np.isfinite(cx) & np.isfinite(cy) & (0 < width)
            & (width < math.inf) & (0 < height) & (height < math.inf))


@dataclass(frozen=True)
class CropSpec:
    """Square crop: top-left corner, side length, and output resolution."""

    x0: float
    y0: float
    side: float
    out_size: float

    @property
    def scale(self) -> float:
        return self.out_size / self.side


def logtan_fov(phi: float) -> float:
    """ln(tan(phi/2)); monotone reparameterization of field of view.

    Differences of this quantity are invariant to uniform crop scaling,
    which is what makes it usable as an inter-frame focal-ratio target.
    """
    if not 0.0 < phi < math.pi:
        raise DomainError(f"fov {phi} outside (0, pi)")
    return math.log(math.tan(0.5 * phi))


def intrinsics_from_fov(fov_w: float, fov_h: float, width: float, height: float) -> Intrinsics:
    """Pinhole intrinsics with principal point at the image center."""
    if not (0.0 < fov_w < math.pi and 0.0 < fov_h < math.pi):
        raise DomainError("fov outside (0, pi)")
    if width <= 0 or height <= 0:
        raise DomainError("image dimensions must be positive")
    fx = (width / 2.0) / math.tan(fov_w / 2.0)
    fy = (height / 2.0) / math.tan(fov_h / 2.0)
    return Intrinsics(fx, fy, width / 2.0, height / 2.0, width, height)


def fov_from_intrinsics(k: Intrinsics) -> tuple:
    """(fov_w, fov_h) in radians; inverse of intrinsics_from_fov."""
    return (2.0 * math.atan((k.width / 2.0) / k.fx),
            2.0 * math.atan((k.height / 2.0) / k.fy))


def crop_update_intrinsics(k: Intrinsics, crop: CropSpec) -> Intrinsics:
    """Intrinsics after cropping a square region and resizing to out_size.

    With s = out_size/side: focal lengths scale by s, the principal point
    shifts by the crop corner then scales by s.  Projections through the
    updated intrinsics match crop-then-resize of the original projections
    exactly.
    """
    if crop.side <= 0:
        raise InvalidCrop(f"side={crop.side}")
    if crop.out_size <= 0:
        raise InvalidCrop(f"out_size={crop.out_size}")
    if (crop.x0 >= k.width or crop.y0 >= k.height
            or crop.x0 + crop.side <= 0 or crop.y0 + crop.side <= 0):
        raise InvalidCrop("crop rectangle does not intersect the image")
    s = crop.scale
    return Intrinsics(
        fx=k.fx * s,
        fy=k.fy * s,
        cx=(k.cx - crop.x0) * s,
        cy=(k.cy - crop.y0) * s,
        width=crop.out_size,
        height=crop.out_size,
    )


def compose_crops(first: CropSpec, second: CropSpec) -> CropSpec:
    """Single CropSpec equivalent to applying first, then second.

    crop_update_intrinsics checks the composed crop against the original
    image, which the second step alone cannot see: the first step's output
    may hold padding where the first crop overhangs the image.  So a second
    crop lying wholly in that padding passes step by step but is rejected
    (InvalidCrop) once composed, as it shows no image pixel.
    """
    s1 = first.scale
    return CropSpec(
        x0=first.x0 + second.x0 / s1,
        y0=first.y0 + second.y0 / s1,
        side=second.side / s1,
        out_size=second.out_size,
    )


def project(k: Intrinsics, point):
    """Pinhole projection of a camera-frame 3D point (z > 0) to pixels, as
    an array."""
    import numpy as np
    p = np.asarray(point, dtype=float)
    if p[2] <= 0:
        raise DomainError("point behind the camera")
    return np.array([k.fx * p[0] / p[2] + k.cx,
                     k.fy * p[1] / p[2] + k.cy])
