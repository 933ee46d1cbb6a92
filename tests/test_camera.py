import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relhpe import (CropSpec, Intrinsics, compose_crops, crop_update_intrinsics,
                    fov_from_intrinsics, intrinsics_from_fov, logtan_fov,
                    project)
from relhpe.camera import CameraPose
from relhpe.errors import DomainError, InvalidCrop
from relhpe.rotation import Rotation


class TestLogTanFov:
    def test_right_angle_is_zero(self):
        assert abs(logtan_fov(math.pi / 2)) < 1e-15

    def test_half_tangent(self):
        # tan(phi/2) = 0.5 -> ln(0.5); frozen from math.log(0.5)
        assert abs(logtan_fov(2 * math.atan(0.5)) - (-0.6931471805599453)) < 1e-12

    def test_monotone_grid(self):
        phis = np.linspace(0.01, math.pi - 0.01, 1000)
        vals = [logtan_fov(p) for p in phis]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("phi", [0.0, -0.1, math.pi, 4.0])
    def test_domain(self, phi):
        with pytest.raises(DomainError):
            logtan_fov(phi)


class TestIntrinsicsFromFov:
    def test_right_angle_focal(self):
        k = intrinsics_from_fov(math.pi / 2, math.pi / 2, 100, 100)
        assert abs(k.fx - 50.0) < 1e-12
        assert (k.cx, k.cy) == (50.0, 50.0)

    def test_square_symmetry(self):
        k = intrinsics_from_fov(1.1, 1.1, 640, 640)
        assert k.fx == k.fy

    def test_round_trip(self, rng):
        for _ in range(100):
            fw, fh = rng.uniform(0.1, 3.0, 2)
            k = intrinsics_from_fov(fw, fh, 640, 480)
            rw, rh = fov_from_intrinsics(k)
            assert abs(rw - fw) < 1e-9 and abs(rh - fh) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            intrinsics_from_fov(0.0, 1.0, 10, 10)
        with pytest.raises(DomainError):
            intrinsics_from_fov(1.0, 1.0, 0, 10)


def crop_then_resize(px, crop: CropSpec):
    """Oracle: pixel coordinate after cropping the image and resizing."""
    s = crop.out_size / crop.side
    return np.array([(px[0] - crop.x0) * s, (px[1] - crop.y0) * s])


class TestCropUpdateIntrinsics:
    def test_identity_crop(self):
        k = Intrinsics(500, 510, 320, 240, 640, 640)
        out = crop_update_intrinsics(k, CropSpec(0, 0, 640, 640))
        assert out == k

    def test_half_scale(self):
        k = Intrinsics(500, 510, 320, 240, 640, 640)
        out = crop_update_intrinsics(k, CropSpec(0, 0, 640, 320))
        assert out.fx == 250 and out.fy == 255
        assert out.cx == 160 and out.cy == 120
        assert out.width == out.height == 320

    def test_projection_consistency(self, rng):
        k = Intrinsics(480, 500, 310, 255, 640, 480)
        for _ in range(1000):
            crop = CropSpec(x0=rng.uniform(0, 300), y0=rng.uniform(0, 200),
                            side=rng.uniform(50, 400), out_size=224)
            p = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(0.5, 10)])
            full = project(k, p)
            cropped = project(crop_update_intrinsics(k, crop), p)
            assert np.linalg.norm(cropped - crop_then_resize(full, crop)) < 1e-7

    def test_double_crop_composition(self, rng):
        k = Intrinsics(480, 500, 310, 255, 640, 480)
        for _ in range(200):
            c1 = CropSpec(rng.uniform(0, 100), rng.uniform(0, 100),
                          rng.uniform(100, 400), 256)
            c2 = CropSpec(rng.uniform(0, 100), rng.uniform(0, 100),
                          rng.uniform(50, 150), 128)
            twice = crop_update_intrinsics(crop_update_intrinsics(k, c1), c2)
            once = crop_update_intrinsics(k, compose_crops(c1, c2))
            for attr in ("fx", "fy", "cx", "cy", "width", "height"):
                assert abs(getattr(twice, attr) - getattr(once, attr)) < 1e-9

    def test_invalid_crop(self):
        k = Intrinsics(480, 500, 310, 255, 640, 480)
        with pytest.raises(InvalidCrop):
            crop_update_intrinsics(k, CropSpec(0, 0, 0, 100))
        with pytest.raises(InvalidCrop):
            crop_update_intrinsics(k, CropSpec(10000, 0, 50, 100))

    def test_logtan_difference_crop_invariant(self, rng):
        # the supervised fov-ratio quantity is invariant to a shared
        # uniform crop scale applied to both cameras
        for _ in range(100):
            f1, f2 = rng.uniform(0.3, 2.5, 2)
            k1 = intrinsics_from_fov(f1, f1, 512, 512)
            k2 = intrinsics_from_fov(f2, f2, 512, 512)
            before = logtan_fov(f2) - logtan_fov(f1)
            crop = CropSpec(0, 0, rng.uniform(128, 512), 256)
            g1 = fov_from_intrinsics(crop_update_intrinsics(k1, crop))[0]
            g2 = fov_from_intrinsics(crop_update_intrinsics(k2, crop))[0]
            after = logtan_fov(g2) - logtan_fov(g1)
            assert abs(before - after) < 1e-9


_fractions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_intrinsics = st.tuples(st.floats(50.0, 5000.0), st.floats(50.0, 5000.0),
                        st.floats(32.0, 4096.0), st.floats(32.0, 4096.0),
                        _fractions, _fractions).map(
    lambda v: Intrinsics(v[0], v[1], v[4] * v[2], v[5] * v[3], v[2], v[3]))


def _crops(width, height):
    """Square crops inside a width x height image, resized to out_size; a
    fraction of 0 or 1 puts the crop on the image border (1 on the far one,
    and a side fraction of 1 spans the shorter image side)."""
    def crop(v):
        side = max(v[2], 1e-3) * min(width, height)
        return CropSpec(v[0] * (width - side), v[1] * (height - side), side, v[3])
    return st.tuples(_fractions, _fractions, _fractions,
                     st.one_of(st.sampled_from([64.0, 224.0]),
                               st.floats(16.0, 1024.0))).map(crop)


class TestCropCompositionLaws:
    @given(data=st.data(), k=_intrinsics)
    def test_update_by_composition_is_the_two_updates(self, data, k):
        a = data.draw(_crops(k.width, k.height))
        b = data.draw(_crops(a.out_size, a.out_size))
        twice = crop_update_intrinsics(crop_update_intrinsics(k, a), b)
        once = crop_update_intrinsics(k, compose_crops(a, b))
        scale = twice.fx / k.fx
        assert (once.width, once.height) == (twice.width, twice.height)
        assert once.fx == pytest.approx(twice.fx, rel=1e-12)
        assert once.fy == pytest.approx(twice.fy, rel=1e-12)
        # the principal point cancels crop corners: absolute error bound
        tol = 1e-12 * scale * (abs(k.cx) + abs(k.cy) + 2 * (k.width + k.height))
        assert abs(once.cx - twice.cx) <= tol
        assert abs(once.cy - twice.cy) <= tol

    @given(data=st.data(), width=st.floats(32.0, 4096.0),
           height=st.floats(32.0, 4096.0))
    def test_compose_crops_associative(self, data, width, height):
        a = data.draw(_crops(width, height))
        b = data.draw(_crops(a.out_size, a.out_size))
        c = data.draw(_crops(b.out_size, b.out_size))
        left = compose_crops(compose_crops(a, b), c)
        right = compose_crops(a, compose_crops(b, c))
        assert left.out_size == right.out_size == c.out_size
        assert left.side == pytest.approx(right.side, rel=1e-12)
        tol = 1e-12 * (width + height)
        assert abs(left.x0 - right.x0) <= tol
        assert abs(left.y0 - right.y0) <= tol

    def test_second_crop_in_padding_rejected_once_composed(self):
        """a overhangs the right image edge; b lies wholly in a's padding,
        which the second step cannot tell from image, but the composed crop
        is checked against the image itself."""
        k = Intrinsics(500, 500, 320, 240, 640, 480)
        a = CropSpec(600, 0, 100, 100)
        b = CropSpec(60, 0, 30, 30)
        crop_update_intrinsics(crop_update_intrinsics(k, a), b)
        with pytest.raises(InvalidCrop, match="does not intersect"):
            crop_update_intrinsics(k, compose_crops(a, b))


class TestIntrinsics:
    @pytest.mark.parametrize("field, value", [
        ("fx", 0.0), ("fx", math.nan), ("fy", math.inf), ("cx", math.nan),
        ("cy", -math.inf), ("width", -1.0), ("height", math.nan)])
    def test_domain(self, field, value):
        kw = dict(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640.0,
                  height=480.0)
        kw[field] = value
        with pytest.raises(DomainError):
            Intrinsics(**kw)


class TestCameraPose:
    def test_vector_encoding(self):
        cp = CameraPose(t=np.array([1.0, 2.0, 3.0]), q=Rotation.identity(),
                        fov_h=1.0, fov_w=1.2)
        v = cp.as_vector()
        assert v.shape == (9,)
        assert list(v[:3]) == [1.0, 2.0, 3.0]
        assert list(v[3:7]) == [1.0, 0.0, 0.0, 0.0]
        assert list(v[7:]) == [1.0, 1.2]

    def test_fov_domain(self):
        with pytest.raises(DomainError):
            CameraPose(np.zeros(3), Rotation.identity(), fov_h=0.0, fov_w=1.0)
        with pytest.raises(DomainError):
            CameraPose(np.zeros(3), Rotation.identity(), fov_h=1.0, fov_w=math.pi)
