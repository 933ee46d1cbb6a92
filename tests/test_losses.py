import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhpe import (EulerAngles, LossConfig, Rotation, StagePrediction,
                    geodesic_deg, loss_cam, loss_fov, loss_rotation_geodesic,
                    loss_rotation_quat, loss_translation, rotation_from_euler)
from relhpe.camera import CameraPose
from relhpe.errors import DomainError, EmptyStages, NonContiguousStages

from conftest import random_rotation


def make_pose(t=(0, 0, 0), q=None, fov_h=1.0, fov_w=1.0):
    return CameraPose(np.array(t, dtype=float), q or Rotation.identity(),
                      fov_h, fov_w)


class TestTranslationLoss:
    def test_zero(self):
        assert loss_translation((0, 0, 0), (0, 0, 0)) == 0.0

    def test_l1(self):
        assert loss_translation((1, -2, 3), (0, 0, 0)) == 6.0

    def test_symmetry(self, rng):
        for _ in range(100):
            a, b = rng.uniform(-10, 10, 3), rng.uniform(-10, 10, 3)
            assert loss_translation(a, b) == loss_translation(b, a)

    @settings(derandomize=True, database=None, max_examples=1000)
    @given(p=st.tuples(*[st.floats(-1e300, 1e300)] * 3),
           t=st.tuples(*[st.floats(-1e300, 1e300)] * 3))
    def test_equals_numpys_sum_bit_for_bit(self, p, t):
        """The plain left-to-right sum the library computes is numpy's
        sum of the absolute differences, so the loss report keeps its
        bytes."""
        want = float(np.abs(np.subtract(p, t)).sum())
        got = loss_translation(p, t)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want)


class TestQuatLoss:
    def test_zero_on_equal(self, rng):
        q = random_rotation(rng)
        assert loss_rotation_quat(q, q) == 0.0

    def test_sign_ambiguity(self, rng):
        for _ in range(50):
            raw = rng.normal(size=4)
            assert loss_rotation_quat(Rotation(*raw), Rotation(*(-raw))) < 1e-12

    def test_yaw_180_closed_form(self):
        # yaw(180 deg) quaternion is (0, 0, 1, 0); L1 to identity = 2
        pred = rotation_from_euler(EulerAngles(180, 0, 0))
        assert abs(loss_rotation_quat(Rotation.identity(), pred) - 2.0) < 1e-12


class TestGeodesicLoss:
    def test_zero_on_equal(self, rng):
        q = random_rotation(rng)
        assert loss_rotation_geodesic(q, q) == 0.0

    def test_right_angle(self):
        pred = rotation_from_euler(EulerAngles(90, 0, 0))
        assert abs(loss_rotation_geodesic(Rotation.identity(), pred)
                   - math.pi / 2) < 1e-12

    def test_consistent_with_geodesic_deg(self, rng):
        for _ in range(1000):
            a, b = random_rotation(rng), random_rotation(rng)
            assert abs(loss_rotation_geodesic(a, b)
                       - math.radians(geodesic_deg(a, b))) < 1e-12

    def test_directional_derivative(self, rng):
        # central differences along a tangent direction match the analytic
        # unit-magnitude derivative along the geodesic
        h = 1e-6
        for _ in range(50):
            true = random_rotation(rng)
            angle = rng.uniform(0.2, math.pi - 0.2)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            def loss_at(eps):
                pred = Rotation.from_axis_angle(axis, angle + eps) * true
                return loss_rotation_geodesic(pred, true)
            fd = (loss_at(h) - loss_at(-h)) / (2 * h)
            assert abs(fd - 1.0) < 1e-4


class TestFovLoss:
    def test_zero_on_equal(self):
        assert loss_fov((1.0, 1.3), (1.0, 1.3)) == 0.0

    def test_common_offset_cancels(self, rng):
        from relhpe import logtan_fov
        for _ in range(100):
            p1, p2 = rng.uniform(0.3, 2.5, 2)
            t1, t2 = rng.uniform(0.3, 2.5, 2)
            base = loss_fov((p1, p2), (t1, t2))
            c = rng.uniform(-0.5, 0.5)
            q1 = 2 * math.atan(math.exp(logtan_fov(p1) + c))
            q2 = 2 * math.atan(math.exp(logtan_fov(p2) + c))
            assert abs(loss_fov((q1, q2), (t1, t2)) - base) < 1e-9

    def test_specific_tuple_against_mpmath(self):
        import mpmath
        mpmath.mp.dps = 50
        pred, true = (0.9, 1.4), (1.1, 0.8)
        def r(phi):
            return mpmath.log(mpmath.tan(mpmath.mpf(phi) / 2))
        expected = abs((r(pred[1]) - r(pred[0])) - (r(true[1]) - r(true[0])))
        assert abs(loss_fov(pred, true) - float(expected)) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            loss_fov((0.0, 1.0), (1.0, 1.0))


class TestLossCam:
    def test_single_stage_collapses(self, rng):
        pred = make_pose(t=(1, 2, 3), q=random_rotation(rng), fov_h=1.1, fov_w=0.9)
        true = make_pose(t=(0, 1, 5), q=random_rotation(rng), fov_h=1.0, fov_w=1.0)
        cfg = LossConfig(lambda_t=2.0, lambda_r=3.0, lambda_f=0.25, gamma=0.37)
        total, breakdown = loss_cam([StagePrediction(1, pred, true)], cfg)
        expected = (2.0 * loss_translation(pred.t, true.t)
                    + 3.0 * loss_rotation_quat(pred.q, true.q)
                    + 0.25 * loss_fov((pred.fov_h, pred.fov_w),
                                      (true.fov_h, true.fov_w)))
        assert abs(total - expected) < 1e-15
        assert len(breakdown) == 1

    def test_perfect_predictions_zero(self, rng):
        stages = []
        for k in range(1, 5):
            p = make_pose(t=tuple(rng.uniform(-5, 5, 3)), q=random_rotation(rng))
            stages.append(StagePrediction(k, p, p))
        total, _ = loss_cam(stages, LossConfig())
        assert total == 0.0

    @pytest.mark.parametrize("gamma", [0.3, 0.6, 1.0])
    def test_four_stage_summation_oracle(self, rng, gamma):
        # independent flat summation over precomputed per-stage terms
        stages, terms = [], []
        for k in range(1, 5):
            pred = make_pose(t=tuple(rng.uniform(-5, 5, 3)),
                             q=random_rotation(rng), fov_h=1.2, fov_w=0.8)
            true = make_pose(t=tuple(rng.uniform(-5, 5, 3)),
                             q=random_rotation(rng), fov_h=1.0, fov_w=1.1)
            stages.append(StagePrediction(k, pred, true))
            lt = sum(abs(a - b) for a, b in zip(pred.t, true.t))
            lr = sum(abs(a - b) for a, b in zip(pred.q.quat, true.q.quat))
            lf = abs((math.log(math.tan(pred.fov_w / 2)) - math.log(math.tan(pred.fov_h / 2)))
                     - (math.log(math.tan(true.fov_w / 2)) - math.log(math.tan(true.fov_h / 2))))
            terms.append((lt, lr, lf))
        cfg = LossConfig(lambda_t=1.0, lambda_r=1.0, lambda_f=0.5, gamma=gamma)
        total, breakdown = loss_cam(stages, cfg)
        expected = sum(gamma ** (4 - k) * (lt + lr + 0.5 * lf)
                       for k, (lt, lr, lf) in enumerate(terms, start=1)) / 4
        assert abs(total - expected) <= 1e-12 * max(expected, 1.0)

    def test_breakdown_sums_to_total(self, rng):
        stages = [StagePrediction(k,
                                  make_pose(t=tuple(rng.uniform(-5, 5, 3)),
                                            q=random_rotation(rng)),
                                  make_pose(t=tuple(rng.uniform(-5, 5, 3)),
                                            q=random_rotation(rng)))
                  for k in range(1, 5)]
        total, breakdown = loss_cam(stages, LossConfig())
        assert abs(total - sum(b.total for b in breakdown)) < 1e-12

    def test_modes(self, rng):
        pred = make_pose(t=(1, 2, 3), q=random_rotation(rng), fov_h=1.1, fov_w=0.9)
        true = make_pose(t=(0, 0, 0), q=random_rotation(rng), fov_h=1.0, fov_w=1.0)
        stage = [StagePrediction(1, pred, true)]
        full, _ = loss_cam(stage, LossConfig(mode="full"))
        no_fov, b_no_fov = loss_cam(stage, LossConfig(mode="no_fov"))
        rot_only, b_rot = loss_cam(stage, LossConfig(mode="rotation_only"))
        geo, _ = loss_cam(stage, LossConfig(mode="geodesic"))
        taux, _ = loss_cam(stage, LossConfig(mode="translation_aux"))
        assert b_no_fov[0].fov == 0.0 and no_fov < full
        assert b_rot[0].translation == 0.0 and b_rot[0].fov == 0.0
        assert abs(rot_only - loss_rotation_quat(pred.q, true.q)) < 1e-15
        assert abs(geo - (loss_translation(pred.t, true.t)
                          + loss_rotation_geodesic(pred.q, true.q)
                          + 0.5 * loss_fov((pred.fov_h, pred.fov_w),
                                           (true.fov_h, true.fov_w)))) < 1e-12
        assert taux == full  # reporting flag only

    def test_monotone_in_components(self, rng):
        # inflating one stage's translation error never lowers the total
        true = make_pose()
        base = make_pose(t=(1, 0, 0))
        worse = make_pose(t=(2, 0, 0))
        cfg = LossConfig()
        t0, _ = loss_cam([StagePrediction(1, base, true)], cfg)
        t1, _ = loss_cam([StagePrediction(1, worse, true)], cfg)
        assert t1 >= t0

    def test_errors(self):
        with pytest.raises(EmptyStages):
            loss_cam([], LossConfig())
        stage = StagePrediction(2, make_pose(), make_pose())
        with pytest.raises(NonContiguousStages):
            loss_cam([stage], LossConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(gamma=0.0)
        with pytest.raises(ValueError):
            LossConfig(lambda_t=-1.0)
        with pytest.raises(DomainError):
            LossConfig(lambda_r=math.nan)
        with pytest.raises(ValueError):
            LossConfig(mode="bogus")
