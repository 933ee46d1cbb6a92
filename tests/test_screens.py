"""The exact screens of the frame-set decisions equal the unscreened path.

The oracles below are the decisions as made before the screens: every
query scanned against every frame, every row's exact mean, every
neutral x neutral gap, and (for hard pairs, which need no screen) every
neutral x extreme gap by the scalar kernel.  The screened library must return the same values
bit for bit, on ties, sign-flipped rows, identical and clustered logs, and
thresholds one ulp either side of an actual gap.
"""

import math
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relhpe.geometry
from relhpe import (AnchorPolicy, EulerAngles, Rotation, SE3Pose,
                    anchor_arrays, build_easy_pairs, build_hard_pairs,
                    geodesic_deg, geodesic_deg_many, neutral_reference,
                    rotation_from_euler)
from relhpe.errors import DomainError, InsufficientFrames
from relhpe.geometry import (MEDOID_MARGIN_DEG, medoid_index,
                             pairs_within_deg, screen_blocks)

from conftest import frame_records, pose_log


def make_log(rotations):
    return pose_log([SE3Pose(r, np.zeros(3)) for r in rotations],
                    ids=[f"f{i:03d}" for i in range(len(rotations))])


# ---------------------------------------------------------------------------
# unscreened oracles


def nearest_oracle(log, threshold_deg):
    frames, quats = frame_records(log), log.quats
    out = []
    for i, f in enumerate(frames):
        gaps = geodesic_deg_many(quats, quats[i])
        gaps[i] = float("inf")
        j = int(gaps.argmin())
        if gaps[j] < threshold_deg:
            out.append((f.frame_id, frames[j].frame_id, gaps[j].item()))
        else:
            out.append((f.frame_id, None, 0.0))
    return out


def medoid_oracle(quats):
    # each row's sum left to right, as medoid_index takes it
    means = [reduce(add, geodesic_deg_many(q, quats).tolist(), 0.0) / len(quats)
             for q in quats]
    return means.index(min(means))


def easy_oracle(log, neutral_thresh_deg, max_gap_deg):
    frames, quats = frame_records(log), log.quats
    ref = quats[medoid_oracle(quats)]
    dist = geodesic_deg_many(ref, quats).tolist()
    neutral = [i for i, d in enumerate(dist) if d < neutral_thresh_deg]
    return [(frames[a].frame_id, frames[q].frame_id, gap)
            for a in neutral
            for q, gap in zip(neutral, geodesic_deg_many(quats[a], quats[neutral]).tolist())
            if a != q and gap <= max_gap_deg]


def hard_oracle(log, neutral_thresh_deg, extreme_thresh_deg, n_pairs, seed):
    """Every neutral x extreme pair of distinct frames by the scalar
    kernel, anchor-major in log order, then the builder's draw; None when
    no frame is neutral or none extreme."""
    frames = frame_records(log)
    ref = frames[medoid_oracle(log.quats)].pose.rotation
    dist = [geodesic_deg(ref, f.pose.rotation) for f in frames]
    if min(dist) >= neutral_thresh_deg or max(dist) <= extreme_thresh_deg:
        return None
    candidates = [(a.frame_id, q.frame_id, geodesic_deg(a.pose.rotation, q.pose.rotation))
                  for a, da in zip(frames, dist) if da < neutral_thresh_deg
                  for q, dq in zip(frames, dist)
                  if dq > extreme_thresh_deg and q is not a]
    if n_pairs >= len(candidates):
        return candidates
    idx = np.random.default_rng(seed).choice(len(candidates), size=n_pairs,
                                             replace=False)
    return [candidates[i] for i in sorted(idx)]


def pairs_oracle(quats, max_deg):
    return [(i, j, g) for i in range(len(quats))
            for j, g in enumerate(geodesic_deg_many(quats[i], quats).tolist())
            if i != j and g <= max_deg]


def screened_pairs(quats, max_deg):
    return [(i, j, g) for rows, cols, gaps in pairs_within_deg(quats, max_deg)
            for i, j, g in zip(rows.tolist(), cols.tolist(), gaps.tolist())]


def assigned(log, threshold_deg):
    out = anchor_arrays(log, AnchorPolicy("nearest_within", threshold_deg))
    return [(q, log.frame_ids[j] if j >= 0 else None, g) for q, j, g in
            zip(log.frame_ids, out.anchor.tolist(), out.gap_deg.tolist())]


# ---------------------------------------------------------------------------
# strategies

_angles = st.floats(-179.0, 179.0)
# 180-degree turns about nearby axes: quaternions with w = +-1e-9 are
# nearly opposite (q vs -q) yet the rotations nearly equal
_SPECIAL = [Rotation(1.0, 0.0, 0.0, 0.0), Rotation(1e-9, 1.0, 0.0, 0.0),
            Rotation(-1e-9, 1.0, 0.0, 0.0), Rotation(0.0, 1.0, 1e-9, 0.0),
            Rotation(0.0, 0.6, 0.0, -0.8), Rotation(1.0, 1e-9, 0.0, 0.0)]
_rotations = st.one_of(
    st.sampled_from(_SPECIAL),
    st.builds(lambda y, p, r: rotation_from_euler(EulerAngles(y, p, r)),
              _angles, st.floats(-89.0, 89.0), _angles),
    # small yaw steps, so gaps cluster around the thresholds below
    st.builds(lambda y: rotation_from_euler(EulerAngles(y, 0.0, 0.0)),
              st.sampled_from([0.0, 1.0, 2.5, 3.0, 5.0, 7.5, 10.0, 10.0])))


def _shrunk(r):
    """r with its quaternion scaled by 1 - 9e-13, which Rotation keeps as
    is (within 1e-12 of unit norm), so dots of two such rows fall ~2e-12
    below the cosine of their half angle."""
    return Rotation(*(r.quat * (1.0 - 9e-13)))


@st.composite
def logs(draw, max_frames=14):
    """Logs drawn from a small pool of rotations, so frames repeat (ties)."""
    pool = draw(st.lists(st.one_of(_rotations, _rotations.map(_shrunk)),
                         min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=max_frames))
    return make_log([pool[i] for i in picks])


@st.composite
def log_and_threshold(draw):
    """A log and a threshold: one of the log's gaps between distinct frames
    (most often a frame's nearest one, which decides its anchor), or the
    next float above or below it, or a free threshold."""
    log = draw(logs())
    quats = log.quats
    gaps = np.array([geodesic_deg_many(quats, q) for q in quats])
    np.fill_diagonal(gaps, np.inf)
    nearest = gaps.min(axis=1)
    candidates = sorted(set(nearest[np.isfinite(nearest)].tolist())) or [0.0]
    gap = draw(st.one_of(st.sampled_from(candidates),
                         st.sampled_from(sorted(set(gaps[np.isfinite(gaps)].tolist()))
                                         or [0.0])))
    nudge = draw(st.sampled_from([0.0, math.inf, -math.inf]))
    exact = math.nextafter(gap, nudge) if nudge else gap
    free = draw(st.floats(1e-6, 400.0))
    return log, exact if exact > 0 else free


# ---------------------------------------------------------------------------


class TestScreenedEqualsUnscreened:
    @settings(deadline=None, max_examples=300)
    @given(case=log_and_threshold())
    def test_nearest_within(self, case):
        log, threshold = case
        assert assigned(log, threshold) == nearest_oracle(log, threshold)

    @settings(deadline=None, max_examples=300)
    @given(log=logs(max_frames=20))
    def test_neutral_reference(self, log):
        quats = log.quats
        assert neutral_reference(log) == frame_records(log)[medoid_oracle(quats)].pose.rotation
        assert medoid_index(quats) == medoid_oracle(quats)

    @settings(deadline=None, max_examples=300)
    @given(case=log_and_threshold(), neutral=st.sampled_from([5.0, 15.0, 1000.0]))
    def test_easy_candidates(self, case, neutral):
        log, max_gap = case
        expected = easy_oracle(log, neutral, max_gap)
        if not expected:
            with pytest.raises(InsufficientFrames):
                build_easy_pairs(log, neutral, max_gap, n_pairs=10 ** 6)
        else:
            got = build_easy_pairs(log, neutral, max_gap, n_pairs=10 ** 6)
            assert list(got.pairs) == expected

    @settings(deadline=None, max_examples=300)
    @given(log=logs(), neutral=st.sampled_from([5.0, 15.0, 60.0, 1000.0]),
           extreme=st.sampled_from([0.0, 1.0, 10.0, 45.0]),
           n_pairs=st.integers(0, 60), seed=st.integers(0, 2 ** 32))
    def test_hard_pairs(self, log, neutral, extreme, n_pairs, seed):
        """Thresholds may overlap (a frame both neutral and extreme); n_pairs
        falls below and above the candidate count (at most 14 x 13)."""
        expected = hard_oracle(log, neutral, extreme, n_pairs, seed)
        if expected is None:
            with pytest.raises(InsufficientFrames):
                build_hard_pairs(log, neutral, extreme, n_pairs, seed)
        else:
            got = build_hard_pairs(log, neutral, extreme, n_pairs, seed)
            assert list(got.pairs) == expected

    @settings(deadline=None)
    @given(rows=st.lists(st.sampled_from(range(len(_SPECIAL))), min_size=1, max_size=10),
           flips=st.lists(st.booleans(), min_size=10, max_size=10),
           max_deg=st.sampled_from([0.0, 1e-7, 1e-3, 10.0, 179.9999, 180.0, 200.0]))
    def test_sign_flipped_rows(self, rows, flips, max_deg):
        """Raw rows may carry either sign (q and -q), which Rotation folds."""
        quats = np.array([_SPECIAL[i].quat * (-1.0 if f else 1.0)
                          for i, f in zip(rows, flips)])
        assert screened_pairs(quats, max_deg) == pairs_oracle(quats, max_deg)
        assert medoid_index(quats) == medoid_oracle(quats)


class TestEdges:
    def test_identical_log(self):
        log = make_log([rotation_from_euler(EulerAngles(20.0, 5.0, -3.0))] * 9)
        assert assigned(log, 1e-9) == nearest_oracle(log, 1e-9)
        assert all(anchor == "f000" or query == "f000"
                   for query, anchor, _ in assigned(log, 1e-9))
        assert medoid_index(log.quats) == 0
        assert build_easy_pairs(log, 1.0, 0.0, n_pairs=10 ** 6).stats["count"] == 72

    def test_medoid_mean_is_a_plain_left_to_right_sum(self, monkeypatch):
        """Each exact mean adds its row's distances left to right, as the
        built-in sum did before CPython 3.12 compensated it: row 0's
        [1e16, 1.0, -1e16] sums to 0.0 so (the 1.0 is lost) but to 1.0
        compensated, which would lose to row 1's 0.5."""
        rows = iter([[1e16, 1.0, -1e16], [0.5, 0.0, 0.0], [1.0, 1.0, 1.0]])
        monkeypatch.setattr(relhpe.geometry, "geodesic_deg_many",
                            lambda quat, quats: np.array(next(rows)))
        # identical rows: every row passes the mean screen
        assert medoid_index(np.array([Rotation.identity().quat] * 3)) == 0

    def test_clustered_log_every_frame_survives(self, rng):
        """All frames within a micro-degree: every pair passes the threshold
        screen and every row the mean screen, and the exact kernel alone
        decides."""
        base = EulerAngles(30.0, -10.0, 5.0)
        log = make_log([rotation_from_euler(EulerAngles(
            *(v + d for v, d in zip((base.yaw, base.pitch, base.roll),
                                    rng.uniform(-1e-6, 1e-6, 3)))))
            for _ in range(40)])
        quats = log.quats
        n = len(quats)
        assert len(screened_pairs(quats, 10.0)) == n * (n - 1)
        screened = np.concatenate([np.degrees(2 * np.arccos(np.minimum(c, 1.0))).mean(axis=1)
                                   for _, c in screen_blocks(quats)])
        assert screened.max() - screened.min() <= MEDOID_MARGIN_DEG
        assert medoid_index(quats) == medoid_oracle(quats)
        assert assigned(log, 10.0) == nearest_oracle(log, 10.0)

    @pytest.mark.parametrize("threshold", [180.0, 720.0, 1000.0])
    def test_threshold_at_or_past_180_keeps_every_frame(self, threshold, rng):
        log = make_log([Rotation(*rng.normal(size=4)) for _ in range(37)])
        n = len(log)
        assert len(screened_pairs(log.quats, threshold)) == n * (n - 1)
        assert assigned(log, threshold) == nearest_oracle(log, threshold)
        assert all(anchor is not None for _, anchor, _ in assigned(log, threshold))

    def test_blocks_cover_every_row(self, rng):
        quats = np.array([Rotation(*rng.normal(size=4)).quat for _ in range(35)])
        starts = [(start, c.shape) for start, c in screen_blocks(quats)]
        assert starts == [(0, (16, 35)), (16, (16, 35)), (32, (3, 35))]

    @pytest.mark.parametrize("max_deg", [-1.0, -math.inf, math.nan])
    def test_no_pairs_below_zero(self, max_deg):
        quats = np.array([Rotation.identity().quat] * 3)
        assert screened_pairs(quats, max_deg) == []

    @pytest.mark.parametrize("threshold", [math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(DomainError) as e:
            AnchorPolicy("nearest_within", threshold)
        assert e.value.setting == "threshold_deg"
