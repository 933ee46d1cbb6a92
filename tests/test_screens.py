"""The exact screens of the frame-set decisions equal the unscreened path.

The oracles below are the decisions as made before the screens: every
query scanned against every frame, every row's exact mean, every
neutral x neutral gap, and (for hard pairs, which need no screen) every
neutral x extreme gap by the scalar kernel.  The screened library must return the same values
bit for bit, on ties, sign-flipped rows, rotations near 180 degrees on
both sides of the sort's mirror, shuffled logs, identical and clustered
logs, and thresholds one ulp either side of an actual gap.  The screens
must also do less than the full scan, in bounded memory.
"""

import math
import tracemalloc
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import relhpe.geometry
from relhpe import (AnchorPolicy, EulerAngles, Rotation, SE3Pose,
                    anchor_arrays, build_easy_pairs, build_hard_pairs,
                    geodesic_deg, geodesic_deg_many, neutral_reference,
                    rotation_from_euler)
from relhpe.errors import DomainError, InsufficientFrames
from relhpe.geometry import (MEDOID_MARGIN_DEG, SCREEN_ROWS, medoid_index,
                             pairs_within_deg)
from relhpe.sampling import PoseSampler
from relhpe.simulate import sample_logs

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


def mean_oracle(quats):
    # each row's sum left to right, as medoid_index takes it
    return [reduce(add, geodesic_deg_many(q, quats).tolist(), 0.0) / len(quats)
            for q in quats]


def medoid_oracle(quats):
    means = mean_oracle(quats)
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
    """pairs_within_deg's pairs, row-major, once its yields are checked:
    each row's pairs come in one yield, columns ascending."""
    seen, out = set(), []
    for rows, cols, gaps in pairs_within_deg(quats, max_deg):
        pairs = list(zip(rows.tolist(), cols.tolist(), gaps.tolist()))
        rows = {i for i, _, _ in pairs}
        assert not rows & seen, "a row's pairs came in two yields"
        seen |= rows
        for i in rows:
            cols = [j for r, j, _ in pairs if r == i]
            assert cols == sorted(set(cols)), "columns not ascending"
        out += pairs
    return sorted(out)


def counting_screen(monkeypatch):
    """A list that collects (rows, out shape) per call of the screen's
    block kernel, which keeps running."""
    calls, kernel = [], relhpe.geometry._abs_dots

    def counted(rows, cols, out, spare):
        calls.append((rows[:, :, 0].T.copy(), out.shape))
        kernel(rows, cols, out, spare)
    monkeypatch.setattr(relhpe.geometry, "_abs_dots", counted)
    return calls


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


# unit axes of half turns; a row's widest coordinate follows its axis
_AXES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.0, -0.8),
         (0.36, 0.48, 0.8)]


@st.composite
def half_turns(draw):
    """Raw rows of rotations within about 6 degrees of a half turn about
    nearby axes, either sign.  Their w lies on both sides of 0, so the
    sign-aligned rows lie on both sides of the sort's mirror, and their
    w is on both sides of a small threshold's reach."""
    axis = np.array(draw(st.sampled_from(_AXES)))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        w = draw(st.floats(-0.05, 0.05))
        v = axis + np.array(draw(st.tuples(*[st.floats(-0.03, 0.03)] * 3)))
        row = np.array([w, *(v / np.linalg.norm(v) * math.sqrt(1.0 - w * w))])
        rows.append(-row if draw(st.booleans()) else row)
    return np.array(rows)


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

    @settings(deadline=None, max_examples=300)
    @given(log=logs(max_frames=20), data=st.data())
    def test_shuffled_log_medoid(self, log, data):
        """Medoids away from frame 0, the identity frame simulate writes
        first: the log shuffled, then a frame of the largest mean put
        first."""
        quats = log.quats[data.draw(st.permutations(range(len(log))))]
        means = mean_oracle(quats)
        assume(max(means) > min(means))
        worst = means.index(max(means))
        quats = quats[[worst] + [i for i in range(len(quats)) if i != worst]]
        expected = medoid_oracle(quats)
        assume(expected != 0)  # a largest mean within rounding of the least
        assert medoid_index(quats) == expected

    @settings(deadline=None, max_examples=300)
    @given(log=logs(max_frames=12),
           at=st.lists(st.integers(0, 12), min_size=1, max_size=4))
    def test_duplicate_frames_tie_to_the_lowest_index(self, log, at):
        """Copies of the medoid's row, earlier or later: every copy of the
        winning rotation has the same mean bit for bit, and the first wins."""
        quats = log.quats
        rows = list(quats)
        for i in sorted(at, reverse=True):
            rows.insert(min(i, len(rows)), quats[medoid_oracle(quats)])
        quats = np.array(rows)
        got = medoid_index(quats)
        assert got == medoid_oracle(quats)
        assert not any((quats[i] == quats[got]).all() for i in range(got))

    @settings(deadline=None, max_examples=300)
    @given(quats=half_turns(), max_deg=st.sampled_from([0.5, 1.0, 3.0, 6.0, 10.0, 20.0]))
    def test_half_turns_across_the_mirror(self, quats, max_deg):
        assert screened_pairs(quats, max_deg) == pairs_oracle(quats, max_deg)
        assert medoid_index(quats) == medoid_oracle(quats)

    @settings(deadline=None)
    @given(rotation=_rotations, flip=st.booleans(),
           max_deg=st.sampled_from([0.0, 10.0, 180.0, 400.0]))
    def test_single_frame(self, rotation, flip, max_deg):
        quats = np.array([rotation.quat * (-1.0 if flip else 1.0)])
        assert screened_pairs(quats, max_deg) == []
        assert medoid_index(quats) == 0
        assert assigned(make_log([rotation]), 10.0) == [("f000", None, 0.0)]

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

    def test_clustered_log_every_frame_survives(self, rng, monkeypatch):
        """All frames within a micro-degree: every pair passes the threshold
        screen and every row the mean screen (no row's lower bound prunes
        it), and the exact kernel alone decides."""
        base = EulerAngles(30.0, -10.0, 5.0)
        log = make_log([rotation_from_euler(EulerAngles(
            *(v + d for v, d in zip((base.yaw, base.pitch, base.roll),
                                    rng.uniform(-1e-6, 1e-6, 3)))))
            for _ in range(40)])
        quats = log.quats
        n = len(quats)
        assert len(screened_pairs(quats, 10.0)) == n * (n - 1)
        u, c = relhpe.geometry._unit_columns(quats), np.empty((n, n))
        relhpe.geometry._abs_dots(u[:, :, None], u, c, np.empty((n, n)))
        screened = np.degrees(2 * np.arccos(np.minimum(c, 1.0))).mean(axis=1)
        assert screened.max() - screened.min() <= MEDOID_MARGIN_DEG
        calls = counting_screen(monkeypatch)
        assert medoid_index(quats) == medoid_oracle(quats)
        assert sum(len(rows) for rows, _ in calls) == n
        assert assigned(log, 10.0) == nearest_oracle(log, 10.0)

    @pytest.mark.parametrize("threshold", [180.0, 720.0, 1000.0])
    def test_threshold_at_or_past_180_keeps_every_frame(self, threshold, rng):
        log = make_log([Rotation(*rng.normal(size=4)) for _ in range(37)])
        n = len(log)
        assert len(screened_pairs(log.quats, threshold)) == n * (n - 1)
        assert assigned(log, threshold) == nearest_oracle(log, threshold)
        assert all(anchor is not None for _, anchor, _ in assigned(log, threshold))

    @pytest.mark.parametrize("max_deg", [1e-3, 10.0, 90.0, 180.0])
    def test_blocks_cover_every_sorted_row_once(self, max_deg, rng, monkeypatch):
        """Each sign-aligned unit row is in exactly one block, the blocks in
        sorted order along one coordinate, and no block holds more than
        SCREEN_ROWS x N screen values; a narrow window lets a block hold
        more than SCREEN_ROWS rows."""
        quats = np.array([Rotation(*rng.normal(size=4)).quat for _ in range(35)] * 2)
        calls = counting_screen(monkeypatch)
        assert screened_pairs(quats, max_deg) == pairs_oracle(quats, max_deg)
        rows = np.concatenate([rows for rows, _ in calls])
        unit = relhpe.geometry._unit_columns(quats).T
        assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, unit.tolist()))
        assert any((np.diff(rows[:, k]) >= 0).all() for k in range(4))
        assert all(m * w <= SCREEN_ROWS * len(quats) for _, (m, w) in calls)
        assert max(m for _, (m, _) in calls) > SCREEN_ROWS or max_deg > 1.0

    def test_shuffled_simulated_log(self, rng):
        """A simulated log's medoid is frame 0, the identity; shuffled, it is
        not, and the pruned medoid still finds it."""
        quats = sample_logs(PoseSampler(frames_per_log=600, subjects=1, seed=3))[0].quats
        quats = quats[rng.permutation(len(quats))]
        expected = medoid_oracle(quats)
        assert expected != 0
        assert medoid_index(quats) == expected

    def test_easy_candidates_anchor_major_across_yields(self):
        """Rows come in window order across yields; the easy-pair builder
        still lists its candidates anchor-major in log order."""
        log = sample_logs(PoseSampler(frames_per_log=150, subjects=1, seed=4))[0]
        assert len(list(pairs_within_deg(log.quats, 20.0))) > 1
        got = build_easy_pairs(log, 1000.0, 20.0, n_pairs=10 ** 6)
        assert list(got.pairs) == easy_oracle(log, 1000.0, 20.0)

    def test_a_pair_across_the_mirror(self):
        """Half turns about +x and, sign-aligned, -x: the aligned rows are
        nearly opposite, so only the mirrored window holds the pair."""
        quats = np.array([[1e-3, 1.0, 0.0, 0.0], [-1e-3, 1.0, 2e-3, 0.0]])
        quats /= np.linalg.norm(quats, axis=1)[:, None]
        assert screened_pairs(quats, 1.0) == pairs_oracle(quats, 1.0)
        assert len(pairs_oracle(quats, 1.0)) == 2

    @pytest.mark.parametrize("max_deg", [-1.0, -math.inf, math.nan])
    def test_no_pairs_below_zero(self, max_deg):
        quats = np.array([Rotation.identity().quat] * 3)
        assert screened_pairs(quats, max_deg) == []

    @pytest.mark.parametrize("threshold", [math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(DomainError) as e:
            AnchorPolicy("nearest_within", threshold)
        assert e.value.setting == "threshold_deg"


class TestWork:
    def test_screens_do_a_fraction_of_the_full_scan(self, monkeypatch):
        """On simulated 600-frame logs (wide default ranges), nearest_within
        at 10 degrees screens under 35% of the N^2 pairs, and the medoid
        under half of the rows; the full scan screened all of both."""
        calls = counting_screen(monkeypatch)
        for log in sample_logs(PoseSampler(frames_per_log=600, subjects=4, seed=21)):
            n = len(log)
            calls.clear()
            anchor_arrays(log, AnchorPolicy("nearest_within", 10.0))
            assert sum(m * w for _, (m, w) in calls) < 0.35 * n * n
            calls.clear()
            medoid_index(log.quats)
            assert sum(m for _, (m, _) in calls) < 0.5 * n
            assert all(w == n for _, (_, w) in calls)

    def test_memory_stays_per_block_at_180_degrees(self):
        """At 180 degrees every one of the N^2 pairs qualifies, yet the
        screen holds one block at a time: the tracemalloc peak of
        anchor_arrays on 2000 frames stays within twice that of the
        all-pairs block screen it replaced, 7.4 MB (about 3.7 KB per frame;
        CPython 3.11, numpy 2.4).  Gathering every pair before the first
        yield would hold 4M pairs."""
        policy = AnchorPolicy("nearest_within", 180.0)
        anchor_arrays(make_log([Rotation.identity()] * 20), policy)  # first use
        log = sample_logs(PoseSampler(frames_per_log=2000, subjects=1, seed=5))[0]
        tracemalloc.start()
        try:
            anchor_arrays(log, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 7.4e6
