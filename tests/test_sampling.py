"""The stdlib generator of relhpe.sampling against numpy, bit for bit:
SeedSequence's state words, PCG64's raw and 32-bit outputs, uniform
draws, the sorted pair sample of both of numpy's choice branches, and the
Euler quaternion of the pose sampler."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relhpe.geometry import EulerAngles, rotation_from_euler
from relhpe.rotation import Rotation, euler_quat
from relhpe.sampling import PCG64, seed_words, sorted_choice

SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**70 + 3]
_SEEDS = st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**100))


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_words_and_raw_outputs(seed):
    state = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert seed_words(seed) == tuple(state.tolist())
    bits = PCG64(seed)
    assert [bits.next64() for _ in range(64)] == (
        np.random.PCG64(seed).random_raw(64).tolist())


@pytest.mark.parametrize("seed", SEEDS)
def test_next32_halves_each_raw_output(seed):
    # Generator.integers over the whole uint32 range takes next32 as is
    expected = np.random.default_rng(seed).integers(
        0, 2**32, size=33, dtype=np.uint32).tolist()
    bits = PCG64(seed)
    assert [bits.next32() for _ in range(33)] == expected


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, rows=st.integers(0, 5), bounds=st.lists(st.tuples(
    st.sampled_from([-400.0, -75.0, -0.0, 0.0, 1e-300, 179.0, 1e300]),
    st.sampled_from([0.0, 1e-300, 60.0, 181.0, 300.0, 1e300])), min_size=1,
    max_size=6))
def test_uniform_equals_generator_uniform(seed, rows, bounds):
    lows = [lo for lo, _ in bounds]
    highs = [max(lo, hi) for lo, hi in bounds]
    expected = np.random.default_rng(seed).uniform(lows, highs,
                                                   size=(rows, len(bounds)))
    got = PCG64(seed).uniform(lows, highs, rows)
    assert np.array(got, dtype=float).reshape(rows, len(bounds)).tobytes() == (
        expected.tobytes())


def _numpy_choice(seed, count, n):
    return np.sort(np.random.default_rng(seed).choice(
        count, n, replace=False)).tolist()


# numpy draws by Floyd's algorithm, or shuffles the tail of arange(count)
# when count > 10000 and n > count // 50
_FLOYD = st.integers(1, 10000).flatmap(
    lambda count: st.tuples(st.just(count), st.integers(0, count - 1)))
_TAIL = st.integers(10001, 20000).flatmap(
    lambda count: st.tuples(st.just(count), st.integers(count // 50 + 1, count - 1)))
_LAST = st.integers(1, 20000).map(lambda count: (count, count - 1))
_WIDE = st.tuples(st.sampled_from([2**32 - 1, 2**32, 2**32 + 1, 2**33 + 5,
                                   2**40, 2**63 - 1]), st.integers(0, 300))


@settings(max_examples=80, deadline=None)
@given(seed=_SEEDS, case=st.one_of(_FLOYD, _TAIL, _LAST, _WIDE))
@example(seed=0, case=(10001, 10000))
@example(seed=2**32, case=(20000, 401))
@example(seed=5, case=(20000, 400))
@example(seed=1, case=(1, 0))
@example(seed=1, case=(7, 0))
def test_sorted_choice_equals_numpy(seed, case):
    count, n = case
    assert sorted_choice(seed, count, n) == _numpy_choice(seed, count, n)


def test_tail_shuffle_memory_follows_the_sample():
    """In the tail-shuffle branch, the traced peak of a 20,000-index sample
    does not grow with the candidate count (numpy's arange(900000) alone
    is 7.2 MB)."""
    peaks = []
    for count in (100_000, 900_000):
        tracemalloc.start()
        try:
            sorted_choice(7, count, 20_000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]
    assert peaks[1] < 8 * 20_000 * 24  # a few words per sampled index


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(*[st.one_of(
    st.sampled_from([0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 360.0, 540.0,
                     -540.0, 1e300, -1e300, 5e-324]),
    st.floats(-720.0, 720.0), st.floats(-1e18, 1e18))] * 3), max_size=12))
def test_euler_quat_equals_rotation_from_euler(rows):
    """euler_quat and rotation_from_euler against the product of the
    half-angle axis Rotations, qy * qx * qz."""
    def product(yaw, pitch, roll):
        hy, hp, hr = (0.5 * math.radians(a) for a in (yaw, pitch, roll))
        q = (Rotation(math.cos(hy), 0.0, math.sin(hy), 0.0)
             * Rotation(math.cos(hp), math.sin(hp), 0.0, 0.0)
             * Rotation(math.cos(hr), 0.0, 0.0, math.sin(hr)))
        return q.w, q.x, q.y, q.z

    # bytes, not ==, so a signed zero in any component counts
    expected = np.array([product(*r) for r in rows], dtype=float).tobytes()
    assert np.array([euler_quat(*r) for r in rows], dtype=float).tobytes() == expected
    rotations = [rotation_from_euler(EulerAngles(*r)) for r in rows]
    assert np.array([(q.w, q.x, q.y, q.z) for q in rotations],
                    dtype=float).tobytes() == expected
