"""The seeded draws of `simulate` and `pairs` on the standard library,
equal bit for bit to numpy's default_rng(seed), and numpy's SeedSequence
and PCG64 constants, stated here once.

* generate_state is SeedSequence(entropy).generate_state(8) of a list of
  32-bit words (limbs gives a seed's), on ints or on uint32 arrays, one
  SeedSequence per element: the scalar seed_words and simulate's array
  pass over a batch's query streams both hash through it.
* PCG64 is numpy's bit generator seeded from seed_words: a 128-bit LCG
  with XSL-RR output (O'Neill, "PCG: A Family of Simple Fast
  Space-Efficient Statistically Good Algorithms for Random Number
  Generation", 2014), with next64 and numpy's buffered next32.  Its
  uniform is Generator.uniform, and its bounded is numpy's
  random_bounded_uint64, by Lemire's method ("Fast Random Integer
  Generation in an Interval", ACM TOMACS 2019).
* sorted_choice is np.sort(default_rng(seed).choice(count, n,
  replace=False)), the pair sample of `pairs`.
* PoseSampler and pose_rows are the synthetic logs of `simulate`: six
  uniform draws per frame, its Euler angles turned into a quaternion by
  rotation.euler_quat.

Standard library only.
"""

from __future__ import annotations

import math

from .errors import DomainError, EmptyRange, whole
from .records import Record
from .rotation import euler_quat

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx): the
# pool is mixed from INIT_A and MULT_A, the state words drawn from INIT_B
# and MULT_B, and two pool words combined by MIX_MULT_L and MIX_MULT_R
INIT_A, MULT_A = 0x43b0d7e5, 0x931e8875
INIT_B, MULT_B = 0x8b51f9dd, 0x58f38ded
MIX_MULT_L, MIX_MULT_R = 0xca01f9dd, 0x4973f715

# PCG64's 128-bit LCG multiplier (O'Neill, 2014)
PCG64_MULT = 0x2360ed051fc65da44385df649fccf645

_M32 = 0xFFFFFFFF
_M53 = (1 << 53) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_DOUBLED = (1 << 64) + 1  # x * _DOUBLED is x << 64 | x for a 64-bit x
_UNIT = 2.0 ** -53  # numpy's next_double scale


def limbs(n) -> list:
    """The 32-bit words of a non-negative int, low first (at least one)."""
    return [n >> 32 * k & _M32 for k in range(max(1, (n.bit_length() + 31) // 32))]


def _hashmix(const, mult):
    """SeedSequence's hashmix, with its running hash constant starting at
    const.  value = value ^ const, not ^=, which would XOR an array's
    words in place."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    result = MIX_MULT_L * x - MIX_MULT_R * y & _M32
    return result ^ result >> 16


def generate_state(entropy) -> list:
    """SeedSequence(entropy).generate_state(8): the words mixed into a
    pool of four, then hashed into eight.  The words are all ints or all
    uint32 arrays (then at least four), one SeedSequence per element; the
    & _M32 masks keep ints to 32 bits, as uint32 arithmetic wraps."""
    hashmix = _hashmix(INIT_A, MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(value))
    hashmix = _hashmix(INIT_B, MULT_B)
    return [hashmix(pool[i % 4]) for i in range(8)]


def seed_words(seed) -> tuple:
    """SeedSequence(seed).generate_state(4, np.uint64) of a non-negative
    int, as four ints."""
    words = generate_state(limbs(seed))
    return tuple(words[i] | words[i + 1] << 32 for i in range(0, 8, 2))


class PCG64:
    """numpy's PCG64(seed): the state and increment seeded from
    seed_words (state high and low, sequence high and low words) as
    pcg64_set_seed does, inc = 2 seq + 1 and state = (inc + state) MULT +
    inc mod 2**128."""

    def __init__(self, seed):
        state_hi, state_lo, seq_hi, seq_lo = seed_words(seed)
        self.inc = (seq_hi << 64 | seq_lo) << 1 & _M128 | 1
        self.state = ((self.inc + (state_hi << 64 | state_lo)) * PCG64_MULT
                      + self.inc) & _M128
        self.half = None  # the high half of a next64 that next32 has not given

    def next64(self) -> int:
        """One step, then the XSL-RR output: the state's two halves XORed,
        rotated right by its top six bits."""
        state = self.state = (self.state * PCG64_MULT + self.inc) & _M128
        x = (state ^ state >> 64) & _M64
        return x * _DOUBLED >> (state >> 122) & _M64

    def next32(self) -> int:
        """numpy's next32: the low half of a next64, then its high half."""
        if self.half is not None:
            half, self.half = self.half, None
            return half
        value = self.next64()
        self.half = value >> 32
        return value & _M32

    def bounded(self, rng) -> int:
        """random_bounded_uint64(bitgen, 0, rng, 0, False): a draw in
        [0, rng] by Lemire's rejection, on next32 up to 2**32 - 1 and on
        next64 above (numpy's plain draws at 2**32 - 1 and 2**64 - 1 are
        what the rejection gives there: threshold 0)."""
        if rng == 0:
            return 0
        bits, draw = (32, self.next32) if rng <= _M32 else (64, self.next64)
        mask, excl = (1 << bits) - 1, rng + 1
        threshold = (mask - rng) % excl  # 2**bits mod excl
        m = draw() * excl
        while m & mask < threshold:
            m = draw() * excl
        return m >> bits

    def uniform(self, lows, highs, rows) -> list:
        """Generator.uniform(lows, highs, size=(rows, len(lows))) as rows
        lists: per element in C order, low + (high - low) * ((next64 >>
        11) * 2**-53), on floats as numpy converts them."""
        bounds = [(float(low), float(high) - float(low))
                  for low, high in zip(lows, highs)]
        state, inc = self.state, self.inc
        out = []
        for _ in range(rows):
            row = []
            for low, width in bounds:  # next64, inlined
                state = (state * PCG64_MULT + inc) & _M128
                x = (state ^ state >> 64) & _M64
                row.append(low + width * (
                    (x * _DOUBLED >> (state >> 122) + 11 & _M53) * _UNIT))
            out.append(row)
        self.state = state
        return out


def sorted_choice(seed, count, n) -> list:
    """np.sort(default_rng(seed).choice(count, n, replace=False)).tolist()
    for 0 <= n < count, in O(n) memory.

    numpy shuffles the tail of arange(count) when count > 10000 and n >
    count // 50: position i, from count - 1 down to count - n, swaps with
    position bounded(i), and the last n positions are the sample.  No
    later swap reaches position i, so its value joins the sample at once,
    and a dict holds the lower positions that a swap has moved, at most
    n.  Otherwise numpy runs Floyd's algorithm: for j from count - n to
    count - 1, the draw bounded(j) joins the sample, or j does if the
    draw is in it already.
    """
    bits = PCG64(seed)
    if count > 10000 and n > count // 50:
        moved, sample = {}, []
        for i in range(count - 1, count - n - 1, -1):
            j = bits.bounded(i)
            value = moved.pop(i, i)
            if j != i:
                value, moved[j] = moved.get(j, j), value
            sample.append(value)
        return sorted(sample)
    chosen = set()
    for j in range(count - n, count):
        drawn = bits.bounded(j)
        chosen.add(j if drawn in chosen else drawn)
    return sorted(chosen)


class PoseSampler(Record):
    """Uniform pose sampling ranges (degrees / mm) for synthetic logs."""

    yaw_range: tuple = (-75.0, 75.0)
    pitch_range: tuple = (-60.0, 60.0)
    roll_range: tuple = (-40.0, 40.0)
    trans_range_mm: tuple = (-100.0, 100.0)
    frames_per_log: int = 100
    subjects: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("yaw_range", "pitch_range", "roll_range", "trans_range_mm"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise EmptyRange(f"{name}: {lo} > {hi}")
            if not math.isfinite(hi - lo):  # nan, inf, or too wide to draw from
                raise DomainError(f"{name}: ({lo}, {hi}) is not a finite range",
                                  setting=name)
        for name in ("frames_per_log", "subjects", "seed"):
            whole(name, getattr(self, name))
        if self.frames_per_log < 1 or self.subjects < 1:
            raise EmptyRange("need at least one frame and one subject")


_IDENTITY_ROW = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def pose_rows(sampler: PoseSampler):
    """(subject id, frame ids, rows) for each synthetic log of sampler, a
    row the (w, x, y, z) quaternion and the translation of a frame.

    Frame 0 of each log is the identity pose, so fixed-anchor policies
    and neutral-reference selection are well posed.  Each later frame
    takes six uniform draws in order (yaw, pitch, roll and the three
    translation components), log after log, from one PCG64(seed), and its
    quaternion is euler_quat of the angles.
    """
    lows, highs = zip(sampler.yaw_range, sampler.pitch_range,
                      sampler.roll_range, *[sampler.trans_range_mm] * 3)
    frame_ids = [f"f{i:04d}" for i in range(sampler.frames_per_log)]
    bits = PCG64(sampler.seed)
    for subject in range(sampler.subjects):
        rows = [_IDENTITY_ROW]
        for yaw, pitch, roll, tx, ty, tz in bits.uniform(
                lows, highs, sampler.frames_per_log - 1):
            rows.append((*euler_quat(yaw, pitch, roll), tx, ty, tz))
        yield f"subj{subject:03d}", frame_ids, rows
