"""The seeded draws of `simulate` and `pairs` on the standard library,
equal bit for bit to numpy's default_rng(seed).

* seed_words is SeedSequence(seed).generate_state(4, np.uint64), on the
  constants in vocab, which simulate's array pass also runs on.
* PCG64 is numpy's bit generator seeded from those words: a 128-bit LCG
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
  euler_quat, on rotation's unit_quat and hamilton.

Standard library only.
"""

from __future__ import annotations

import math

from .errors import DomainError, EmptyRange, whole
from .records import Record
from .rotation import hamilton, unit_quat
from .vocab import (INIT_A, INIT_B, MIX_MULT_L, MIX_MULT_R, MULT_A, MULT_B,
                    PCG64_MULT)

_M32 = 0xFFFFFFFF
_M53 = (1 << 53) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_DOUBLED = (1 << 64) + 1  # x * _DOUBLED is x << 64 | x for a 64-bit x
_UNIT = 2.0 ** -53  # numpy's next_double scale
_RADIANS = math.pi / 180.0  # math.radians(x) is x * _RADIANS


def seed_words(seed) -> tuple:
    """SeedSequence(seed).generate_state(4, np.uint64) of a non-negative
    int, as four ints: the entropy is the seed's 32-bit words, low first,
    mixed into a pool of four words, then hashed into eight."""
    entropy = [seed >> 32 * k & _M32
               for k in range(max(1, (seed.bit_length() + 31) // 32))]
    const = INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = MIX_MULT_L * x - MIX_MULT_R * y & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    const, words = INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * MULT_B & _M32
        value = value * const & _M32
        words.append(value ^ value >> 16)
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


def euler_quat(yaw, pitch, roll) -> tuple:
    """geometry.rotation_from_euler(EulerAngles(yaw, pitch, roll)) as a
    (w, x, y, z) tuple, bit for bit: Rotation(qy) * Rotation(qx) *
    Rotation(qz) of the half-angle axis quaternions, through unit_quat
    and hamilton.

    An axis quaternion (c, 0.0, s, 0.0) (likewise about x and z) skips
    unit_quat when c != 0.  c and s are libm's cos and sin, each within an
    ulp or so, so c*c + s*s is within 1e-15 of 1 and unit_quat divides by
    nothing: it returns the tuple when c > 0 and its negation, zeros
    included, when c < 0.
    """
    cos, sin = math.cos, math.sin
    h = 0.5 * (yaw * _RADIANS)  # 0.5 * math.radians(yaw)
    c, s = cos(h), sin(h)
    qy = ((c, 0.0, s, 0.0) if c > 0.0 else (-c, -0.0, -s, -0.0) if c < 0.0
          else unit_quat(c, 0.0, s, 0.0))
    h = 0.5 * (pitch * _RADIANS)
    c, s = cos(h), sin(h)
    qx = ((c, s, 0.0, 0.0) if c > 0.0 else (-c, -s, -0.0, -0.0) if c < 0.0
          else unit_quat(c, s, 0.0, 0.0))
    h = 0.5 * (roll * _RADIANS)
    c, s = cos(h), sin(h)
    qz = ((c, 0.0, 0.0, s) if c > 0.0 else (-c, -0.0, -0.0, -s) if c < 0.0
          else unit_quat(c, 0.0, 0.0, s))
    return unit_quat(*hamilton(unit_quat(*hamilton(qy, qx)), qz))


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
