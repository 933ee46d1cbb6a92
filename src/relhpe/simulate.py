"""Pose-level simulated estimators and log sampling.

No images and no networks: estimators here perturb ground-truth poses with
controlled noise so the harness can be exercised end to end.  Rotation
noise is a left-multiplied perturbation about a uniformly random axis with
*exact* configured magnitude (not a Gaussian draw), which keeps per-sample
error assertions tight.

* Absolute estimators model error growing with the query's distance from a
  canonical reference: magnitude = base + slope * geodesic(truth, ref).
* Relative estimators model error growing with the anchor-query gap:
  magnitude = base + slope * gap.

RNG streams are keyed per query by (seed, subject_id, frame_id), so serial
and parallel runs agree and identical seeds give identical reports.  A
query's stream is numpy's: a PCG64 generator seeded by
SeedSequence([seed, *the first four little-endian words of
SHA-256("subject_id/frame_id")]) (_query_rng), yielding unit vectors in
order: the rotation axis when the magnitude is > 0, then the translation
direction when trans_noise_mm > 0.  Estimators with equal seeds therefore
draw the same vectors, and the batched path (each estimator's predict)
derives each query's stream once per batch and seed and shares its
vectors between them.

A batch's streams are drawn in one array pass over uint64 columns: the
SeedSequence hash (32-bit integer arithmetic), PCG64's seeding step and
steps (128-bit states as high and low words, the high word of a product
from 32-bit limbs), the XSL-RR outputs, and the fast path of numpy's
ziggurat normal sampler (Marsaglia & Tsang, JSS 2000), which about 98% of
draws take.  Its tables are probed from the installed numpy at first use
(_probed_tables).  _pcg64_normals draws a row from one PCG64 set to the
row's state in the columns: on a few thousand rows to check the fast path
(_ziggurat_tables), and for each row with a draw off the fast path (layer
0, layer 1, or rabs at or above its layer's bound), or for every row if
the check failed.  A row with a vector at most _MIN_NORM long is drawn
again from _query_rng.  The scalar simulate_absolute / simulate_relative
on _query_rng are the reference the batched path equals bit for bit.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

from .errors import DomainError, EmptyRange, whole
from .geometry import (SE3Pose, axis_angle_many, compose_many,
                       geodesic_deg_many, inverse_many, multiply_many,
                       relative, rotation_from_euler_many, row_norms)
from .poselog import PoseLog
from .records import Record
from .rotation import Rotation, geodesic_deg
from .tables import named_by, prediction_rows


def _query_rng(seed, subject_id, frame_id):
    digest = hashlib.sha256(f"{subject_id}/{frame_id}".encode()).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng([int(seed)] + words)


_MIN_NORM = 1e-12  # a normal draw this short is drawn again


def _random_unit_vector(rng):
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > _MIN_NORM:
            return v / n


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", 2014)
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_PCG64_MULT = 0x2360ed051fc65da44385df649fccf645
_M32 = 0xFFFFFFFF
_M52 = (1 << 52) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1


def _limbs(n):
    """The 32-bit words of a non-negative int, low first (at least one)."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hashmix(const, mult):
    """SeedSequence's hashmix over uint32 arrays, with its running hash
    constant starting at const."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const
        return value ^ value >> 16
    return hashmix


def _seed_sequence_words(entropy):
    """SeedSequence(row).generate_state(8) for each row of an (N, E)
    uint32 entropy array with E >= 4 (the pool size): eight uint32 arrays,
    the little-endian words of generate_state(4, np.uint64).  uint32 numpy
    arithmetic wraps like the reference's."""
    hashmix = _hashmix(_INIT_A, _MULT_A)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    pool = [hashmix(column) for column in entropy.T[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for column in entropy.T[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(column))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    return [hashmix(pool[i % 4]) for i in range(8)]


def _seed_states(seed, subject_id, frame_ids) -> bytes:
    """SeedSequence([seed, *key words]).generate_state(4, np.uint64) of
    _query_rng(seed, subject_id, f) for each f, as 32 little-endian bytes
    per row: one SHA-256 per row, then one array pass over all rows."""
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"seed {seed} is negative")
    key = bytearray(16 * len(frame_ids))
    for r, frame_id in enumerate(frame_ids):
        key[16 * r:16 * r + 16] = hashlib.sha256(
            f"{subject_id}/{frame_id}".encode()).digest()[:16]
    words = np.frombuffer(key, "<u4").reshape(-1, 4)
    entropy = np.hstack([np.tile(np.array(_limbs(seed), np.uint32),
                                 (len(words), 1)), words])
    return np.stack(_seed_sequence_words(entropy), axis=1).astype("<u4").tobytes()


def _pcg64_dict(state, inc) -> dict:
    """PCG64.state for the 128-bit state and increment."""
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


# _PCG64_MULT as uint64 words, and the 32-bit limbs of its low word
_MULT_HI = np.uint64(_PCG64_MULT >> 64)
_MULT_LO = np.uint64(_PCG64_MULT & _M64)
_MULT_LIMBS = (np.uint64(_PCG64_MULT & _M32), np.uint64(_PCG64_MULT >> 32 & _M32))


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's step, state MULT + inc mod 2**128, on uint64 columns of
    (high, low) words.  The high word of lo times the multiplier's low
    word is summed from 32-bit limbs."""
    b0, b1 = _MULT_LIMBS
    a0, a1 = lo & _M32, lo >> 32
    low = a0 * b0
    mid = a1 * b0 + (low >> 32)
    cross = a0 * b1 + (mid & _M32)
    carry = a1 * b1 + (mid >> 32) + (cross >> 32)
    new_lo = lo * _MULT_LO + inc_lo
    return (hi * _MULT_LO + lo * _MULT_HI + carry + inc_hi + (new_lo < inc_lo),
            new_lo)


def _pcg64_columns(words):
    """Seeded PCG64 states for the rows of an (N, 4) uint64 array of words
    (state hi, state lo, seq hi, seq lo), inc = 2 seq + 1 and state = (inc +
    state) MULT + inc mod 2**128, as columns state hi, lo and inc hi, lo."""
    state_hi, state_lo, seq_hi, seq_lo = words.T
    inc_hi = seq_hi << 1 | seq_lo >> 63
    inc_lo = seq_lo << 1 | 1
    lo = state_lo + inc_lo
    return (*_lcg_step(state_hi + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo),
            inc_hi, inc_lo)


def _fast_normals(columns, count, tables):
    """(values, fast): count Generator.normal() draws per row of PCG64
    columns, valid where fast, that is where every draw of the row takes
    the ziggurat's fast path under tables (see _ziggurat_tables; None
    makes no row fast).

    Each step's XSL-RR output r is one draw, as numpy's
    random_standard_normal takes it: layer r & 0xff, sign bit 8, rabs the
    52 bits above, z = +-rabs wi[layer], fast while rabs < bound[layer];
    random_normal then returns loc + scale z with loc 0 and scale 1.
    """
    hi, lo, inc_hi, inc_lo = columns
    values = np.empty((len(hi), count))
    if tables is None:
        return values, np.zeros(len(hi), bool)
    wi, bound = tables
    fast = np.ones(len(hi), bool)
    for k in range(count):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        r = (x >> rot) | (x << ((64 - rot) & 63))
        layer = (r & 0xff).astype(np.intp)
        rabs = r >> 9 & _M52
        fast &= rabs < bound[layer]
        z = rabs * wi[layer] * (1.0 - (r >> 7 & 2))  # -1.0 z is -z
        values[:, k] = 0.0 + 1.0 * z
    return values, fast


def _pcg64_normals(columns, rows, count) -> np.ndarray:
    """(len(rows), count): count Generator.normal() draws for each of the
    given rows of PCG64 columns, by one PCG64 set to the row's state."""
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    values = np.empty((len(rows), count))
    for k, (hi, lo, inc_hi, inc_lo) in enumerate(
            zip(*(column[rows].tolist() for column in columns))):
        bits.state = _pcg64_dict(hi << 64 | lo, inc_hi << 64 | inc_lo)
        values[k] = gen.normal(size=count)
    return values


def _probed_tables():
    """(wi, bound): the layer widths of numpy's ziggurat normal sampler and
    a fast-path bound per layer, read from the installed numpy.

    wi[i] is Generator.normal() of a forced raw output with layer i and
    rabs 1.  Layers 0 (the tail) and 1 always leave the fast path here
    (bound 0).  For the others, with x = wi 2**52 the widths of the
    layers, bound[i] = x[i-1] / x[i] 2**52 estimates numpy's threshold;
    it is kept only if a draw at rabs bound[i] - 1 returns its fast value
    on one raw output, else bound[i] is 0.
    """
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    inverse = pow(_PCG64_MULT, -1, 1 << 128)

    def draw(raw):
        # a state with high word 0 outputs its low word unrotated
        bits.state = _pcg64_dict((raw - 1) * inverse & _M128, 1)
        value = gen.normal()
        return value, bits.state["state"]["state"] == raw

    wi = np.array([draw(1 << 9 | i)[0] for i in range(256)])
    x = wi * 2.0 ** 52
    bound = np.zeros(256, np.uint64)
    for i in range(2, 256):
        b = int(x[i - 1] / x[i] * 2.0 ** 52)
        if 0 < b <= 1 << 52 and draw((b - 1) << 9 | i) == ((b - 1) * wi[i], True):
            bound[i] = b
    return wi, bound


@functools.cache
def _ziggurat_tables():
    """_probed_tables, derived once per process, or None if _fast_normals
    on them differs from Generator.normal anywhere in the fast rows of 256
    streams of 12 draws (every layer >= 2 takes the fast path in them)."""
    wi, bound = _probed_tables()
    columns = _pcg64_columns(np.random.PCG64(0).random_raw(4 * 256).reshape(-1, 4))
    values, fast = _fast_normals(columns, 12, (wi, bound))
    rows = np.flatnonzero(fast)
    same = _pcg64_normals(columns, rows, 12).tobytes() == values[rows].tobytes()
    return (wi, bound) if same else None


def _stream_vectors(seed, subject_id, frame_ids, depth) -> np.ndarray:
    """(N, depth, 3): the first depth _random_unit_vector draws of
    _query_rng(seed, subject_id, f) for each frame id f.

    The SeedSequence and PCG64 states of all rows come from one array
    pass, and so do the normals of every row whose draws all take the
    ziggurat's fast path (_fast_normals); _pcg64_normals draws the others.
    A row with a draw at most _MIN_NORM long, which the scalar path would
    draw again, is taken from _query_rng instead.
    """
    columns = _pcg64_columns(np.frombuffer(
        _seed_states(seed, subject_id, frame_ids), "<u8").reshape(-1, 4))
    raw, fast = _fast_normals(columns, depth * 3, _ziggurat_tables())
    slow = np.flatnonzero(~fast)
    raw[slow] = _pcg64_normals(columns, slow, depth * 3)
    raw = raw.reshape(-1, depth, 3)
    norms = row_norms(raw)  # as _random_unit_vector's np.linalg.norm
    vectors = raw / norms
    for r in np.flatnonzero((norms <= _MIN_NORM).any(axis=(1, 2))):
        rng = _query_rng(seed, subject_id, frame_ids[r])
        vectors[r] = [_random_unit_vector(rng) for _ in range(depth)]
    return vectors


def _unit_vectors(batch, seed) -> np.ndarray:
    """(N, 2, 3): the first two unit vectors of each query's stream, the
    most a perturbation draws (rotation axis, translation direction).

    The vectors are kept in batch.streams under the seed, so estimators with
    equal seeds derive each stream once.
    """
    if seed not in batch.streams:
        batch.streams[seed] = _stream_vectors(seed, batch.subject_id,
                                              batch.frame_ids, 2)
    return batch.streams[seed]


class NoiseModel(Record):
    base_deg: float = 0.0
    slope_deg_per_deg: float = 0.0
    trans_noise_mm: float = 0.0
    seed: int = 0

    def __post_init__(self):
        whole("seed", self.seed)
        if not all(0 <= v < math.inf for v in (self.base_deg, self.slope_deg_per_deg,
                                               self.trans_noise_mm)):
            raise DomainError("noise parameters must be finite and non-negative")
        # a query's distance or gap is at most 180 deg
        if not math.isfinite(self.base_deg + self.slope_deg_per_deg * 180.0):
            raise DomainError(f"noise magnitude base_deg {self.base_deg} + "
                              f"slope_deg_per_deg {self.slope_deg_per_deg} x 180 "
                              f"deg is not finite")


def _perturb(pose: SE3Pose, magnitude_deg: float, trans_mm: float, rng) -> SE3Pose:
    rot = pose.rotation
    if magnitude_deg > 0:
        axis = _random_unit_vector(rng)
        rot = Rotation.from_axis_angle(axis, math.radians(magnitude_deg)) * rot
    t = pose.translation
    if trans_mm > 0:
        t = t + trans_mm * _random_unit_vector(rng)
    return SE3Pose(rot, t, pose.frame_tag)


def _perturb_many(batch, pose, magnitudes, nm: NoiseModel):
    """_perturb over the rows of a pose array, drawing from the batch's
    shared streams."""
    quats, translations = pose
    rotated = magnitudes > 0
    moved = nm.trans_noise_mm > 0
    if not (moved or rotated.any()):
        return quats, translations
    vectors = _unit_vectors(batch, nm.seed)
    rows = np.flatnonzero(rotated)
    if rows.size:
        quats = quats.copy()
        noise = axis_angle_many(vectors[rows, 0], np.radians(magnitudes[rows]))
        quats[rows] = multiply_many(noise, quats[rows])
    if moved:
        # a row's translation direction follows its rotation axis, if any
        direction = vectors[np.arange(len(rotated)), rotated.astype(int)]
        translations = translations + nm.trans_noise_mm * direction
    return quats, translations


def simulate_absolute(truth: SE3Pose, nm: NoiseModel, canonical_ref: Rotation,
                      rng) -> SE3Pose:
    """Noisy absolute prediction; error grows with distance from the canonical
    reference orientation."""
    mag = nm.base_deg + nm.slope_deg_per_deg * geodesic_deg(truth.rotation,
                                                            canonical_ref)
    return _perturb(truth, mag, nm.trans_noise_mm, rng)


def simulate_relative(anchor: SE3Pose, query: SE3Pose, nm: NoiseModel,
                      rng) -> SE3Pose:
    """Noisy relative transform; error grows with the anchor-query gap."""
    gap = geodesic_deg(anchor.rotation, query.rotation)
    mag = nm.base_deg + nm.slope_deg_per_deg * gap
    return _perturb(relative(query, anchor), mag, nm.trans_noise_mm, rng)


class AbsoluteSimEstimator:
    """Absolute pose-level estimator with distance-proportional noise."""

    def __init__(self, id, noise: NoiseModel, canonical_ref: Rotation = None):
        self.id = id
        self.noise = noise
        self.canonical_ref = canonical_ref or Rotation.identity()

    def predict(self, batch):
        """simulate_absolute for every row of a harness.QueryBatch, each
        row on its query's stream, as a pose array."""
        nm = self.noise
        distance = geodesic_deg_many(batch.query[0], self.canonical_ref.quat)
        return _perturb_many(batch, batch.query,
                             nm.base_deg + nm.slope_deg_per_deg * distance, nm)


class RelativeSimEstimator:
    """Relative pose-level estimator with gap-proportional noise."""

    def __init__(self, id, noise: NoiseModel):
        self.id = id
        self.noise = noise

    def predict(self, batch):
        """simulate_relative for every row of a harness.QueryBatch, each
        row on its query's stream, composed onto the row's batch.anchor
        (as geometry.apply_anchor): absolute poses, as a pose array."""
        nm = self.noise
        gap = geodesic_deg_many(batch.anchor_truth[0], batch.query[0])
        rel = compose_many(batch.query, inverse_many(batch.anchor_truth))
        return compose_many(_perturb_many(
            batch, rel, nm.base_deg + nm.slope_deg_per_deg * gap, nm), batch.anchor)


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


def sample_logs(sampler: PoseSampler) -> list:
    """Deterministic synthetic logs; frame 0 of each log is the identity pose
    so fixed-anchor policies and neutral-reference selection are well posed.

    Each later frame takes six uniform draws in order (yaw, pitch, roll
    and the three translation components), log after log, from one
    generator; one broadcast draw returns them all in that order.
    """
    rng = np.random.default_rng(sampler.seed)
    n = sampler.frames_per_log - 1
    lows, highs = zip(sampler.yaw_range, sampler.pitch_range, sampler.roll_range,
                      *[sampler.trans_range_mm] * 3)
    draws = rng.uniform(lows, highs, size=(sampler.subjects, n, 6))
    ids = [f"f{i:04d}" for i in range(n + 1)]
    identity = np.array([[1.0, 0.0, 0.0, 0.0]])
    return [PoseLog(
        f"subj{s:03d}", ids,
        np.vstack([identity, rotation_from_euler_many(draws[s, :, :3])]),
        np.vstack([np.zeros((1, 3)), draws[s, :, 3:]]), "world")
        for s in range(sampler.subjects)]


def load_predictions_csv(path) -> PoseLog:
    """The prediction table (a PoseLog keyed by query id, as written) of a
    CSV of (query_id, qw, qx, qy, qz, tx, ty, tz) rows.  ParseError naming
    the line of a duplicate id, a non-finite number or a zero or
    overflowing quaternion, and '<path>: no records' for a file without."""
    ids, numbers = prediction_rows(path)
    values = np.frombuffer(numbers).reshape(-1, 7)
    with named_by(path):  # an id a CSV row cannot hold
        return PoseLog("predictions", ids, values[:, :4], values[:, 4:])
