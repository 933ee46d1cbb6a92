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
SHA-256("subject_id/frame_id")]), yielding unit vectors in order (each a
Generator.normal(size=3) draw over its norm, drawn again while that is at
most _MIN_NORM): the rotation axis when the magnitude is > 0, then the
translation direction when trans_noise_mm > 0.  Estimators with equal
seeds therefore draw the same vectors, and each estimator's predict
derives each query's stream once per batch and seed and shares its
vectors between them.

A batch's streams are drawn in one array pass over uint64 columns: the
SeedSequence hash (_seed_states, the one place a query's key is hashed:
sampling.generate_state on uint32 columns, one per entropy word), PCG64's
seeding step and steps (128-bit states as high and low words, the high
word of a product from 32-bit limbs), the XSL-RR outputs, and the fast
path of numpy's ziggurat normal sampler (Marsaglia & Tsang, JSS 2000),
which about 98% of draws take.  Its tables are probed from the installed
numpy at first use and checked on a few thousand draws
(_ziggurat_tables).  Every draw off the array pass comes from
_row_generators, one PCG64 set to a row's state in the columns: the
check's, each row with a draw off the fast path (layer 0, layer 1, or
rabs at or above its layer's bound; every row if the check failed), and
each row with a vector at most _MIN_NORM long, whose vectors are drawn
again as the stream draws them.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

from .errors import DomainError, whole
from .geometry import (axis_angle_many, compose_many, geodesic_deg_many,
                       inverse_many, multiply_many, row_norms)
from .poselog import PoseLog
from .records import Record
from .rotation import Rotation
from .sampling import PCG64_MULT, generate_state, limbs, pose_rows
from .tables import named_by, prediction_rows


_MIN_NORM = 1e-12  # a normal draw this short is drawn again


def _random_unit_vector(rng):
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > _MIN_NORM:
            return v / n


_M32 = 0xFFFFFFFF
_M52 = (1 << 52) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1


def _seed_states(seed, subject_id, frame_ids) -> bytes:
    """SeedSequence([seed, *key words]).generate_state(4, np.uint64) of
    the stream of (seed, subject_id, f) for each frame id f, as 32
    little-endian bytes per row: one SHA-256 per row, then one array pass
    over all rows."""
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"seed {seed} is negative")
    sha256 = hashlib.sha256
    key = b"".join([sha256(f"{subject_id}/{frame_id}".encode()).digest()[:16]
                    for frame_id in frame_ids])
    words = np.frombuffer(key, "<u4").reshape(-1, 4)
    entropy = [np.full(len(words), limb, np.uint32) for limb in limbs(seed)]
    return np.stack(generate_state(entropy + list(words.T)),
                    axis=1).astype("<u4").tobytes()


# PCG64_MULT as uint64 words, and the 32-bit limbs of its low word
_MULT_HI = np.uint64(PCG64_MULT >> 64)
_MULT_LO = np.uint64(PCG64_MULT & _M64)
_MULT_LIMBS = (np.uint64(PCG64_MULT & _M32), np.uint64(PCG64_MULT >> 32 & _M32))


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
    the ziggurat's fast path under tables (see _ziggurat_tables; zero
    bounds make no row fast).

    Each step's XSL-RR output r is one draw, as numpy's
    random_standard_normal takes it: layer r & 0xff, sign bit 8, rabs the
    52 bits above, z = +-rabs wi[layer], fast while rabs < bound[layer];
    random_normal then returns loc + scale z with loc 0 and scale 1.
    """
    hi, lo, inc_hi, inc_lo = columns
    values = np.empty((len(hi), count))
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


def _row_generators(columns, rows=slice(None)):
    """A numpy Generator on one PCG64, set in turn to the state of each of
    the given rows of PCG64 columns (state hi, lo, inc hi, lo): every draw
    off the array pass is made here.  The same Generator is yielded for
    each row, so draw from it before taking the next."""
    gen = np.random.Generator(np.random.PCG64(0))
    for hi, lo, inc_hi, inc_lo in zip(*(column[rows].tolist() for column in columns)):
        gen.bit_generator.state = {
            "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}}
        yield gen


@functools.cache
def _ziggurat_tables():
    """(wi, bound), derived once per process: the layer widths of numpy's
    ziggurat normal sampler and a fast-path bound per layer, read from the
    installed numpy.

    wi[i] is Generator.normal() of a forced raw output with layer i and
    rabs 1.  Layers 0 (the tail) and 1 always leave the fast path here
    (bound 0).  For the others, with x = wi 2**52 the widths of the
    layers, bound[i] = x[i-1] / x[i] 2**52 estimates numpy's threshold;
    it is kept only if a draw at rabs bound[i] - 1 returns its fast value
    on one raw output, else bound[i] is 0.  Every bound is 0 if
    _fast_normals on the tables differs from Generator.normal anywhere in
    the fast rows of 256 streams of 12 draws (every layer >= 2 takes the
    fast path in them).
    """
    inverse = pow(PCG64_MULT, -1, 1 << 128)

    def draws(raws):
        # (value, whether it took raw alone) per raw: with increment 1, the
        # state before raw steps to raw, whose high word 0 outputs its low
        # word unrotated
        states = [(raw - 1) * inverse & _M128 for raw in raws]
        columns = [np.array(words, np.uint64) for words in (
            [s >> 64 for s in states], [s & _M64 for s in states],
            [0] * len(raws), [1] * len(raws))]
        return [(gen.normal(), gen.bit_generator.state["state"]["state"] == raw)
                for raw, gen in zip(raws, _row_generators(columns))]

    wi = np.array([value for value, _ in draws([1 << 9 | i for i in range(256)])])
    x = wi * 2.0 ** 52
    b = {i: int(x[i - 1] / x[i] * 2.0 ** 52) for i in range(2, 256)}
    layers = [i for i, v in b.items() if 0 < v <= 1 << 52]
    bound = np.zeros(256, np.uint64)
    for i, drawn in zip(layers, draws([(b[i] - 1) << 9 | i for i in layers])):
        if drawn == ((b[i] - 1) * wi[i], True):
            bound[i] = b[i]
    columns = _pcg64_columns(np.random.PCG64(0).random_raw(4 * 256).reshape(-1, 4))
    values, fast = _fast_normals(columns, 12, (wi, bound))
    rows = np.flatnonzero(fast)
    if any(gen.normal(size=12).tobytes() != values[r].tobytes()
           for r, gen in zip(rows, _row_generators(columns, rows))):
        bound[:] = 0
    return wi, bound


def _stream_vectors(seed, subject_id, frame_ids, depth) -> np.ndarray:
    """(N, depth, 3): the first depth unit vectors of the stream of (seed,
    subject_id, f) for each frame id f.

    The SeedSequence and PCG64 states of all rows come from one array
    pass, and so do the normals of every row whose draws all take the
    ziggurat's fast path (_fast_normals); _row_generators draws the others.
    A row with a draw at most _MIN_NORM long, which the stream draws again,
    is drawn again from the row's state as _random_unit_vector draws it.
    """
    columns = _pcg64_columns(np.frombuffer(
        _seed_states(seed, subject_id, frame_ids), "<u8").reshape(-1, 4))
    raw, fast = _fast_normals(columns, depth * 3, _ziggurat_tables())
    slow = np.flatnonzero(~fast)
    for r, gen in zip(slow, _row_generators(columns, slow)):
        raw[r] = gen.normal(size=depth * 3)
    raw = raw.reshape(-1, depth, 3)
    norms = row_norms(raw)  # as _random_unit_vector's np.linalg.norm
    vectors = raw / norms
    short = np.flatnonzero((norms <= _MIN_NORM).any(axis=(1, 2)))
    for r, gen in zip(short, _row_generators(columns, short)):
        vectors[r] = [_random_unit_vector(gen) for _ in range(depth)]
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
                              f"deg is not finite", setting="slope_deg_per_deg")
        # a translation error of noise alone is trans_noise_mm times a unit
        # vector; the square of 1e154 leaves room for rounding below the
        # largest float, where a report's squared norm would overflow
        if self.trans_noise_mm > 1e154:
            raise DomainError(f"trans_noise_mm {self.trans_noise_mm} is above 1e154, "
                              f"where a translation error's squared norm can overflow",
                              setting="trans_noise_mm")


def _perturb_many(batch, pose, magnitudes, nm: NoiseModel):
    """The rows of a pose array, each rotated by its magnitude (deg, when
    > 0) about its stream's next unit vector, then moved nm.trans_noise_mm
    along the one after (when > 0): the batch's shared streams."""
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


class AbsoluteSimEstimator:
    """Absolute pose-level estimator with distance-proportional noise."""

    def __init__(self, id, noise: NoiseModel, canonical_ref: Rotation = None):
        self.id = id
        self.noise = noise
        self.canonical_ref = canonical_ref or Rotation.identity()

    def predict(self, batch):
        """Each query of a harness.QueryBatch perturbed on its own stream by
        base_deg + slope_deg_per_deg x its distance from canonical_ref
        (deg), as a pose array."""
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
        """Each row of a harness.QueryBatch: its true anchor-to-query
        transform (geometry.relative) perturbed on the query's own stream
        by base_deg + slope_deg_per_deg x the anchor-query gap (deg), then
        composed onto the row's batch.anchor (as geometry.apply_anchor):
        absolute poses, as a pose array."""
        nm = self.noise
        gap = geodesic_deg_many(batch.anchor_truth[0], batch.query[0])
        # huge translations give inf, which reports refuse
        with np.errstate(over="ignore"):
            rel = compose_many(batch.query, inverse_many(batch.anchor_truth))
            return compose_many(_perturb_many(
                batch, rel, nm.base_deg + nm.slope_deg_per_deg * gap, nm), batch.anchor)


def sample_logs(sampler) -> list:
    """The synthetic logs of a sampling.PoseSampler, as PoseLogs tagged
    "world": the rows of sampling.pose_rows, which `simulate` writes."""
    logs = []
    for subject_id, frame_ids, rows in pose_rows(sampler):
        values = np.array(rows)
        logs.append(PoseLog(subject_id, frame_ids, values[:, :4], values[:, 4:],
                            "world"))
    return logs


def load_predictions_csv(path) -> PoseLog:
    """The prediction table (a PoseLog keyed by query id, as written) of a
    CSV of (query_id, qw, qx, qy, qz, tx, ty, tz) rows.  ParseError naming
    the line of a duplicate id, a non-finite number or a zero or
    overflowing quaternion, and '<path>: no records' for a file without."""
    ids, numbers = prediction_rows(path)
    values = np.frombuffer(numbers).reshape(-1, 7)
    with named_by(path):  # an id a CSV row cannot hold
        return PoseLog("predictions", ids, values[:, :4], values[:, 4:])
