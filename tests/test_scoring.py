"""The standard-library eval path (relhpe.scoring) against the numpy one.

score_pairs over read_truth and read_predictions must equal harness.score
of a TableEstimator over pair_batch bit for bit, in every MetricReport
field, and metric_report must equal harness.report_from_samples on the
same error rows: the means add in numpy's orders.  The stdlib readers
must accept and refuse what ingest_canonical and load_predictions_csv do,
with the same messages.  Draws are derandomized.
"""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relhpe import (PairSet, TableEstimator, ingest_canonical,
                    load_predictions_csv, pair_batch, score)
from relhpe.errors import InvariantViolation, RelHpeError
from relhpe.geometry import rotation_from_euler_many
from relhpe.harness import report_from_samples
from relhpe.scoring import (metric_report, read_predictions, read_truth,
                            score_pairs)

from test_fuzz import EDITS, mutate

# pair counts around the pairwise sum's edges: below 8, a multiple of 8,
# one block of 128 and one more, above 256 and not a multiple of 8
SIZES = [0, 1, 5, 8, 16, 128, 129, 267, 1001]

DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None,
                        max_examples=40)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cells(values):
    return ",".join(map(repr, values))


def _inputs(root, seed, n_frames, n_pairs, lock, wrap):
    """Write a truth log and a predictions CSV under root; the pairs as
    (anchor_id, query_id, 0.0) tuples.  Truth rows are off unit norm by up
    to 5e-4, prediction rows scaled and sign-flipped; lock sets some
    pitches to +-89..90 deg, wrap puts prediction yaws near 180 deg off."""
    rng = np.random.default_rng(seed)
    euler = rng.uniform([-180, -90, -180], [180, 90, 180], (n_frames, 3))
    if lock:
        euler[::2, 1] = rng.choice([-1, 1], len(euler[::2])) * rng.uniform(
            89.0, 90.0, len(euler[::2]))
    pred_euler = euler + rng.normal(0.0, 2.0, euler.shape)
    if wrap:
        pred_euler[:, 0] = euler[:, 0] + rng.choice([-1, 1], n_frames) * (
            180.0 - rng.uniform(0.0, 0.5, n_frames))
    quats = rotation_from_euler_many(euler) * rng.uniform(
        1 - 5e-4, 1 + 5e-4, (n_frames, 1))
    pred_quats = rotation_from_euler_many(pred_euler) * rng.choice(
        [-3.0, -0.5, 0.25, 1.0, 2.0], (n_frames, 1))
    scales = 10.0 ** rng.integers(-3, 7, (n_frames, 3))
    t = rng.normal(size=(n_frames, 3)) * scales
    pred_t = t + rng.normal(size=(n_frames, 3)) * scales[::-1]
    ids = [f"f{i}" for i in range(n_frames)]
    _write(os.path.join(root, "truth.csv"), "# poselog v1 frame=world\n" + "".join(
        f"s,{f},{i},{_cells(q)},{_cells(v)}\n"
        for i, (f, q, v) in enumerate(zip(ids, quats.tolist(), t.tolist()))))
    _write(os.path.join(root, "preds.csv"), "query_id,qw,qx,qy,qz,tx,ty,tz\n" + "".join(
        f"{f},{_cells(q)},{_cells(v)}\n"
        for f, q, v in zip(ids, pred_quats.tolist(), pred_t.tolist())))
    picks = rng.integers(0, n_frames, (n_pairs, 2)).tolist()
    return [(ids[a], ids[q], 0.0) for a, q in picks]


@DIFFERENTIAL
@given(seed=st.integers(0, 2 ** 32 - 1), n_frames=st.integers(1, 40),
       n_pairs=st.sampled_from(SIZES), lock=st.booleans(), wrap=st.booleans())
@example(seed=0, n_frames=3, n_pairs=0, lock=False, wrap=False)
@example(seed=1, n_frames=40, n_pairs=1001, lock=True, wrap=True)
def test_score_pairs_equals_harness_score(seed, n_frames, n_pairs, lock, wrap):
    with tempfile.TemporaryDirectory() as root:
        pairs = _inputs(root, seed, n_frames, n_pairs, lock, wrap)
        truth_path, preds_path = (os.path.join(root, name)
                                  for name in ("truth.csv", "preds.csv"))
        truth, preds = ingest_canonical(truth_path), load_predictions_csv(preds_path)
        want = score([TableEstimator("external", preds)],
                     [pair_batch(truth, PairSet("p", tuple(pairs), 0))])["external"]
        got = score_pairs(pairs, read_truth(truth_path), read_predictions(preds_path))
    assert repr(got) == repr(want)
    assert got.n == n_pairs
    assert (got.t_mae_mm is None) == (n_pairs == 0)


# magnitudes far apart, so that another summation order changes the sum;
# translation differences of 1e308 overflow the sums
_ANGLES = st.sampled_from([0.0, 1e-16, 1e-3, 1.0, 3.3, 179.9, 7e5, 1e16])
_DTS = st.sampled_from([0.0, -1e-16, 1e-3, -1.0, 3.3, -7e5, 1e16, -1e308, 1e308])


@DIFFERENTIAL
@given(n=st.sampled_from(SIZES), angles=st.lists(_ANGLES, min_size=1, max_size=64),
       dts=st.lists(_DTS, min_size=1, max_size=64))
@example(n=3, angles=[1.0], dts=[1e308, -1e308])
def test_metric_report_equals_report_from_samples(n, angles, dts):
    rows = [tuple(angles[(4 * i + j) % len(angles)] for j in range(4))
            + tuple(dts[(3 * i + j) % len(dts)] for j in range(3))
            for i in range(n)]
    want = report_from_samples(np.array([row[:4] for row in rows]).reshape(-1, 4),
                               np.array([row[4:] for row in rows]).reshape(-1, 3))
    assert repr(metric_report(rows)) == repr(want)


def test_overflowing_translations_give_inf():
    rows = [(0.0, 0.0, 0.0, 0.0, math.inf, 0.0, 0.0)] * 3 + [(1.0,) * 4 + (1e308,) * 3]
    report = metric_report(rows)
    assert report.t_mae_mm[0] == report.t_l2_mm == math.inf


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """The bytes of a small truth log and of a predictions CSV of it."""
    root = tmp_path_factory.mktemp("sources")
    _inputs(root, 3, 6, 0, True, False)
    _write(root / "wide.csv", "# poselog v1 frame=rgb\n"
           "s,f0,0,1.0,0.0,0.0,0.0,1.0,2.0,3.0,500,510,320,240,640,480\n"
           "s,f1,1,0.0,0.0,1.0,0.0,1.0,2.0,3.0\n")
    return {name: (root / name).read_bytes()
            for name in ("truth.csv", "preds.csv", "wide.csv")}


def _outcome(read, path):
    """What read(path) gives, as comparable values, or its error."""
    try:
        return read(path)
    except RelHpeError as exc:
        return type(exc), str(exc)


def _rows(table, ids):
    return [(f, *table.pose(f)) for f in ids]


@pytest.mark.parametrize("name", ["truth.csv", "wide.csv", "preds.csv"])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(edits=EDITS)
@example(edits=[])
def test_readers_accept_and_refuse_alike(name, sources, edits):
    """A mutated truth log or predictions CSV gives the same poses through
    both readers, or the same error."""
    numpy_read, stdlib_read = ((load_predictions_csv, read_predictions)
                               if name == "preds.csv" else
                               (ingest_canonical, read_truth))
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, name)
        with open(path, "wb") as fh:
            fh.write(mutate(sources[name], edits))
        want, got = _outcome(numpy_read, path), _outcome(stdlib_read, path)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert got.subject_id == want.subject_id
    assert list(got.positions) == list(want.frame_ids)
    assert _rows(got, want.frame_ids) == [
        (f, tuple(q), tuple(t)) for f, q, t in zip(
            want.frame_ids, want.quats.tolist(), want.translations.tolist())]


@pytest.mark.parametrize("body, message", [
    ('s,"f,0",0,1,0,0,0,0,0,0\n',
     "frame id 'f,0' starts with '#' or '\"' or holds a comma or line break, "
     "so it cannot be written to a CSV row"),
    ("a,f0,0,1,0,0,0,0,0,0\nb,f0,0,1,0,0,0,0,0,0\n", None),
])
def test_truth_errors_are_worded_alike(body, message, tmp_path):
    """A quoted id holding a comma is an InvariantViolation naming the
    file, and a second subject is refused, by both readers alike."""
    path = tmp_path / "truth.csv"
    path.write_text("# poselog v1 frame=world\n" + body)
    want = _outcome(ingest_canonical, path)
    assert _outcome(read_truth, path) == want
    if message is None:
        assert want[1] == f"{path}: expected one subject, found 2"
    else:
        assert want == (InvariantViolation, f"{path}: {message}")
