"""The columnar PoseLog: parity of its two constructors, the canonical
reader's messages against a row-by-row reference, round trips through the
file formats, and a guard that the default CLI paths build no per-frame
objects."""

import collections
import contextlib
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relhpe import (PoseLog, Rotation, SE3Pose, export_canonical,
                    ingest_canonical_all)
from relhpe.camera import Intrinsics
from relhpe.cli import main
from relhpe.errors import (DomainError, EmptyInput, InvariantViolation,
                           ParseError, RelHpeError)
from relhpe.harness import csv_rows, finite_floats, row_errors
from relhpe.poselog import FrameRecord

from test_fuzz import mutate

unit = st.floats(-1.0, 1.0, allow_nan=False)
quaternion = st.tuples(unit, unit, unit, unit).filter(
    lambda q: math.sqrt(sum(c * c for c in q)) > 1e-3)
# canonical-sign edge cases: w = 0 with a negative first nonzero component
quaternion |= st.sampled_from([(0.0, -1.0, 0.0, 0.0), (-0.0, 0.0, -0.6, 0.8),
                               (-1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)])
translation = st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 3)
intrinsics = st.none() | st.tuples(
    st.floats(1.0, 5000.0), st.floats(1.0, 5000.0), st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3), st.floats(1.0, 4096.0), st.floats(1.0, 4096.0))
rows = st.lists(st.tuples(quaternion, translation, intrinsics),
                min_size=1, max_size=8)


def bits(values):
    """The exact bits of a sequence of floats (-0.0 differs from 0.0)."""
    return struct.pack(f"<{len(values)}d", *values)


def columns(rows):
    """from_arrays arguments (ids, quats, translations, intrinsics) of
    hypothesis rows."""
    k = [(math.nan,) * 6 if r[2] is None else r[2] for r in rows]
    return ([f"f{i}" for i in range(len(rows))], [r[0] for r in rows],
            [r[1] for r in rows],
            None if all(r[2] is None for r in rows) else k)


def frame_log(rows, tag="world"):
    return PoseLog("s", tuple(
        FrameRecord(f"f{i}", i, SE3Pose(Rotation(*q), t, tag),
                    None if k is None else Intrinsics(*k))
        for i, (q, t, k) in enumerate(rows)), tag)


def assert_same_log(a, b):
    assert (a.subject_id, a.frame_tag, a.frame_ids) == (b.subject_id, b.frame_tag,
                                                        b.frame_ids)
    assert a.quats.tobytes() == b.quats.tobytes()
    assert a.translations.tobytes() == b.translations.tobytes()
    assert (a.intrinsics is None) == (b.intrinsics is None)
    if a.intrinsics is not None:
        assert a.intrinsics.tobytes() == b.intrinsics.tobytes()
    for fa, fb in zip(a.frames, b.frames, strict=True):
        ra, rb = fa.pose.rotation, fb.pose.rotation
        assert bits([ra.w, ra.x, ra.y, ra.z]) == bits([rb.w, rb.x, rb.y, rb.z])
        assert fa.pose.translation.tobytes() == fb.pose.translation.tobytes()
        assert (fa.frame_id, fa.index, fa.pose.frame_tag, fa.intrinsics) == (
            fb.frame_id, fb.index, fb.pose.frame_tag, fb.intrinsics)


# ---------------------------------------------------------------------------
# the two constructors


@given(rows=rows)
def test_from_arrays_equals_the_frames_constructor(rows):
    ids, quats, translations, k = columns(rows)
    log = PoseLog.from_arrays("s", ids, quats, translations, "world", k)
    assert "frames" not in vars(log)  # built on first use only
    assert_same_log(log, frame_log(rows))
    assert log.frames is log.frames


def test_columns_are_read_only_copies():
    quats = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    translations = np.zeros((2, 3))
    log = PoseLog.from_arrays("s", ["a", "b"], quats, translations)
    assert quats.flags.writeable and translations.flags.writeable
    for column in (log.quats, log.translations):
        with pytest.raises(ValueError):
            column[0, 0] = 5.0
    # a frame's translation is its own array, not a view of the column
    log.frames[0].pose.translation[0] = 1.0
    assert log.translations[0, 0] == 0.0


@pytest.mark.parametrize("change, error, match", [
    ({"frame_ids": []}, EmptyInput, "no frames"),
    ({"frame_ids": ["a", "a"]}, InvariantViolation, "duplicate frame ids"),
    ({"frame_ids": ["a", "#b"]}, InvariantViolation, "cannot be written"),
    ({"subject_id": "s,1"}, InvariantViolation, "cannot be written"),
    ({"frame_tag": "a b"}, InvariantViolation, "frame tag"),
    ({"quats": [[1, 0, 0, 0], [0, 0, 0, 0]]}, DomainError, "quaternion norm"),
    ({"translations": [[0, 0, 0], [0, math.inf, 0]]}, DomainError,
     "frame 'b': translation .* is not finite"),
    ({"intrinsics": [[math.nan] * 6, [5, -5, 3, 2, 6, 4]]}, DomainError,
     "focal lengths"),
    ({"intrinsics": [[math.nan] * 6, [5, 5, 3, 2, 6, math.nan]]}, DomainError,
     "image dimensions"),
])
def test_from_arrays_checks(change, error, match):
    args = {"subject_id": "s", "frame_ids": ["a", "b"],
            "quats": [[1, 0, 0, 0]] * 2, "translations": [[0, 0, 0]] * 2,
            "frame_tag": "world", "intrinsics": None, **change}
    with pytest.raises(error, match=match):
        PoseLog.from_arrays(**args)


# ---------------------------------------------------------------------------
# the canonical reader against the row-by-row reference


def reference_ingest(path):
    """The row-by-row canonical reader that the columnar one replaced,
    kept as the oracle for its results and messages."""
    frame_tag = "world"
    with open(path, encoding="utf-8", errors="replace") as fh:
        first = fh.readline().rstrip("\n")
    if not first.startswith("# poselog"):
        raise ParseError(f"{path}: missing '# poselog' header line")
    header = first.split()
    if len(header) < 3 or header[2] != "v1":
        raise ParseError(f"{path}: unsupported format version in header: {first!r}")
    for tok in header[3:]:
        if tok.startswith("frame="):
            frame_tag = tok[len("frame="):]
    by_subject, seen = {}, {}
    for lineno, cols in csv_rows(path, (10, 16)):
        subject, frame_id = cols[0], cols[1]
        with row_errors(path, lineno):
            index = int(cols[2])
            vals = finite_floats(cols[3:])
            qw, qx, qy, qz = vals[0:4]
            norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
            if not abs(norm - 1.0) <= 1e-3:
                raise InvariantViolation(
                    f"{path}:{lineno}: quaternion norm {norm:.6f} deviates "
                    f"from 1 by more than 1e-3")
            pose = SE3Pose(Rotation(qw, qx, qy, qz), vals[4:7], frame_tag)
            intr = Intrinsics(*vals[7:13]) if len(vals) == 13 else None
        frames = by_subject.setdefault(subject, [])
        ids = seen.setdefault(subject, set())
        if frame_id in ids:
            raise ParseError(f"{path}:{lineno}: duplicate frame id {frame_id!r} "
                             f"in log {subject!r}")
        if index != len(frames):
            raise ParseError(f"{path}:{lineno}: log {subject!r}: frame {frame_id!r} "
                             f"has index {index}, expected {len(frames)}")
        ids.add(frame_id)
        frames.append(FrameRecord(frame_id, index, pose, intr))
    if not by_subject:
        raise ParseError(f"{path}: no records")
    try:
        return [PoseLog(s, frames, frame_tag) for s, frames in by_subject.items()]
    except InvariantViolation as exc:
        raise InvariantViolation(f"{path}: {exc}") from exc


def outcome(read, path):
    """(logs, None) or (None, (error type, message)) of read(path)."""
    try:
        return read(path), None
    except RelHpeError as exc:
        return None, (type(exc), str(exc))


def assert_reads_like_reference(path):
    logs, error = outcome(ingest_canonical_all, path)
    want_logs, want_error = outcome(reference_ingest, path)
    assert error == want_error
    if logs is not None:
        for log, want in zip(logs, want_logs, strict=True):
            assert_same_log(log, want)


GOOD = ["s,f0,0,1,0,0,0,1.5,2,3", "s,f1,1,0,1,0,0,0,0,0,500,510,320,240,640,480",
        "t,g0,0,0.6,0.8,0,0,0,0,0", "s,f2,2,0.5,0.5,0.5,0.5,0,0,0"]
# one fault per row kind, in the order the checks apply to a row
FAULTS = {"index": "s,f9,x,1,0,0,0,0,0,0",
          "float": "s,f9,9,1,0,0,zz,0,0,0",
          "finite": "s,f9,9,1,0,0,0,nan,0,0",
          "norm": "s,f9,9,0.5,0,0,0,0,0,0",
          "huge_norm": "s,f9,9,1e200,0,0,0,0,0,0",
          "intrinsics": "s,f9,3,1,0,0,0,0,0,0,500,510,320,240,-640,480",
          "duplicate": "s,f0,3,1,0,0,0,0,0,0",
          "order": "s,f9,7,1,0,0,0,0,0,0",
          "width": "s,f9,3,1,0,0,0,0,0",
          "id": "s, #f9,3,1,0,0,0,0,0,0"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("first", sorted(FAULTS))
@pytest.mark.parametrize("second", sorted(FAULTS))
def test_first_bad_row_is_named(first, second, tmp_path):
    """Two different bad rows: the reader names the earlier one, with the
    reference's message and error type; the CLI exits 2 with that line."""
    path = tmp_path / "log.csv"
    path.write_text("# poselog v1 frame=world\n" + "\n".join(
        GOOD + [FAULTS[first], "t,g1,1,1,0,0,0,0,0,0", FAULTS[second]]) + "\n")
    assert_reads_like_reference(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(["--out", str(tmp_path / "out"), "ingest", str(path)]) == 2
    _, (_, message) = outcome(reference_ingest, path)
    assert err.getvalue() == f"error: {message}\n"
    if first != "id":  # an unwritable id is found once every row is read
        assert f"log.csv:{len(GOOD) + 2}:" in message


LOG_TOKENS = [b",", b"\n", b"#", b'"', b"nan", b"1e400", b"\xff", b"-", b"9",
              b"0", b"f1", b" ", b"x"]


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                                st.integers(0, 10 ** 6), st.sampled_from(LOG_TOKENS)),
                      min_size=1, max_size=4))
def test_mutated_logs_read_like_the_reference(edits, tmp_path):
    path = tmp_path / "log.csv"
    body = ("\n".join(GOOD) + "\n").encode()
    path.write_bytes(b"# poselog v1 frame=world\n" + mutate(body, edits))
    assert_reads_like_reference(path)


# ---------------------------------------------------------------------------
# round trips


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(subjects=st.lists(rows, min_size=1, max_size=3))
def test_export_ingest_export_is_byte_stable(subjects, tmp_path):
    logs = []
    for s, subject_rows in enumerate(subjects):
        ids, quats, translations, k = columns(subject_rows)
        logs.append(PoseLog.from_arrays(f"s{s}", ids, quats, translations, "rgb", k))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    export_canonical(logs, first)
    back = ingest_canonical_all(first)
    export_canonical(back, second)
    assert first.read_bytes() == second.read_bytes()
    for log, again in zip(logs, back, strict=True):
        assert_same_log(log, again)


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main([str(a) for a in argv])


@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32), frames=st.integers(2, 40),
       kind=st.sampled_from(["easy", "hard"]))
def test_pairs_then_eval_on_the_truth_scores_zero(seed, frames, kind, tmp_path):
    out = tmp_path / f"{seed}_{frames}_{kind}"
    assert run(["--seed", seed, "--out", out, "simulate", "--subjects", 1,
                "--frames-per-log", frames]) == 0
    log_path = out / "simulated_poselog.csv"
    thresholds = (["--neutral-thresh-deg", 1000, "--max-gap-deg", 180]
                  if kind == "easy" else
                  ["--neutral-thresh-deg", 1000, "--extreme-thresh-deg", 0])
    assert run(["--seed", seed, "--out", out, "pairs", log_path,
                "--pair-kind", kind, *thresholds]) == 0
    log = ingest_canonical_all(log_path)[0]
    preds = out / "preds.csv"
    preds.write_text("query_id,qw,qx,qy,qz,tx_mm,ty_mm,tz_mm\n" + "".join(
        ",".join([f, *map(repr, q), *map(repr, t)]) + "\n"
        for f, q, t in zip(log.frame_ids, log.quats.tolist(),
                           log.translations.tolist())))
    assert run(["--out", out, "eval", log_path, out / "pairs_subj000.csv",
                preds]) == 0
    with open(out / "eval.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["payload"]["external"]
    assert metrics.pop("n") > 0
    assert set(metrics.values()) == {0.0}, metrics


# ---------------------------------------------------------------------------
# no per-frame objects on the default paths


SUBJECTS, FRAMES = 4, 200


def test_default_paths_build_no_per_frame_objects(tmp_path, monkeypatch):
    """simulate, sweep under each policy and both pair kinds build O(subjects)
    FrameRecord, SE3Pose and Rotation objects, not O(frames)."""
    built = collections.Counter()
    for cls in (FrameRecord, SE3Pose, Rotation):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built[type(self).__name__] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    log = tmp_path / "simulated_poselog.csv"
    commands = {
        "simulate": ["simulate", "--subjects", SUBJECTS, "--frames-per-log", FRAMES],
        "pairs hard": ["pairs", log, "--pair-kind", "hard"],
        "pairs easy": ["pairs", log, "--pair-kind", "easy",
                       "--neutral-thresh-deg", 60, "--max-gap-deg", 30],
        **{f"sweep {policy}": ["sweep", log, "--policy", policy]
           for policy in ("fixed_first", "temporal_previous")},
        **{f"sweep nearest_within {axis}": [
            "sweep", log, "--policy", "nearest_within", "--threshold-deg", 10,
            "--axis", axis] for axis in ("anchor_query_gap", "absolute_query_pose")},
    }
    for name, argv in commands.items():
        built.clear()
        assert run(["--out", tmp_path, *argv]) == 0, name
        assert sum(built.values()) <= 2 * SUBJECTS, (name, dict(built))
    assert sum(map(len, ingest_canonical_all(log))) == SUBJECTS * FRAMES
