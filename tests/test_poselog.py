"""The columnar PoseLog: its columns and frames view against the scalar
objects, the canonical reader's messages against a row-by-row reference,
round trips through the file formats, and a guard that the default CLI
paths build no per-frame objects."""

import collections
import contextlib
import csv
import io
import json
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from relhpe import (PoseLog, Rotation, SE3Pose, export_canonical,
                    ingest_canonical_all)
from relhpe import reports, scoring, tables
from relhpe.camera import Intrinsics
from relhpe.cli import _read_stage_file, main
from relhpe.errors import (DomainError, EmptyInput, InvariantViolation,
                           ParseError, RelHpeError)
from relhpe.rows import csv_rows, finite_floats, row_errors
from conftest import FrameRecord, frame_records, pose_log, random_pose
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
    """PoseLog column arguments (ids, quats, translations, intrinsics) of
    hypothesis rows."""
    k = [(math.nan,) * 6 if r[2] is None else r[2] for r in rows]
    return ([f"f{i}" for i in range(len(rows))], [r[0] for r in rows],
            [r[1] for r in rows],
            None if all(r[2] is None for r in rows) else k)


def scalar_frames(rows, tag="world"):
    """FrameRecords of hypothesis rows built from scalar Rotation, SE3Pose
    and Intrinsics objects."""
    return tuple(FrameRecord(f"f{i}", i, SE3Pose(Rotation(*q), t, tag),
                             None if k is None else Intrinsics(*k))
                 for i, (q, t, k) in enumerate(rows))


def assert_same_log(a, b):
    assert (a.subject_id, a.frame_tag, a.frame_ids) == (b.subject_id, b.frame_tag,
                                                        b.frame_ids)
    assert a.quats.tobytes() == b.quats.tobytes()
    assert a.translations.tobytes() == b.translations.tobytes()
    assert (a.intrinsics is None) == (b.intrinsics is None)
    if a.intrinsics is not None:
        assert a.intrinsics.tobytes() == b.intrinsics.tobytes()
    assert_same_frames(frame_records(a), frame_records(b))


def assert_same_frames(frames_a, frames_b):
    for fa, fb in zip(frames_a, frames_b, strict=True):
        ra, rb = fa.pose.rotation, fb.pose.rotation
        assert bits([ra.w, ra.x, ra.y, ra.z]) == bits([rb.w, rb.x, rb.y, rb.z])
        assert fa.pose.translation.tobytes() == fb.pose.translation.tobytes()
        assert (fa.frame_id, fa.index, fa.pose.frame_tag, fa.intrinsics) == (
            fb.frame_id, fb.index, fb.pose.frame_tag, fb.intrinsics)


# ---------------------------------------------------------------------------
# the constructor


@given(rows=rows)
def test_frames_view_equals_the_scalar_objects(rows):
    """Each quaternion column row holds Rotation(*row)'s components, and the
    columns read as FrameRecords equal those built from the scalar objects."""
    ids, quats, translations, k = columns(rows)
    log = PoseLog("s", ids, quats, translations, "world", k)
    want = scalar_frames(rows)
    assert bits(log.quats.ravel().tolist()) == bits(
        [c for f in want for c in (f.pose.rotation.w, f.pose.rotation.x,
                                   f.pose.rotation.y, f.pose.rotation.z)])
    assert_same_frames(frame_records(log), want)


def test_columns_are_read_only_copies():
    quats = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    translations = np.zeros((2, 3))
    log = PoseLog("s", ["a", "b"], quats, translations)
    assert quats.flags.writeable and translations.flags.writeable
    for column in (log.quats, log.translations):
        with pytest.raises(ValueError):
            column[0, 0] = 5.0


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
    ({"frame_tag": 'a,"b'}, InvariantViolation, "frame tag"),
])
def test_from_arrays_checks(change, error, match):
    """The checks PoseLog makes on its columns."""
    args = {"subject_id": "s", "frame_ids": ["a", "b"],
            "quats": [[1, 0, 0, 0]] * 2, "translations": [[0, 0, 0]] * 2,
            "frame_tag": "world", "intrinsics": None, **change}
    with pytest.raises(error, match=match):
        PoseLog(**args)


@pytest.mark.parametrize("ids, bad", [
    (["a#b", 'x"y', "ok"], None),
    (["a#b", 'x"y', " #c", "d,e"], " #c"),
    (["a", "b\r", '"c'], "b\r"),
    (["a", "b", "x" * 200000, "#c"], "x" * 20),
])
def test_the_first_bad_frame_id_is_named(ids, bad):
    """The ids are checked in one pass over all of them; an id holding
    '#' or '"' past its start is accepted, and of several bad ids the
    first is named."""
    quats, translations = [[1, 0, 0, 0]] * len(ids), [[0, 0, 0]] * len(ids)
    if bad is None:
        assert PoseLog("s", ids, quats, translations).frame_ids == tuple(ids)
        return
    with pytest.raises(InvariantViolation) as info:
        PoseLog("s", ids, quats, translations)
    assert str(info.value).startswith(f"frame id {bad!r}")


def test_an_id_longer_than_the_csv_field_limit_is_rejected():
    """csv_rows cannot read back a cell longer than csv.field_size_limit(),
    so PoseLog refuses an id or a frame tag that export_canonical would
    write as one, naming the limit it reads when the log is built."""
    limit = csv.field_size_limit()
    match = f"field size limit \\({limit}\\)"
    one = ([[1, 0, 0, 0]], [[0, 0, 0]])
    with pytest.raises(InvariantViolation, match=f"frame id .* {match}"):
        PoseLog("s", ["x" * 200000], *one)
    with pytest.raises(InvariantViolation, match=f"subject id .* {match}"):
        PoseLog("x" * (limit + 1), ["f"], *one)
    with pytest.raises(InvariantViolation, match=f"frame tag .* {match}"):
        PoseLog("s", ["f"], *one, "x" * limit)
    csv.field_size_limit(1000)
    try:
        with pytest.raises(InvariantViolation, match="field size limit \\(1000\\)"):
            PoseLog("s", ["x" * 1001], *one)
        PoseLog("s", ["x" * 1000], *one)
        assert csv.field_size_limit() == 1000  # read, never raised
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("plain", [True, False])
def test_ids_at_the_csv_field_limit_round_trip(plain, tmp_path):
    """Ids of exactly csv.field_size_limit() characters, and a frame tag
    whose header is that long, export and read back, in an ASCII file and
    in one that is not."""
    limit = csv.field_size_limit()
    tag = "t" * (limit - len("# poselog v1 frame="))
    ids = ["f" * limit, "g" if plain else "\u00e9"]
    log = PoseLog("s" * limit, ids, [[1, 0, 0, 0], [0, 1, 0, 0]],
                  [[0, 0, 0], [1, 2, 3]], tag)
    path = tmp_path / "log.csv"
    export_canonical(log, path)
    back, = ingest_canonical_all(path)
    assert_same_log(back, log)


# ---------------------------------------------------------------------------
# the canonical reader against the row-by-row reference


def reference_ingest(path):
    """A canonical reader built from scalar objects row by row, kept as the
    oracle for ingest_canonical_all's results and messages."""
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
        return [pose_log([f.pose for f in frames], s, [f.frame_id for f in frames],
                         [f.intrinsics for f in frames])
                for s, frames in by_subject.items()]
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


@pytest.mark.parametrize("column", range(10, 16))
@pytest.mark.parametrize("value", ["0", "-1e-300", "-5"])
def test_each_intrinsics_column_is_checked_on_its_row(column, value, tmp_path):
    """A focal length or image size that is not positive fails on its own
    line, as Intrinsics words it; the principal point may take any value."""
    cells = GOOD[1].split(",")
    cells[column] = value
    path = tmp_path / "log.csv"
    path.write_text("# poselog v1 frame=world\n" + "\n".join(
        [GOOD[0], ",".join(cells)] + GOOD[2:]) + "\n")
    assert_reads_like_reference(path)
    _, error = outcome(ingest_canonical_all, path)
    assert (error is None) == (column in (12, 13))


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


def plain_body(subjects, wide=False, seed=0):
    """'\n'-terminated canonical rows, row i of subject subjects[i], each
    subject's indices counting from 0.  Ids and indices are zero-padded, so
    a row's length depends on the seed alone and a change of subjects moves
    no block boundary."""
    rng = np.random.default_rng(seed)
    count = collections.Counter()
    lines = []
    for subject in subjects:
        q = rng.normal(size=4)
        cells = [*(q / np.linalg.norm(q)).tolist(), *rng.uniform(-500, 500, 3).tolist()]
        if wide:
            cells += [*rng.uniform(400, 600, 2).tolist(), 320.0, 240.0, 640.0, 480.0]
        i = count[subject]
        count[subject] += 1
        lines.append(",".join([subject, f"f{i:05d}", f"{i:05d}", *map(repr, cells)]))
    return ("\n".join(lines) + "\n").encode()


def block_start(body, k=1):
    """The row that starts block k + 1 of a body read after its header."""
    return body[:k * tables._BLOCK_BYTES].count(b"\n")


HEADER = b"# poselog v1 frame=world\n"


@pytest.mark.parametrize("wide", [False, True])
def test_plain_files_are_read_a_block_at_a_time(wide, tmp_path, monkeypatch):
    """An export of two subjects over several blocks is read with csv_rows
    never called, and gives the reference's logs.  A block holds rows of
    one width only, so the two widths are two files."""
    rng = np.random.default_rng(0)
    k = [Intrinsics(500, 510, 320, 240, 640, 480) if wide else None] * 300
    logs = [pose_log([random_pose(rng) for _ in range(300)], f"subj{s}", intrinsics=k)
            for s in range(2)]
    path = tmp_path / "log.csv"
    export_canonical(logs, path)
    assert path.stat().st_size > 3 * tables._BLOCK_BYTES
    want = reference_ingest(path)

    def row_loop(*args):
        raise AssertionError("the row loop ran")
    monkeypatch.setattr(tables, "csv_rows", row_loop)
    for log, again in zip(ingest_canonical_all(path), want, strict=True):
        assert_same_log(log, again)


@pytest.mark.parametrize("wide", [False, True])
def test_eval_reads_a_plain_truth_log_a_block_at_a_time(wide, tmp_path, monkeypatch):
    """scoring.read_truth of a one-subject plain file over several blocks
    never calls csv_rows, and its PoseTable holds the row loop's ids and
    numbers byte for byte."""
    rng = np.random.default_rng(1)
    k = [Intrinsics(500, 510, 320, 240, 640, 480) if wide else None] * 400
    log = pose_log([random_pose(rng) for _ in range(400)], "subj", intrinsics=k)
    path = tmp_path / "log.csv"
    export_canonical(log, path)
    assert path.stat().st_size > 3 * tables._BLOCK_BYTES
    (subject, (ids, numbers)), = tables._row_subjects(path).items()

    def row_loop(*args):
        raise AssertionError("the row loop ran")
    monkeypatch.setattr(tables, "csv_rows", row_loop)
    table = scoring.read_truth(path)
    assert table.subject_id == subject == "subj"
    assert list(table.positions) == list(ids) and table.width == 13
    assert table.numbers.tobytes() == numbers.tobytes()


@pytest.mark.parametrize("limit, subject, tag, line", [
    (25, "s" * 30, "world", 2),  # the limit admits the header and numbers
    (2 * tables._BLOCK_BYTES, "s", "t" * 2 * tables._BLOCK_BYTES, 1),
], ids=["subject_id", "header"])
def test_cells_over_the_csv_field_limit_leave_the_file_to_the_row_loop(
        limit, subject, tag, line, tmp_path):
    """Under a csv.field_size_limit() below a plain file's subject id, or
    its header line, the row loop's ParseError names that line, as the
    reference's does."""
    path = tmp_path / "log.csv"
    path.write_bytes(f"# poselog v1 frame={tag}\n".encode()
                     + plain_body([subject] * 1000))
    saved = csv.field_size_limit()
    csv.field_size_limit(limit)
    try:
        _, (kind, message) = outcome(ingest_canonical_all, path)
        assert (kind, message) == outcome(reference_ingest, path)[1]
        assert message.startswith(
            f"{path}:{line}: field larger than field limit ({limit})")
    finally:
        csv.field_size_limit(saved)


def test_an_overlong_header_line_is_refused_unread(tmp_path):
    """A 4 MB first line is refused with the row loop's message for it,
    and with a traced peak below 1 MB: neither reader reads the header
    past csv.field_size_limit() characters.  A header of exactly that
    many is read."""
    limit = csv.field_size_limit()
    path = tmp_path / "log.csv"
    path.write_bytes(b"# poselog v1 frame=world " + b"x" * (4 << 20) + b"\n"
                     + plain_body(["s"] * 10))
    tracemalloc.start()
    try:
        _, (kind, message) = outcome(tables.canonical_subjects, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (kind, message) == (
        ParseError, f"{path}:1: field larger than field limit ({limit})")
    assert peak < 1e6, peak
    tag = "t" * (limit - len("# poselog v1 frame="))
    path.write_bytes(f"# poselog v1 frame={tag}\n".encode() + plain_body(["s"] * 10))
    assert tables.canonical_subjects(path)[0] == tag
    path.write_bytes(f"# poselog v1 frame={tag}t\n".encode() + plain_body(["s"] * 10))
    assert outcome(tables.canonical_subjects, path)[1] == (kind, message)


def test_canonical_write_replaces_its_file_only_once_whole(tmp_path):
    """tables.canonical_text written through reports.write_files: a write
    whose logs fail partway leaves the file as it was and no other file
    beside it; one that completes replaces it."""
    path = tmp_path / "log.csv"
    path.write_text("older\n")
    row = [1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0]

    def failing_logs():
        yield "s", ["f0"], [row]
        raise OSError("no space left")

    def write(logs):
        return reports.write_files(tmp_path, [
            ("log.csv", tables.canonical_text("world", logs))])

    with pytest.raises(OSError, match="no space left"):
        write(failing_logs())
    assert path.read_text() == "older\n"
    assert os.listdir(tmp_path) == ["log.csv"]
    assert write([("s", ["f0"], [row])]) == [str(path)]
    assert path.read_text() == ("# poselog v1 frame=world\n"
                                "s,f0,0,1.0,0.0,0.0,0.0,1.0,2.0,3.0\n")
    assert os.listdir(tmp_path) == ["log.csv"]


def test_export_canonical_makes_its_directory_and_removes_it_on_failure(
        tmp_path, monkeypatch):
    """export_canonical into a directory that does not exist creates it,
    and the one above it; a write that fails after the file is opened
    removes both again and leaves nothing behind.  A bare file name is
    written in the working directory."""
    log = pose_log([SE3Pose(Rotation(1.0, 0.0, 0.0, 0.0), np.zeros(3))])
    path = tmp_path / "new" / "dir" / "log.csv"

    def failing_open(name, mode="r", *args, **kwargs):
        open(name, mode, *args, **kwargs).close()
        raise OSError("no space left")

    with monkeypatch.context() as patch:
        patch.setattr(reports, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="no space left"):
            export_canonical(log, path)
    assert os.listdir(tmp_path) == []
    export_canonical(log, path)
    assert os.listdir(path.parent) == ["log.csv"]
    assert_same_log(ingest_canonical_all(path)[0], log)
    monkeypatch.chdir(path.parent)
    export_canonical(log, "bare.csv")
    assert (path.parent / "bare.csv").read_bytes() == path.read_bytes()


def test_export_canonical_of_no_log_is_empty_input(tmp_path):
    """No log is an EmptyInput, not a mixed-frame-tag InvariantViolation,
    and writes nothing: a header-only file would be read back as 'no
    records'."""
    with pytest.raises(EmptyInput, match="at least one log is needed"):
        export_canonical([], tmp_path / "new" / "log.csv")
    assert os.listdir(tmp_path) == []


def edit_row(body, row, change):
    """body with change(cells) applied to the cells of one row."""
    lines = body.decode().split("\n")
    cells = lines[row].split(",")
    change(cells)
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode()


def set_cell(body, row, column, value):
    return edit_row(body, row, lambda cells: cells.__setitem__(column, value))


def mixed_widths(body):
    wide = plain_body(["s"] * body.count(b"\n"), wide=True).split(b"\n")
    return b"\n".join(wide[i] if i % 3 == 1 else line
                       for i, line in enumerate(body.split(b"\n")))


def shifted_comma(body):
    """Near the end, a row a field short before a row a field long: the
    block holds the commas of its rows, and a reader that only counted them
    would read subjects '9' and '8g' and lose the last row."""
    rows = [b"9,f%d,%d,1,0,0,0,0,0,0" % (i, i) for i in range(990)]
    rows += [b"8,h,0,1,0,0,0,0,0", b"9,g,x,990,1,0,0,0,0,0,0"]
    rows += [b"9,f%d,%d,1,0,0,0,0,0,0" % (i, i) for i in range(991, 1000)]
    assert block_start(b"\n".join(rows), 1) < 990
    return HEADER + b"\n".join(rows) + b"\n"


def quaternion_norm(body, row, scale):
    return edit_row(body, row, lambda cells: cells.__setitem__(
        slice(3, 7), [repr(float(c) * scale) for c in cells[3:7]]))


MULTI_BLOCK_CASES = {
    "plain": lambda body: HEADER + body,
    "duplicate_across_boundary": lambda body: HEADER + set_cell(
        body, block_start(body), 1, f"f{block_start(body) - 1:05d}"),
    "gap_at_block_start": lambda body: HEADER + set_cell(
        body, block_start(body, 2), 2, f"{block_start(body, 2) + 1:05d}"),
    "subject_switch_at_boundary": lambda body: HEADER + plain_body(
        ["s"] * block_start(body) + ["t"] * (body.count(b"\n") - block_start(body))),
    "fault_in_last_block": lambda body: HEADER + set_cell(
        body, body.count(b"\n") - 2, 3, "nan"),
    "norm_off_by_1.5e-3": lambda body: HEADER + quaternion_norm(body, 700, 1.0015),
    "norm_off_by_0.5e-3": lambda body: HEADER + quaternion_norm(body, 700, 1.0005),
    "no_trailing_newline": lambda body: HEADER + body[:-1],
    "mixed_widths": lambda body: HEADER + mixed_widths(body),
    "readme_ids": lambda body: HEADER + set_cell(set_cell(body, 3, 1, 'a"b'),
                                                 5, 1, " s#1"),
    "shifted_comma": shifted_comma,
    "quote_in_header": lambda body: b'# poselog v1 frame=world ,"x\n' + body,
    "row_after_cr_in_header": lambda body: (b"# poselog v1 frame=world\r"
                                            b"t,g0,0,1,0,0,0,0,0,0\n" + body),
}


@pytest.mark.parametrize("case", sorted(MULTI_BLOCK_CASES))
def test_multi_block_logs_read_like_the_reference(case, tmp_path):
    """Files of several blocks, each with a fault at a block edge or a part
    that the block reader must leave to the row loop: the same logs, error
    type and message as the reference."""
    body = plain_body(["s"] * 1000)
    assert block_start(body, 3) < 1000
    path = tmp_path / "log.csv"
    path.write_bytes(MULTI_BLOCK_CASES[case](body))
    assert_reads_like_reference(path)


MULTI_BLOCK_TOKENS = LOG_TOKENS + [b"\r", b"\x00", b"\t", b"_", b"+", b"e"]


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(wide=st.booleans(),
       edits=st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                                st.integers(0, 10 ** 6),
                                st.sampled_from(MULTI_BLOCK_TOKENS)),
                      min_size=1, max_size=4))
def test_mutated_multi_block_logs_read_like_the_reference(wide, edits, tmp_path):
    """Mutations of a body of several blocks, two subjects in runs of 7
    rows: the block reader and the row loop agree on every file."""
    body = plain_body([("s", "t")[i // 7 % 2] for i in range(1000)], wide)
    path = tmp_path / "log.csv"
    path.write_bytes(HEADER + mutate(body, edits))
    assert_reads_like_reference(path)


def test_reading_a_large_export_holds_no_copy_of_its_text(tmp_path):
    """A 4 x 4000-row export (2.4 MB of text) is read with a traced peak
    below 6 MB: a reader that held the whole text would need about 21 MB."""
    rng = np.random.default_rng(0)
    path = tmp_path / "log.csv"
    export_canonical([PoseLog(f"subj{s:03d}", [f"f{i:04d}" for i in range(4000)],
                              rng.normal(size=(4000, 4)),
                              rng.uniform(-500, 500, (4000, 3)))
                      for s in range(4)], path)
    tracemalloc.start()
    try:
        logs = ingest_canonical_all(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, logs)) == 16000
    assert peak < 6e6, peak


# ---------------------------------------------------------------------------
# round trips


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(subjects=st.lists(rows, min_size=1, max_size=3))
def test_export_ingest_export_is_byte_stable(subjects, tmp_path):
    logs = []
    for s, subject_rows in enumerate(subjects):
        ids, quats, translations, k = columns(subject_rows)
        logs.append(PoseLog(f"s{s}", ids, quats, translations, "rgb", k))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    export_canonical(logs, first)
    back = ingest_canonical_all(first)
    export_canonical(back, second)
    assert first.read_bytes() == second.read_bytes()
    for log, again in zip(logs, back, strict=True):
        assert_same_log(log, again)


# any string but a surrogate (which UTF-8 cannot encode), often ASCII or
# made of the characters that CSV and the poselog header treat specially
id_text = (st.text(st.characters(codec="ascii"), max_size=6)
           | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
           | st.text(st.sampled_from(',"#\r\n \t\x00\x0c\x85=a\u00e9'), max_size=6))


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.filter_too_much])
@given(subjects=st.lists(
    st.tuples(id_text, st.lists(st.tuples(id_text, quaternion, translation,
                                          intrinsics),
                                min_size=1, max_size=4, unique_by=lambda r: r[0])),
    min_size=1, max_size=3, unique_by=lambda s: s[0]),
       tag=id_text | st.text(st.sampled_from(',"a'), max_size=4))
def test_any_accepted_ids_round_trip(subjects, tag, tmp_path):
    """Subject ids, frame ids and a frame tag of any text that PoseLog
    accepts export and read back with the same ids and columns."""
    logs = []
    for subject, subject_rows in subjects:
        _, quats, translations, k = columns([r[1:] for r in subject_rows])
        try:
            logs.append(PoseLog(subject, [r[0] for r in subject_rows], quats,
                                translations, tag, k))
        except InvariantViolation:
            assume(False)
    path = tmp_path / "log.csv"
    export_canonical(logs, path)
    for log, again in zip(logs, ingest_canonical_all(path), strict=True):
        assert_same_log(again, log)


@settings(derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stages=st.lists(st.tuples(st.integers(-10 ** 9, 10 ** 9), translation,
                                 quaternion, st.floats(1e-3, 179.0),
                                 st.floats(1e-3, 179.0)),
                       min_size=1, max_size=6),
       header=st.booleans())
def test_stage_file_round_trip(stages, header, tmp_path):
    """k, t and q written with repr read back exactly, and the FoVs in
    degrees as math.radians of the written value, with or without the
    header row."""
    path = tmp_path / "stages.csv"
    lines = ["k,tx,ty,tz,qw,qx,qy,qz,fov_h_deg,fov_w_deg"] if header else []
    for k, t, q, fov_h, fov_w in stages:
        r = Rotation(*q)
        lines.append(",".join([str(k)] + [repr(v) for v in
                                          (*t, r.w, r.x, r.y, r.z, fov_h, fov_w)]))
    path.write_text("\n".join(lines) + "\n")
    back = _read_stage_file(path)
    assert [k for k, _ in back] == [k for k, *_ in stages]
    for (_, cam), (_, t, q, fov_h, fov_w) in zip(back, stages, strict=True):
        r = Rotation(*q)
        assert type(cam.t) is tuple and bits(cam.t) == bits(t)
        assert bits([cam.q.w, cam.q.x, cam.q.y, cam.q.z]) == bits([r.w, r.x, r.y, r.z])
        assert bits([cam.fov_h, cam.fov_w]) == bits([math.radians(fov_h),
                                                     math.radians(fov_w)])


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
    """simulate, sweep under each policy, both pair kinds and eval build
    O(subjects) SE3Pose and Rotation objects, not O(frames)."""
    built = collections.Counter()
    for cls in (SE3Pose, Rotation):
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
    # eval of a 300-frame log, with one predictions row per frame
    one = tmp_path / "one"
    assert run(["--out", one, "simulate", "--subjects", 1,
                "--frames-per-log", 300]) == 0
    truth = one / "simulated_poselog.csv"
    assert run(["--out", one, "pairs", truth, "--pair-kind", "easy",
                "--neutral-thresh-deg", 60, "--max-gap-deg", 30]) == 0
    columns = ingest_canonical_all(truth)[0]
    preds = one / "preds.csv"
    preds.write_text("".join(
        ",".join([f, *map(repr, q), *map(repr, t)]) + "\n"
        for f, q, t in zip(columns.frame_ids, columns.quats.tolist(),
                           columns.translations.tolist())))
    built.clear()
    assert run(["--out", one, "eval", truth, one / "pairs_subj000.csv", preds]) == 0
    assert sum(built.values()) <= 2 * SUBJECTS, ("eval", dict(built))
