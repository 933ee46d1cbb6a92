"""Parser fuzzing through the CLI.

Small valid inputs of every file kind the CLI reads (canonical log, pairs
and predictions CSVs, stage file, config, report JSON, BIWI directory) are
mutated by inserting, replacing or deleting characters.  Every run must
end in exit 0, or in exit 2 with an 'error:' line: no exception escapes
main.  An error of eval on a mutated pairs or predictions CSV names that
file.  The draws are derandomized, so a run is the same every time.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relhpe import SE3Pose, export_canonical
from relhpe.camera import Intrinsics
from relhpe.cli import main

from conftest import frame_records, pose_log, yaw_pose
from test_cli import write_stage_file
from test_harness import write_biwi_fixture

TOKENS = [b",", b"\n", b"#", b'"', b"nan", b"inf", b"1e400", b"\xff"]

EVAL = ["eval", "{root}/log.csv", "{root}/pairs.csv", "{root}/preds.csv"]
BIWI = ["ingest", "{root}/biwi", "--input-format", "biwi"]

# (the file mutated, the command run on it; {root} is the input directory)
TARGETS = {
    "log_ingest": ("log.csv", ["ingest", "{root}/log.csv"]),
    "log_pairs": ("log.csv", ["pairs", "{root}/log.csv"]),
    "log_sweep": ("log.csv", ["sweep", "{root}/log.csv"]),
    "pairs_eval": ("pairs.csv", EVAL),
    "predictions_eval": ("preds.csv", EVAL),
    "stages_loss": ("stages.csv", ["loss", "{root}/stages.csv",
                                   "{root}/true_stages.csv"]),
    "config_simulate": ("cfg.json", ["--config", "{root}/cfg.json", "simulate"]),
    "report": ("sweep.json", ["report", "{root}/sweep.json"]),
    "biwi_calibration": ("biwi/rgb.cal", BIWI),
    "biwi_pose": ("biwi/frame_00001_pose.txt", BIWI),
}
# targets whose every error names the mutated file
NAMED = {"pairs_eval", "predictions_eval"}

EDITS = st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                           st.integers(min_value=0, max_value=10 ** 6),
                           st.sampled_from(TOKENS)), max_size=3)


def mutate(data: bytes, edits) -> bytes:
    """data with each (op, at, token) edit applied in turn; at is taken
    modulo the length, and replace and delete act on one byte."""
    for op, at, token in edits:
        at %= len(data) + 1
        if op == "insert":
            data = data[:at] + token + data[at:]
        elif op == "replace":
            data = data[:at] + token + data[at + 1:]
        else:
            data = data[:at] + data[at + 1:]
    return data


def run(root, argv):
    """(exit status, stderr) of main on argv, with {root} set to root."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["--out", os.path.join(root, "out"),
                   *(a.format(root=root) for a in argv)])
    return rc, err.getvalue()


def write_sources(root, sources):
    for name, data in sources.items():
        os.makedirs(os.path.dirname(os.path.join(root, name)), exist_ok=True)
        with open(os.path.join(root, name), "wb") as fh:
            fh.write(data)


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """name -> bytes of one valid input of each kind."""
    root = tmp_path_factory.mktemp("sources")
    k = Intrinsics(500.0, 510.0, 320.0, 240.0, 640.0, 480.0)
    yaws = [0.0, 3.0, 6.0, 50.0, 60.0, 70.0]
    log = pose_log([yaw_pose(y, t=(i, -2.5 * i, 600.0)) for i, y in enumerate(yaws)],
                   intrinsics=[k if i % 2 else None for i in range(len(yaws))])
    export_canonical(log, root / "log.csv")
    (root / "preds.csv").write_text("query_id,qw,qx,qy,qz,tx_mm,ty_mm,tz_mm\n" + "".join(
        ",".join([f.frame_id] + [repr(float(v)) for v in
                                 (*f.pose.rotation.quat, *f.pose.translation)]) + "\n"
        for f in frame_records(log)))
    write_stage_file(root / "stages.csv", [(1, 1, 2, 3, 1, 0, 0, 0, 60, 45),
                                           (2, 0, 0, 0, 0.6, 0.8, 0, 0, 50, 40)])
    write_stage_file(root / "true_stages.csv", [(1, 0, 0, 0, 1, 0, 0, 0, 60, 45),
                                                (2, 0, 0, 0, 1, 0, 0, 0, 55, 40)])
    (root / "cfg.json").write_text(json.dumps(
        {"subjects": 1, "frames_per_log": 3, "yaw_min": -10, "yaw_max": 10}))
    write_biwi_fixture(root / "biwi", [SE3Pose.identity("depth")] * 2,
                       np.array([[500.0, 0, 320], [0, 500, 240], [0, 0, 1]]),
                       np.eye(3), [10.0, 0.0, 0.0])
    assert run(root, TARGETS["log_pairs"][1])[0] == 0
    assert run(root, TARGETS["log_sweep"][1])[0] == 0
    os.replace(root / "out" / "pairs_s.csv", root / "pairs.csv")
    os.replace(root / "out" / "sweep.json", root / "sweep.json")
    names = {name for name, _ in TARGETS.values()} | {"true_stages.csv"}
    names |= {f"biwi/{n}" for n in os.listdir(root / "biwi")}
    return {name: (root / name).read_bytes() for name in sorted(names)}


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(edits=EDITS)
@example(edits=[])
# pairs.csv: 'f0,f4,...' on line 2 becomes 'f0,xf4,...', a query the log lacks
@example(edits=[("insert", len("anchor_id,query_id,gap_deg\nf0,"), b"x")])
def test_mutated_input_exits_cleanly(target, sources, edits):
    name, argv = TARGETS[target]
    with tempfile.TemporaryDirectory() as root:
        write_sources(root, {**sources, name: mutate(sources[name], edits)})
        rc, err = run(root, argv)
    assert rc == 0 if not edits else rc in (0, 2)
    if rc == 2:
        assert any(line.startswith("error:") for line in err.splitlines()), err
        assert target not in NAMED or name in err, err
