"""Input files the benchmark writes with its own code.

relhpe only ever receives the files written here: a predictions CSV per
truth log (query_id,qw,qx,qy,qz,tx,ty,tz), per-stage camera files
(k,tx,ty,tz,qw,qx,qy,qz,fov_h_deg,fov_w_deg) and flat JSON configs.
Every file is a pure function of its seed string.
"""

from __future__ import annotations

import json
import math
import random


def _rng(*key) -> random.Random:
    # String seeds are hashed with SHA-512, so streams do not depend on
    # PYTHONHASHSEED or on the order files are written in.
    return random.Random("/".join(str(k) for k in key))


def _qmul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def _unit(q):
    n = math.sqrt(sum(c * c for c in q))
    q = tuple(c / n for c in q)
    return q if q[0] >= 0.0 else tuple(-c for c in q)


def _small_rotation(rng, max_deg):
    """Quaternion about a uniform random axis by an angle in [0, max_deg]."""
    while True:
        axis = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(c * c for c in axis))
        if n > 1e-9:
            break
    half = 0.5 * math.radians(rng.uniform(0.0, max_deg))
    s = math.sin(half) / n
    return (math.cos(half), s * axis[0], s * axis[1], s * axis[2])


def read_poselog(path):
    """(frame_id, quaternion, translation) per record of a canonical log."""
    frames = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            cols = line.rstrip("\n").split(",")
            vals = [float(c) for c in cols[3:10]]
            frames.append((cols[1], tuple(vals[0:4]), tuple(vals[4:7])))
    return frames


def write_predictions(path, truth_frames, key, rot_deg=12.0, trans_mm=15.0):
    """An estimator's absolute predictions: truth perturbed by a random
    rotation of up to rot_deg and a translation offset of up to trans_mm
    per axis."""
    rng = _rng("predictions", key)
    lines = ["query_id,qw,qx,qy,qz,tx,ty,tz"]
    for frame_id, q, t in truth_frames:
        qp = _unit(_qmul(_small_rotation(rng, rot_deg), q))
        tp = [c + rng.uniform(-trans_mm, trans_mm) for c in t]
        lines.append(",".join([frame_id] + [repr(v) for v in (*qp, *tp)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_stage_files(pred_path, true_path, key, stages=4):
    """Predicted and true camera poses for stages 1..stages; predictions
    converge on the truth as the stage index grows."""
    rng = _rng("stages", key)
    header = "k,tx,ty,tz,qw,qx,qy,qz,fov_h_deg,fov_w_deg"
    pred_lines, true_lines = [header], [header]
    for k in range(1, stages + 1):
        t = (rng.uniform(-80, 80), rng.uniform(-60, 60), rng.uniform(500, 900))
        q = _unit(_small_rotation(rng, 60.0))
        fov_h, fov_w = rng.uniform(35, 55), rng.uniform(45, 70)
        scale = 1.0 / k
        tp = [c + scale * rng.uniform(-20, 20) for c in t]
        qp = _unit(_qmul(_small_rotation(rng, 10.0 * scale), q))
        fp = (fov_h + scale * rng.uniform(-4, 4), fov_w + scale * rng.uniform(-4, 4))
        true_lines.append(",".join(repr(v) for v in (k, *t, *q, fov_h, fov_w)))
        pred_lines.append(",".join(repr(v) for v in (k, *tp, *qp, *fp)))
    for path, lines in ((pred_path, pred_lines), (true_path, true_lines)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def write_config(path, config: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
