"""Command-line entry point.

COMMANDS is the one list of subcommands, their inputs and their flags.
Global flags: --seed, --config <file>, --out <dir>, --format {csv,json}.

The config file is a flat JSON object.  SETTINGS lists each command's
config keys, with the conversion that checks a value and the default; a
flag beats its config value, which beats the default, flag and config
values are checked alike, and unknown keys are rejected.  An error names
the flag or '<config file>: <key>' a bad value came from, also when the
library rejects it (a DomainError naming its setting).  All angle I/O at
this surface is in degrees.

main resolves a command's settings before the command runs; each
cmd_<name>(args, out, config, settings) (report takes only args and out)
returns nothing.  Every file goes through reports.write_files, which
makes --out only to write and moves a run's files (each subject's, for
pairs) into place only once all are written: a failed run leaves --out as
it was.  Every report goes through _write_report, which embeds the config
echo, the seed, the format version and input-file hashes, so identical
inputs give identical report bytes.

Only the standard library and the stdlib-only reports, errors and vocab
modules load with this module; each command imports the library modules
it runs.  `report`, `loss`, `eval` and `simulate` run without numpy:
`loss` reads its stage files through rows and computes on camera,
rotation and losses, `eval` reads and scores its pair set through
scoring, and `simulate` draws its logs through sampling and writes them
through tables, which load only the standard library.  `pairs` draws its
sample through sampling too, so it loads numpy but not numpy.random.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import reports
from .errors import DomainError, ParseError, RelHpeError, StageCountMismatch
from .vocab import MODES, POLICY_KINDS, SWEEP_AXES

EXIT_USAGE = 2


def _finite(value) -> float:
    """float(value); ValueError 'non-finite number <value>' for nan or inf."""
    if not math.isfinite(number := float(value)):
        raise ValueError(f"non-finite number {value}")
    return number


def _count(value) -> int:
    """A non-negative int, or its decimal string; ValueError otherwise
    (a bool or a float is not a count)."""
    if (isinstance(value, (int, str)) and not isinstance(value, bool)
            and int(value) >= 0):
        return int(value)
    raise ValueError(f"expected a non-negative integer, got {value!r}")


def _text(value) -> str:
    """value if it is a str (as a glob or a file name); ValueError otherwise."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _at_least(least, convert):
    """Conversion by convert that also rejects values below least."""
    def check(value):
        value = convert(value)
        if not value >= least:
            raise ValueError(f"expected at least {least}, got {value!r}")
        return value
    return check


_non_negative = _at_least(0.0, _finite)
_positive_count = _at_least(1, _count)


def _one_of(*allowed):
    """Conversion that accepts only the given values."""
    def convert(value):
        if value not in allowed:
            raise ValueError(f"{value!r} is not one of {', '.join(allowed)}")
        return value
    return convert


# Each command's accepted config keys, as key -> (conversion, default); the
# conversion checks the value's domain, and a key `<name>_min` must not
# exceed its `<name>_max`.  A setting takes its flag (--key with '-' for
# '_') when one was given, else its config value, else the default here.
# report reads no config.
SETTINGS = {
    "ingest": {"input_format": (_one_of("canonical", "biwi"), "canonical"),
               "pose_glob": (_text, "frame_*_pose.txt"),
               "calib_name": (_text, "rgb.cal")},
    "pairs": {"pair_kind": (_one_of("easy", "hard"), "hard"),
              "neutral_thresh_deg": (_finite, 15.0),
              "extreme_thresh_deg": (_finite, 45.0),
              "max_gap_deg": (_finite, 8.0), "n_pairs": (_count, 360)},
    "eval": {},
    "sweep": {"axis": (_one_of(*SWEEP_AXES), "anchor_query_gap"),
              "bin_width_deg": (_finite, 5.0),
              # external_predicted needs another estimator's predictions
              "policy": (_one_of(*(k for k in POLICY_KINDS
                                   if k != "external_predicted")), "fixed_first"),
              "threshold_deg": (_finite, None),
              "abs_base_deg": (_non_negative, 2.0),
              "abs_slope": (_non_negative, 0.15),
              "rel_base_deg": (_non_negative, 0.5),
              "rel_slope": (_non_negative, 0.02),
              "trans_noise_mm": (_non_negative, 0.0)},
    "simulate": {"subjects": (_positive_count, 4),
                 "frames_per_log": (_positive_count, 100),
                 "yaw_min": (_finite, -75.0), "yaw_max": (_finite, 75.0),
                 "pitch_min": (_finite, -60.0), "pitch_max": (_finite, 60.0),
                 "roll_min": (_finite, -40.0), "roll_max": (_finite, 40.0)},
    "loss": {"lambda_t": (_finite, 1.0), "lambda_r": (_finite, 1.0),
             "lambda_f": (_finite, 0.5), "gamma": (_finite, 0.6),
             "mode": (_one_of(*MODES), "full")},
}


def _read_json(path, number=None):
    """The JSON value in a file, fractions and constants read by number if
    given; ParseError '<path>: ...' for text that is not UTF-8 JSON, JSON
    nested too deeply to decode, or a value number fails."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=number, parse_constant=number)
        except (ValueError, RecursionError) as exc:  # bad text, deep nesting
            raise ParseError(f"{path}: {exc}") from exc


def _checked(source, convert, value):
    """convert(value); RelHpeError '<source>: <message>' when it fails."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise RelHpeError(f"{source}: {exc}") from exc


def _flag(key):
    """The flag of a setting: --key with '-' for '_'."""
    return "--" + key.replace("_", "-")


def _settings(args):
    """(raw config file object, resolved SETTINGS) of args.command."""
    table = SETTINGS[args.command]
    cfg = {}
    if args.config is not None:
        cfg = _read_json(args.config)
        if not isinstance(cfg, dict):
            raise RelHpeError(f"{args.config}: config must be a flat JSON object")
        unknown = sorted(set(cfg) - set(table))
        if unknown:
            raise RelHpeError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    settings = {}
    args.sources = {}  # key -> where a value not from the default came from
    for key, (convert, default) in table.items():
        flag = getattr(args, key, None)
        value = cfg.get(key, default) if flag is None else flag
        source = f"{args.config}: {key}" if flag is None else _flag(key)
        if flag is not None or key in cfg:
            args.sources[key] = source
        if value is not None or default is not None:
            value = _checked(source, convert, value)
        settings[key] = value
    for key in table:
        hi_key = key[:-4] + "_max"
        if key.endswith("_min") and hi_key in table and settings[key] > settings[hi_key]:
            raise RelHpeError(f"{args.sources.get(key, key)} {settings[key]} > "
                              f"{args.sources.get(hi_key, hi_key)} {settings[hi_key]}")
    return cfg, settings


def _write_report(args, out, sets):
    """Write the reports of args.command, one per (stem, config echo,
    payload) of sets, all or none: each the envelope of its payload with
    its config echo, the seed and the SHA-256 of each positional input
    (COMMANDS), then the files reports.FILES builds from the payload.  The
    inputs are hashed once for all the sets.  Of JSON and CSV, --format
    keeps the one it names when the command writes both."""
    files = ("json", *reports.FILES[args.command])
    hashes = {path: reports.file_sha256(path) for path in
              (getattr(args, name) for name, _ in COMMANDS[args.command][2])}
    extensions = [ext for ext in files if args.format in (None, ext)
                  or ext not in ("json", "csv") or "csv" not in files]
    reports.write_report(out, [
        (stem, reports.envelope(args.command, config_echo, args.seed, hashes, payload),
         extensions) for stem, config_echo, payload in sets])


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args, out, _, s):
    import numpy as np

    from .geometry import euler_deg_many
    from .harness import export_canonical, ingest_biwi, ingest_canonical_all
    if s["input_format"] == "biwi":
        logs = [ingest_biwi(args.input, s["pose_glob"], s["calib_name"])]
    else:
        logs = ingest_canonical_all(args.input)
    dest = os.path.join(out, "poselog.csv")
    export_canonical(logs, dest)
    n_frames = sum(len(l) for l in logs)
    arr = euler_deg_many(np.concatenate([log.quats for log in logs]))
    print(f"subjects: {len(logs)}  frames: {n_frames}")
    print(f"yaw range:   [{arr[:, 0].min():.2f}, {arr[:, 0].max():.2f}] deg")
    print(f"pitch range: [{arr[:, 1].min():.2f}, {arr[:, 1].max():.2f}] deg")
    print(f"roll range:  [{arr[:, 2].min():.2f}, {arr[:, 2].max():.2f}] deg")
    print(f"wrote {dest}")


def cmd_pairs(args, out, cfg, s):
    """Build every subject's pair set, then write them all or none: a
    subject that fails, to build or to write, leaves no file of another."""
    from .harness import build_easy_pairs, build_hard_pairs, canonical_logs
    built = []
    for log in canonical_logs(args.input):  # each log built as it is taken
        if s["pair_kind"] == "hard":
            ps = build_hard_pairs(log, s["neutral_thresh_deg"],
                                  s["extreme_thresh_deg"], s["n_pairs"], args.seed)
        else:
            ps = build_easy_pairs(log, s["neutral_thresh_deg"],
                                  s["max_gap_deg"], s["n_pairs"], args.seed)
        built.append((log.subject_id, reports.pairs_payload(ps)))
    _write_report(args, out, [(f"pairs_{subject}", {**cfg, "subject": subject}, payload)
                              for subject, payload in built])


def cmd_eval(args, out, cfg, _):
    from .scoring import (check_pairs, read_pairs_csv, read_predictions,
                          read_truth, score_pairs)
    truth = read_truth(args.truth)
    pairs, lines = read_pairs_csv(args.pairs)
    preds = read_predictions(args.predictions)
    check_pairs(args.pairs, lines, pairs, truth, args.predictions, preds)
    rep = score_pairs(pairs, truth, preds)
    _write_report(args, out, [("eval", cfg, reports.metric_payload({"external": rep}))])
    print(f"n={rep.n} yaw={rep.yaw_mae:.4f} pitch={rep.pitch_mae:.4f} "
          f"roll={rep.roll_mae:.4f} mae={rep.mae:.4f} geodesic={rep.geodesic_mae:.4f}")


def _noise_model(s, prefix, seed):
    """The NoiseModel of the sweep settings <prefix>_base_deg,
    <prefix>_slope and trans_noise_mm; its DomainError names the setting
    by its key."""
    from .simulate import NoiseModel
    keys = {"base_deg": f"{prefix}_base_deg", "slope_deg_per_deg": f"{prefix}_slope"}
    try:
        return NoiseModel(**{name: s[key] for name, key in keys.items()},
                          trans_noise_mm=s["trans_noise_mm"], seed=seed)
    except DomainError as exc:
        exc.setting = keys.get(exc.setting, exc.setting)
        raise


def cmd_sweep(args, out, cfg, s):
    from .anchors import AnchorPolicy
    from .harness import canonical_logs, sweep
    from .simulate import AbsoluteSimEstimator, RelativeSimEstimator
    policy = AnchorPolicy(s["policy"], s["threshold_deg"])
    estimators = [
        AbsoluteSimEstimator("sim_absolute", _noise_model(s, "abs", args.seed)),
        RelativeSimEstimator("sim_relative", _noise_model(s, "rel", args.seed)),
    ]
    # read after every setting is checked; sweep builds one log at a time
    logs = canonical_logs(args.input)
    rep = sweep(logs, estimators, policy, s["axis"], s["bin_width_deg"])
    _write_report(args, out, [("sweep", {**cfg, "axis": s["axis"], "policy": policy.kind},
                                reports.sweep_payload(rep))])


def cmd_simulate(args, out, _, s):
    from .sampling import PoseSampler, pose_rows
    from .tables import canonical_text
    sampler = PoseSampler(
        yaw_range=(s["yaw_min"], s["yaw_max"]),
        pitch_range=(s["pitch_min"], s["pitch_max"]),
        roll_range=(s["roll_min"], s["roll_max"]),
        frames_per_log=s["frames_per_log"], subjects=s["subjects"],
        seed=args.seed)
    [dest] = reports.write_files(out, [("simulated_poselog.csv",
                                        canonical_text("world", pose_rows(sampler)))])
    print(f"wrote {dest} ({sampler.subjects} subjects x {sampler.frames_per_log} frames)")


def _read_stage_file(path):
    """Per-stage camera poses: k,tx,ty,tz,qw,qx,qy,qz,fov_h_deg,fov_w_deg,
    with k an integer."""
    from .camera import CameraPose
    from .rotation import Rotation
    from .rows import csv_rows, finite_floats, row_errors
    stages = []
    for lineno, row in csv_rows(path, (10,), header=("k",)):
        with row_errors(path, lineno):
            k, vals = int(row[0]), finite_floats(row[1:])
            stages.append((k, CameraPose(
                t=vals[0:3], q=Rotation(*vals[3:7]),
                fov_h=math.radians(vals[7]), fov_w=math.radians(vals[8]))))
    return stages


def cmd_loss(args, out, cfg, s):
    from .losses import LossConfig, StagePrediction, loss_cam
    lc = LossConfig(**s)
    pred_stages = _read_stage_file(args.predictions)
    true_stages = _read_stage_file(args.truth)
    pred_ks, true_ks = [k for k, _ in pred_stages], [k for k, _ in true_stages]
    if pred_ks != true_ks:
        raise StageCountMismatch(f"{args.predictions}: prediction stages {pred_ks} "
                                 f"!= {args.truth}: truth stages {true_ks}")
    stages = [StagePrediction(k, p, t)
              for (k, p), (_, t) in zip(pred_stages, true_stages)]
    total, breakdown = loss_cam(stages, lc)
    _write_report(args, out, [("loss", {**cfg, "mode": lc.mode, "gamma": lc.gamma},
                                reports.loss_payload(total, breakdown))])
    print(f"total: {total:.12g}")
    for b in breakdown:
        print(f"  stage {b.stage_index}: weight={b.weight:.6g} "
              f"T={b.translation:.6g} R={b.rotation:.6g} F={b.fov:.6g}")


def cmd_report(args, out):
    """Re-emit the CSV of a sweep, pairs or eval JSON report envelope."""
    env = _read_json(args.input, _finite)
    command = env.get("command") if isinstance(env, dict) else None
    if not (isinstance(command, str) and "csv" in reports.FILES.get(command, ())):
        raise RelHpeError(f"{args.input}: cannot regenerate from a {command!r} report")
    stem = os.path.splitext(os.path.basename(args.input))[0]
    try:
        reports.write_report(out, [(stem, env, ["csv"])])
    except (LookupError, TypeError, csv.Error) as exc:
        raise RelHpeError(f"{args.input}: malformed {command} report "
                          f"({type(exc).__name__}: {exc})") from exc


# ---------------------------------------------------------------------------


# name -> (cmd_<name>, help line, positional inputs as (name, help), which a
# report hashes, and the SETTINGS keys that also take a flag (_flag)).
COMMANDS = {
    "ingest": (cmd_ingest, "convert input data to the canonical pose-log format",
               (("input", None),), ("input_format", "pose_glob", "calib_name")),
    "pairs": (cmd_pairs, "build easy/hard benchmark pair sets",
              (("input", "canonical pose-log file"),),
              ("pair_kind", "neutral_thresh_deg", "extreme_thresh_deg",
               "max_gap_deg", "n_pairs")),
    "eval": (cmd_eval, "evaluate external predictions over a pair set",
             (("truth", "canonical truth log (single subject)"),
              ("pairs", "pairs CSV from the pairs command"),
              ("predictions", "predictions CSV (query_id,qw..qz,tx..tz)")), ()),
    "sweep": (cmd_sweep, "binned error sweep with simulated estimators",
              (("input", "canonical pose-log file"),),
              ("axis", "policy", "threshold_deg", "bin_width_deg")),
    "simulate": (cmd_simulate, "sample deterministic synthetic pose logs",
                 (), ("subjects", "frames_per_log")),
    "loss": (cmd_loss, "multi-stage camera loss over stage files",
             (("predictions", "predicted stage file"),
              ("truth", "ground-truth stage file")), ()),
    "report": (cmd_report, "re-emit CSV from a JSON report envelope",
               (("input", "JSON report file"),), ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relhpe",
        description="Relative head-pose toolkit: ingestion, benchmark pairs, "
                    "metrics, sweeps, simulation, and loss evaluation.")
    parser.add_argument("--seed", default=0,
                        help="non-negative RNG seed (echoed into reports)")
    parser.add_argument("--config", default=None, help="flat JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="restrict report output to one format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, inputs, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for input_name, input_help in inputs:
            p.add_argument(input_name, help=input_help)
        for key in flags:
            p.add_argument(_flag(key))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.seed = _checked("--seed", _count, args.seed)
        resolved = _settings(args) if args.command in SETTINGS else ()
        args.func(args, args.out or ".", *resolved)
        return 0
    except (RelHpeError, OSError) as exc:
        # a library DomainError about one setting is named by its source
        source = getattr(args, "sources", {}).get(getattr(exc, "setting", None))
        print(f"error: {source + ': ' if source else ''}{exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
