"""Report serialization: JSON envelopes, frozen-column CSV, and SVG charts.

Every report embeds the config echo, the seed, the report format version,
and the SHA-256 of each input file, so identical inputs reproduce identical
report bodies byte for byte.  No timestamps.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import TYPE_CHECKING

from .errors import RelHpeError

if TYPE_CHECKING:  # annotations only: the report command runs without numpy
    from .harness import PairSet, SweepReport

REPORT_FORMAT_VERSION = "1"

SWEEP_CSV_COLUMNS = ("bin_lo_deg", "bin_hi_deg", "estimator", "n",
                     "yaw_mae", "pitch_mae", "roll_mae", "mae",
                     "geodesic_mae", "pair_count")
METRIC_CSV_COLUMNS = ("estimator", "n", "yaw_mae", "pitch_mae", "roll_mae",
                      "mae", "geodesic_mae", "tx_mae_mm", "ty_mae_mm",
                      "tz_mae_mm", "t_l2_mm")
PAIRS_CSV_COLUMNS = ("anchor_id", "query_id", "gap_deg")

# Each report command's files besides its JSON envelope: extension -> the
# name of the function building its text from the payload (a name, so that
# a function wrapped on the module, as by benchmark/tracer.py, runs).
FILES = {"pairs": {"csv": "pairs_csv"}, "eval": {"csv": "metric_csv"},
         "sweep": {"csv": "sweep_csv", "svg": "sweep_svg"}, "loss": {}}


def file_sha256(path) -> str:
    import hashlib  # here, so that a command that hashes nothing never loads it

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def envelope(command, config, seed, input_hashes, payload) -> dict:
    return {"format_version": REPORT_FORMAT_VERSION, "command": command,
            "seed": seed, "config": config, "inputs_sha256": input_hashes,
            "payload": payload}


def _json_text(data) -> str:  # ValueError for nan or inf, which JSON lacks
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_files(out, files) -> list:
    """Write each (name, chunks) of files to <out>/<name>, all or none,
    and return the paths: the one place that stages and commits files.  A
    path that is a directory is a RelHpeError before anything is made.
    The chunks (strings, drawn lazily if need be) are written under a
    temporary name beside each file, and all are moved into place only
    once all are written; a failure removes them and any directory of out
    that this call made, so out is left as it was."""
    paths = [os.path.join(out, name) for name, _ in files]
    for path in paths:
        if os.path.isdir(path):
            raise RelHpeError(f"{path}: not written, it is a directory")
    made, parent = [], os.path.abspath(out)
    while not os.path.exists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    os.makedirs(out or os.curdir, exist_ok=True)
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        for temp, (_, chunks) in zip(temps, files):
            with open(temp, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            if os.path.lexists(temp):
                os.remove(temp)
        for directory in made:  # innermost first
            os.rmdir(directory)
        raise
    return paths


def write_report(out, sets):
    """Write every report set (stem, env, extensions) of sets as one
    through write_files: <out>/<stem>.<ext> for each extension in order,
    'json' the envelope env and any other the text FILES builds from its
    payload.  Every text is built first, each env encoded whatever its
    extensions: a report holding nan or inf writes nothing and is a
    RelHpeError naming its set's first file.  Then 'wrote <path>' is
    printed for each file."""
    files = []
    for stem, env, extensions in sets:
        try:
            json_text = _json_text(env)
        except ValueError:
            raise RelHpeError(f"{os.path.join(out, f'{stem}.{extensions[0]}')}: "
                              "not written, the report holds nan or inf") from None
        build = FILES[env["command"]]
        files += [(f"{stem}.{ext}", [json_text if ext == "json"
                                     else globals()[build[ext]](env["payload"])])
                  for ext in extensions]
    for path in write_files(out, files):
        print(f"wrote {path}")


def metric_payload(reports: dict) -> dict:
    return {est: rep.as_dict() for est, rep in reports.items()}


def sweep_payload(rep: SweepReport) -> dict:
    return {"axis": rep.axis, "bin_width_deg": rep.bin_width_deg,
            "total_paired": rep.total_paired, "total_unpaired": rep.total_unpaired,
            "bins": [{"lo": b.lo, "hi": b.hi, "pair_count": b.pair_count,
                      "reports": {est: r.as_dict() for est, r in b.reports.items()}}
                     for b in rep.bins]}


def pairs_payload(ps: PairSet) -> dict:
    return {"name": ps.name, "seed": ps.seed, "stats": ps.stats,
            "pairs": [list(p) for p in ps.pairs]}


def loss_payload(total, breakdown) -> dict:  # breakdown: losses.StageBreakdown
    return {"total": total,
            "stages": [{"k": b.stage_index, "weight": b.weight,
                        "translation": b.translation, "rotation": b.rotation,
                        "fov": b.fov, "total": b.total} for b in breakdown]}


def _csv_string(columns, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows(rows)
    return buf.getvalue()


def _metric_cells(report: dict, columns) -> list:
    """A metric report's cells; a translation (mm) is blank if it has none."""
    return [report.get(c, "") if c.endswith("_mm") else report[c] for c in columns]


def metric_csv(payload: dict) -> str:
    """CSV rows of a metric_payload, one per estimator; TypeError unless
    the payload is a JSON object."""
    if not isinstance(payload, dict):
        raise TypeError(f"metric payload is not an object: {payload!r:.40}")
    return _csv_string(METRIC_CSV_COLUMNS, [
        [est] + _metric_cells(payload[est], METRIC_CSV_COLUMNS[1:])
        for est in sorted(payload)])


def sweep_csv(payload: dict) -> str:
    """CSV rows of a sweep_payload, one per bin and estimator."""
    return _csv_string(SWEEP_CSV_COLUMNS, [
        [b["lo"], b["hi"], est,
         *_metric_cells(b["reports"][est], SWEEP_CSV_COLUMNS[3:-1]), b["pair_count"]]
        for b in payload["bins"] for est in sorted(b["reports"])])


def pairs_csv(payload: dict) -> str:
    """CSV rows of a pairs_payload, one per pair; TypeError unless each
    pair is a list of three values, the third a number."""
    pairs = payload["pairs"]
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == len(PAIRS_CSV_COLUMNS)
                and isinstance(pair[2], (int, float))
                and not isinstance(pair[2], bool)):
            raise TypeError(f"pair {pair!r:.40} is not [anchor_id, query_id, "
                            f"gap_deg]")
    return _csv_string(PAIRS_CSV_COLUMNS, pairs)


# ---------------------------------------------------------------------------
# SVG sweep chart: MAE-vs-bin polylines on top, pair-count band below.

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def sweep_svg(payload: dict) -> str:
    """Line chart of a sweep_payload's per-bin MAE for each estimator with a
    lower band showing the number of pairs per bin."""
    width, height, margin, band_h = 640, 420, 50, 80
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin - band_h
    bins = payload["bins"]
    n_bins = max(len(bins), 1)
    max_mae = max((r["mae"] for b in bins for r in b["reports"].values()
                   if r["n"] > 0), default=1.0) or 1.0
    max_count = max((b["pair_count"] for b in bins), default=1) or 1

    def x_of(i):
        return margin + plot_w * (i + 0.5) / n_bins

    def y_of(mae):
        return margin + plot_h * (1.0 - mae / max_mae)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444"/>',
        f'<text x="{margin}" y="{margin - 10}" font-size="13">'
        f'rotation MAE (deg) vs {payload["axis"]} bin</text>',
    ]
    estimators = sorted({est for b in bins for est in b["reports"]})
    for ei, est in enumerate(estimators):
        color = _PALETTE[ei % len(_PALETTE)]
        pts = [(x_of(i), y_of(b["reports"][est]["mae"]))
               for i, b in enumerate(bins) if b["reports"][est]["n"] > 0]
        if pts:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
            parts.append(f'<polyline points="{path}" fill="none" '
                         f'stroke="{color}" stroke-width="2"/>')
            for x, y in pts:
                parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" '
                             f'fill="{color}"/>')
        ly = margin + 16 + 14 * ei
        parts.append(f'<rect x="{margin + 8}" y="{ly - 9}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{margin + 22}" y="{ly}" font-size="11">{est}</text>')
    # axis labels
    parts.append(f'<text x="{margin - 8}" y="{margin + 4}" font-size="10" '
                 f'text-anchor="end">{_fmt(max_mae)}</text>')
    parts.append(f'<text x="{margin - 8}" y="{margin + plot_h}" font-size="10" '
                 f'text-anchor="end">0</text>')
    # count band
    band_top = margin + plot_h + 20
    parts.append(f'<rect x="{margin}" y="{band_top}" width="{plot_w}" '
                 f'height="{band_h}" fill="none" stroke="#444"/>')
    parts.append(f'<text x="{margin}" y="{band_top + band_h + 32}" '
                 f'font-size="11">pairs per bin (max {max_count})</text>')
    bar_w = plot_w / n_bins
    for i, b in enumerate(bins):
        h = band_h * b["pair_count"] / max_count
        x = margin + i * bar_w
        parts.append(f'<rect class="count-bar" x="{_fmt(x + 1)}" '
                     f'y="{_fmt(band_top + band_h - h)}" '
                     f'width="{_fmt(max(bar_w - 2, 1))}" height="{_fmt(h)}" '
                     f'fill="#999"/>')
        parts.append(f'<text x="{_fmt(x + bar_w / 2)}" y="{band_top + band_h + 16}" '
                     f'font-size="9" text-anchor="middle" '
                     f'visibility="{"visible" if i % 2 == 0 else "hidden"}">'
                     f'{b["lo"]:.0f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
