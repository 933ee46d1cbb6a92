"""Report serialization: JSON envelopes, frozen-column CSV, and SVG charts.

Every report embeds the config echo, the seed, the report format version,
and the SHA-256 of each input file, so identical inputs reproduce identical
report bodies byte for byte.  No timestamps.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from typing import TYPE_CHECKING

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


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def envelope(command, config, seed, input_hashes, payload) -> dict:
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "command": command,
        "seed": seed,
        "config": config,
        "inputs_sha256": input_hashes,
        "payload": payload,
    }


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def metric_payload(reports: dict) -> dict:
    return {est: rep.as_dict() for est, rep in reports.items()}


def sweep_payload(rep: SweepReport) -> dict:
    return {
        "axis": rep.axis,
        "bin_width_deg": rep.bin_width_deg,
        "total_paired": rep.total_paired,
        "total_unpaired": rep.total_unpaired,
        "bins": [
            {"lo": b.lo, "hi": b.hi, "pair_count": b.pair_count,
             "reports": {est: r.as_dict() for est, r in b.reports.items()}}
            for b in rep.bins
        ],
    }


def pairs_payload(ps: PairSet) -> dict:
    return {"name": ps.name, "seed": ps.seed, "stats": ps.stats,
            "pairs": [list(p) for p in ps.pairs]}


def _csv_string(columns, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows(rows)
    return buf.getvalue()


def metric_csv(payload: dict) -> str:
    """CSV rows of a metric_payload, one per estimator."""
    rows = []
    for est in sorted(payload):
        r = payload[est]
        rows.append([est, r["n"], r["yaw_mae"], r["pitch_mae"], r["roll_mae"],
                     r["mae"], r["geodesic_mae"], r.get("tx_mae_mm", ""),
                     r.get("ty_mae_mm", ""), r.get("tz_mae_mm", ""),
                     r.get("t_l2_mm", "")])
    return _csv_string(METRIC_CSV_COLUMNS, rows)


def sweep_csv(payload: dict) -> str:
    """CSV rows of a sweep_payload, one per bin and estimator."""
    rows = []
    for b in payload["bins"]:
        for est in sorted(b["reports"]):
            r = b["reports"][est]
            rows.append([b["lo"], b["hi"], est, r["n"], r["yaw_mae"],
                         r["pitch_mae"], r["roll_mae"], r["mae"],
                         r["geodesic_mae"], b["pair_count"]])
    return _csv_string(SWEEP_CSV_COLUMNS, rows)


def pairs_csv(payload: dict) -> str:
    """CSV rows of a pairs_payload, one per pair."""
    return _csv_string(PAIRS_CSV_COLUMNS, payload["pairs"])


# ---------------------------------------------------------------------------
# SVG sweep chart: MAE-vs-bin polylines on top, pair-count band below.

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def sweep_svg(rep: SweepReport, width=640, height=420) -> str:
    """Line chart of per-bin MAE for each estimator with a lower band
    showing the number of pairs per bin."""
    margin = 50
    band_h = 80
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin - band_h
    bins = rep.bins
    n_bins = max(len(bins), 1)
    max_mae = max((r.mae for b in bins for r in b.reports.values() if r.n > 0),
                  default=1.0) or 1.0
    max_count = max((b.pair_count for b in bins), default=1) or 1

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
        f'rotation MAE (deg) vs {rep.axis} bin</text>',
    ]
    estimators = sorted({est for b in bins for est in b.reports})
    for ei, est in enumerate(estimators):
        color = _PALETTE[ei % len(_PALETTE)]
        pts = [(x_of(i), y_of(b.reports[est].mae))
               for i, b in enumerate(bins) if b.reports[est].n > 0]
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
        h = band_h * b.pair_count / max_count
        x = margin + i * bar_w
        parts.append(f'<rect class="count-bar" x="{_fmt(x + 1)}" '
                     f'y="{_fmt(band_top + band_h - h)}" '
                     f'width="{_fmt(max(bar_w - 2, 1))}" height="{_fmt(h)}" '
                     f'fill="#999"/>')
        parts.append(f'<text x="{_fmt(x + bar_w / 2)}" y="{band_top + band_h + 16}" '
                     f'font-size="9" text-anchor="middle" '
                     f'visibility="{"visible" if i % 2 == 0 else "hidden"}">'
                     f'{b.lo:.0f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
