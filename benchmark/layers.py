"""Per-layer metrics from the spans and counters of one traced pass.

Layers are relhpe's modules.  Each metric is summed over every CLI
command of the pass; per-call figures (``*_us``) are total time over
call count.
"""

from __future__ import annotations

from collections import defaultdict

COMMANDS = ("simulate", "sweep", "pairs", "eval", "report", "loss")
LAYERS = ("cli", "harness", "anchors", "geometry", "poselog", "simulate",
          "reports", "losses", "camera")
POLICIES = ("fixed_first", "temporal_previous", "nearest_within")
PAIR_SPANS = ("harness.build_hard_pairs", "harness.build_easy_pairs")
# geodesic_deg calls are grouped by the span that made them.
GEODESIC_GROUPS = ("anchors", "medoid", "candidates", "estimators", "other")
_GEODESIC_PARENT = {
    "anchors.assign_anchors": "anchors",
    "harness.neutral_reference": "medoid",
    "harness.build_hard_pairs": "candidates",
    "harness.build_easy_pairs": "candidates",
    "harness.sweep": "estimators",
    "harness.evaluate": "estimators",
}
SERIALIZERS = ("reports.envelope", "reports.sweep_payload",
               "reports.pairs_payload", "reports.metric_payload",
               "reports.sweep_csv", "reports.pairs_csv", "reports.metric_csv",
               "reports.sweep_svg")

# (name, unit, better) for every metric a traced run reports.
METRICS = (
    *((f"cli.{c}_s", "s", "lower") for c in COMMANDS),
    ("cli.import_s", "s", "lower"),
    ("poselog.pose_of_calls", "count", "lower"),
    ("poselog.pose_of_s", "s", "lower"),
    *((f"geometry.geodesic_deg_calls.{g}", "count", "lower") for g in GEODESIC_GROUPS),
    *((f"geometry.geodesic_deg_s.{g}", "s", "lower") for g in GEODESIC_GROUPS),
    ("geometry.relative_us", "us", "lower"),
    ("geometry.apply_anchor_us", "us", "lower"),
    ("geometry.compose_calls", "count", "lower"),
    ("geometry.euler_from_rotation_s", "s", "lower"),
    *((f"anchors.assign_anchors_s.{p}", "s", "lower") for p in POLICIES),
    ("anchors.paired", "count", "higher"),
    ("anchors.unpaired", "count", "lower"),
    ("harness.neutral_reference_s", "s", "lower"),
    ("harness.neutral_reference_calls", "count", "lower"),
    ("harness.pair_candidates", "count", "lower"),
    ("harness.pairs_sampled", "count", "higher"),
    ("harness.pair_yield", "ratio", "higher"),
    ("harness.ingest_canonical_all_s", "s", "lower"),
    ("harness.lines_parsed", "count", "lower"),
    ("harness.export_canonical_s", "s", "lower"),
    ("harness.evaluate_s", "s", "lower"),
    ("harness.sweep_self_s", "s", "lower"),
    ("simulate.predict_absolute_us", "us", "lower"),
    ("simulate.predict_relative_us", "us", "lower"),
    ("simulate.sample_logs_s", "s", "lower"),
    ("simulate.load_predictions_csv_s", "s", "lower"),
    ("reports.serialize_s", "s", "lower"),
    ("reports.write_json_s", "s", "lower"),
    ("reports.file_sha256_s", "s", "lower"),
    ("reports.bytes_written", "bytes", "lower"),
    ("losses.loss_cam_s", "s", "lower"),
    ("camera.logtan_fov_calls", "count", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def pass_metrics(steps):
    """Metrics of one traced pass.

    steps: (command, child wall seconds, trace records) per CLI command,
    the wall time measured by the parent from spawn to exit; the pass wall
    time is their sum.  trace.coverage is the share of it that the child's
    own spans (import and main) cover; the rest is interpreter start-up and
    exit.  trace.overhead_s needs the untraced pass and is left at 0 here.
    """
    m = {name: 0.0 for name, _, _ in METRICS}
    span_s = defaultdict(float)
    span_calls = defaultdict(int)
    attrs = defaultdict(float)
    calls = defaultdict(int)
    total_s = defaultdict(float)
    for command, wall_s, records in steps:
        m[f"cli.{command}_s"] += wall_s
        for r in records:
            name = r["name"]
            layer = name.split(".")[0]
            if layer in LAYERS:
                m[f"{layer}.self_s"] += r["self_ns"] / 1e9
            if r["type"] == "span":
                dur = (r["end_ns"] - r["start_ns"]) / 1e9
                span_s[name] += dur
                span_calls[name] += 1
                a = r.get("attrs", {})
                for key, value in a.items():
                    if key != "policy":
                        attrs[f"{name}:{key}"] += value
                if name == "anchors.assign_anchors" and a.get("policy") in POLICIES:
                    m[f"anchors.assign_anchors_s.{a['policy']}"] += dur
                if name == "harness.sweep":
                    m["harness.sweep_self_s"] += r["self_ns"] / 1e9
            else:
                calls[name] += r["calls"]
                total_s[name] += r["total_ns"] / 1e9
                if name == "geometry.geodesic_deg":
                    group = _GEODESIC_PARENT.get(r["parent"], "other")
                    m[f"geometry.geodesic_deg_calls.{group}"] += r["calls"]
                    m[f"geometry.geodesic_deg_s.{group}"] += r["total_ns"] / 1e9
                    if r["parent"] in PAIR_SPANS:
                        attrs["pairs:geodesic_calls"] += r["calls"]

    def per_call_us(name):
        return total_s[name] / calls[name] * 1e6 if calls[name] else 0.0

    m["cli.import_s"] = span_s["cli.import"]
    m["poselog.pose_of_calls"] = calls["poselog.pose_of"]
    m["poselog.pose_of_s"] = total_s["poselog.pose_of"]
    m["geometry.relative_us"] = per_call_us("geometry.relative")
    m["geometry.apply_anchor_us"] = per_call_us("geometry.apply_anchor")
    m["geometry.compose_calls"] = calls["geometry.compose"]
    m["geometry.euler_from_rotation_s"] = total_s["geometry.euler_from_rotation"]
    m["anchors.paired"] = attrs["anchors.assign_anchors:paired"]
    m["anchors.unpaired"] = attrs["anchors.assign_anchors:unpaired"]
    m["harness.neutral_reference_s"] = span_s["harness.neutral_reference"]
    m["harness.neutral_reference_calls"] = span_calls["harness.neutral_reference"]
    # Under build_*_pairs, one geodesic_deg call per frame measures its
    # distance to the neutral reference; every other call is one
    # candidate pair considered.
    frames = sum(attrs[f"{b}:frames"] for b in PAIR_SPANS)
    sampled = sum(attrs[f"{b}:pairs_sampled"] for b in PAIR_SPANS)
    candidates = attrs["pairs:geodesic_calls"] - frames
    m["harness.pair_candidates"] = candidates
    m["harness.pairs_sampled"] = sampled
    m["harness.pair_yield"] = sampled / candidates if candidates > 0 else 0.0
    m["harness.ingest_canonical_all_s"] = span_s["harness.ingest_canonical_all"]
    m["harness.lines_parsed"] = attrs["harness.ingest_canonical_all:lines_parsed"]
    m["harness.export_canonical_s"] = span_s["harness.export_canonical"]
    m["harness.evaluate_s"] = span_s["harness.evaluate"]
    m["simulate.predict_absolute_us"] = per_call_us("simulate.predict_absolute")
    m["simulate.predict_relative_us"] = per_call_us("simulate.predict_relative")
    m["simulate.sample_logs_s"] = span_s["simulate.sample_logs"]
    m["simulate.load_predictions_csv_s"] = span_s["simulate.load_predictions_csv"]
    m["reports.serialize_s"] = sum(span_s[name] for name in SERIALIZERS)
    m["reports.write_json_s"] = span_s["reports.write_json"]
    m["reports.file_sha256_s"] = span_s["reports.file_sha256"]
    m["reports.bytes_written"] = sum(v for k, v in attrs.items()
                                     if k.startswith("reports.") and k.endswith(":bytes"))
    m["losses.loss_cam_s"] = span_s["losses.loss_cam"]
    m["camera.logtan_fov_calls"] = calls["camera.logtan_fov"]
    wall_s = sum(m[f"cli.{c}_s"] for c in COMMANDS)
    m["trace.wall_s"] = wall_s
    m["trace.coverage"] = ((span_s["cli.import"] + span_s["cli.main"]) / wall_s
                           if wall_s > 0 else 0.0)
    return m
