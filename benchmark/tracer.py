"""In-memory spans and call counters around relhpe's public functions.

The tracer wraps module-level functions and methods from outside the
package: relhpe's own source is never edited.  Coarse functions become
spans (name, start, end, parent, run id).  Scalar functions that run tens
of thousands of times per command become counters keyed by
(name, enclosing span), holding call count, total and self time, so a
traced run does not allocate one record per call.

Every frame on the stack, span or counter, adds its duration to the child
time of the frame below it.  Self time is duration minus child time, so
the self times of all spans and counters sum to the duration of the root
span and each nanosecond is charged to exactly one layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

MODULES = ("geometry", "camera", "losses", "anchors", "poselog", "harness",
           "simulate", "reports", "cli")


def _pairs_attrs(args, kwargs, result):
    log = args[0] if args else kwargs["log"]
    return {"frames": len(log), "pairs_sampled": len(result.pairs)}


def _assign_attrs(args, kwargs, result):
    policy = args[1] if len(args) > 1 else kwargs["policy"]
    paired = sum(1 for a in result if a.paired)
    return {"policy": policy.kind, "paired": paired,
            "unpaired": len(result) - paired}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _lines_parsed(args, kwargs, result):
    return {"lines_parsed": sum(len(log) for log in result)}


# (dotted target inside relhpe, kind, attrs function).  Spans sit at layer
# boundaries; counters wrap the per-frame scalar functions.
PLAN = (
    ("cli.main", "span", None),
    ("cli.cmd_simulate", "span", None),
    ("cli.cmd_sweep", "span", None),
    ("cli.cmd_pairs", "span", None),
    ("cli.cmd_eval", "span", None),
    ("cli.cmd_report", "span", None),
    ("cli.cmd_loss", "span", None),
    ("harness.ingest_canonical_all", "span", _lines_parsed),
    ("harness.export_canonical", "span", None),
    ("harness.neutral_reference", "span", None),
    ("harness.build_hard_pairs", "span", _pairs_attrs),
    ("harness.build_easy_pairs", "span", _pairs_attrs),
    ("harness.evaluate", "span", None),
    ("harness.sweep", "span", None),
    ("anchors.assign_anchors", "span", _assign_attrs),
    ("simulate.sample_logs", "span", None),
    ("simulate.load_predictions_csv", "span", None),
    ("reports.envelope", "span", None),
    ("reports.sweep_payload", "span", None),
    ("reports.pairs_payload", "span", None),
    ("reports.metric_payload", "span", None),
    ("reports.sweep_csv", "span", _text_bytes),
    ("reports.pairs_csv", "span", _text_bytes),
    ("reports.metric_csv", "span", _text_bytes),
    ("reports.sweep_svg", "span", _text_bytes),
    ("reports.write_json", "span", _file_bytes),
    ("reports.file_sha256", "span", None),
    ("losses.loss_cam", "span", None),
    ("poselog.PoseLog.pose_of", "counter", None),
    ("geometry.geodesic_deg", "counter", None),
    ("geometry.compose", "counter", None),
    ("geometry.relative", "counter", None),
    ("geometry.apply_anchor", "counter", None),
    ("geometry.euler_from_rotation", "counter", None),
    ("geometry.rotation_from_euler", "counter", None),
    ("simulate.AbsoluteSimEstimator.predict_absolute", "counter", None),
    ("simulate.RelativeSimEstimator.predict_relative", "counter", None),
    ("camera.logtan_fov", "counter", None),
)


def metric_name(target: str) -> str:
    """'poselog.PoseLog.pose_of' -> 'poselog.pose_of' (layer.function)."""
    parts = target.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Tracer:
    """Span and counter recorder for one process (one CLI command)."""

    def __init__(self, run_id: str, clock=time.perf_counter_ns):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self.counters = {}   # (name, parent span name) -> [calls, total_ns, self_ns]
        self._stack = []     # open frames; index 0 of each is its child time
        self._open = []      # open span frames: [child_ns, name, span_id]
        self._next_id = 0

    def record_span(self, name, start_ns, end_ns):
        """Add an already-measured root-level span (e.g. import time)."""
        self.spans.append({"type": "span", "name": name, "id": self._next_id,
                           "parent": None, "run": self.run_id,
                           "start_ns": start_ns, "end_ns": end_ns,
                           "self_ns": end_ns - start_ns})
        self._next_id += 1

    def span(self, name, fn, attrs=None):
        stack, open_spans, clock = self._stack, self._open, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = open_spans[-1][2] if open_spans else None
            frame = [0, name, self._next_id]
            self._next_id += 1
            stack.append(frame)
            open_spans.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                open_spans.pop()
                if stack:
                    stack[-1][0] += end - start
                rec = {"type": "span", "name": name, "id": frame[2],
                       "parent": parent, "run": self.run_id,
                       "start_ns": start, "end_ns": end,
                       "self_ns": end - start - frame[0]}
                if ok and attrs is not None:
                    rec["attrs"] = attrs(args, kwargs, result)
                self.spans.append(rec)
        return wrapper

    def counter(self, name, fn):
        stack, open_spans, clock = self._stack, self._open, self.clock
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                key = (name, open_spans[-1][1] if open_spans else None)
                rec = counters.get(key)
                if rec is None:
                    rec = counters[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
        return wrapper

    def records(self):
        """All spans, then one record per (counter, parent span)."""
        out = list(self.spans)
        for (name, parent), (calls, total, own) in sorted(
                self.counters.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")):
            out.append({"type": "counter", "name": name, "parent": parent,
                        "run": self.run_id, "calls": calls, "total_ns": total,
                        "self_ns": own})
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _resolve(target):
    """(owner module or class, attribute name) for a dotted target."""
    parts = target.split(".")
    owner = importlib.import_module(f"relhpe.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer, plan=PLAN):
    """Wrap every target of the plan wherever a relhpe module bound it.

    A function imported with 'from .geometry import geodesic_deg' is a
    separate name in the importing module, so each binding of the same
    object is replaced.  Targets missing from this version of relhpe are
    reported on stderr and skipped; their metrics then read zero.
    """
    modules = [importlib.import_module(f"relhpe.{m}") for m in MODULES]
    for target, kind, attrs in plan:
        try:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            print(f"trace: {target} not found, not traced", file=sys.stderr)
            continue
        name = metric_name(target)
        wrapped = (tracer.span(name, original, attrs) if kind == "span"
                   else tracer.counter(name, original))
        if owner not in modules:        # a method: patch the class only
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
