import json

import pytest

import layers
from tracer import Tracer, metric_name


class FakeClock:
    """Advances by the given step each time it is read."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def _nested_tracer():
    clock = FakeClock()
    tr = Tracer("run0", clock=clock)

    def leaf():
        clock.advance(5)

    def scalar():
        clock.advance(2)
        inner_scalar()       # a counter inside a counter

    def inner(n):
        clock.advance(10)
        for _ in range(n):
            scalar()
        leaf_span()
        clock.advance(1)

    def outer():
        clock.advance(100)
        inner_span(3)
        clock.advance(7)

    inner_scalar = tr.counter("geometry.geodesic_deg", lambda: clock.advance(3))
    scalar = tr.counter("poselog.pose_of", scalar)
    leaf_span = tr.span("harness.neutral_reference", leaf)
    inner_span = tr.span("harness.build_hard_pairs", inner)
    outer_span = tr.span("cli.main", outer)
    outer_span()
    return tr


def test_self_time_excludes_child_spans_and_counters():
    tr = _nested_tracer()
    spans = {s["name"]: s for s in tr.spans}
    # inner: 10 + 3 * (2 + 3) + 5 + 1 = 31; leaf 5; outer 100 + 31 + 7
    assert spans["harness.neutral_reference"]["self_ns"] == 5
    assert spans["harness.build_hard_pairs"]["end_ns"] - \
        spans["harness.build_hard_pairs"]["start_ns"] == 31
    assert spans["harness.build_hard_pairs"]["self_ns"] == 10 + 1
    assert spans["cli.main"]["self_ns"] == 107
    assert spans["harness.neutral_reference"]["parent"] == \
        spans["harness.build_hard_pairs"]["id"]
    assert spans["cli.main"]["parent"] is None

    # counters are keyed by the enclosing span; a nested counter's time is
    # taken out of the outer counter's self time only
    assert tr.counters[("poselog.pose_of", "harness.build_hard_pairs")] == [3, 15, 6]
    assert tr.counters[("geometry.geodesic_deg", "harness.build_hard_pairs")] == [3, 9, 9]

    total_self = sum(s["self_ns"] for s in tr.spans) + \
        sum(c[2] for c in tr.counters.values())
    assert total_self == 138 == spans["cli.main"]["end_ns"] - \
        spans["cli.main"]["start_ns"]


def test_layer_metrics_from_records(tmp_path):
    tr = _nested_tracer()
    path = tmp_path / "t.jsonl"
    tr.write(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert {r["run"] for r in records} == {"run0"}
    m = layers.pass_metrics([("pairs", 276e-9, records)])
    assert m["cli.pairs_s"] == m["trace.wall_s"] == 276e-9
    assert m["trace.coverage"] == pytest.approx(0.5)   # main spans 138 ns
    assert m["poselog.pose_of_calls"] == 3
    assert m["geometry.geodesic_deg_calls.candidates"] == 3
    assert m["harness.neutral_reference_calls"] == 1
    assert m["cli.self_s"] == pytest.approx(107e-9)
    assert m["harness.self_s"] == pytest.approx((11 + 5) * 1e-9)
    assert sum(m[f"{layer}.self_s"] for layer in layers.LAYERS) == \
        pytest.approx(138e-9)


def test_metric_name_drops_class():
    assert metric_name("poselog.PoseLog.pose_of") == "poselog.pose_of"
    assert metric_name("geometry.geodesic_deg") == "geometry.geodesic_deg"
