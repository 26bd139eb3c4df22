"""Self-time arithmetic of the span recorder, and its cost when switched off."""

import importlib

from perfbench.instrument import TARGETS, install, per_layer_metrics
from perfbench.spans import SpanRecorder, no_span


def fake_clock(*readings):
    values = iter(readings)
    return lambda: next(values)


def test_self_time_subtracts_the_time_children_cover():
    # outer 0..10 holds inner 1..4 (which holds leaf 2..3) and sibling 5..6.
    recorder = SpanRecorder(clock=fake_clock(0, 1, 2, 3, 4, 5, 6, 10))
    recorder.enter("outer")
    recorder.enter("inner")
    recorder.enter("leaf")
    recorder.exit()
    recorder.exit()
    recorder.enter("sibling")
    recorder.exit()
    recorder.exit()
    assert recorder.totals == {
        "leaf": [1, 1, 1],
        "inner": [1, 3, 2],
        "sibling": [1, 1, 1],
        "outer": [1, 10, 6],
    }
    # Self times partition the root's duration exactly.
    assert sum(entry[2] for entry in recorder.totals.values()) == 10
    names = [record[0] for record in recorder.records]
    parents = [record[3] for record in recorder.records]
    assert names == ["outer", "inner", "leaf", "sibling"]
    assert parents == [None, 0, 1, 0]


def test_hot_spans_are_totalled_but_not_kept():
    recorder = SpanRecorder(clock=fake_clock(0, 1, 3, 4, 6, 9))
    recorder.enter("point")
    for _ in range(2):
        recorder.enter("step", hot=True)
        recorder.exit()
    recorder.exit()
    assert [record[0] for record in recorder.records] == ["point"]
    assert recorder.totals["step"] == [2, 4, 4]
    assert recorder.totals["point"] == [1, 9, 5]


def test_wrapped_points_share_one_id_per_call():
    recorder = SpanRecorder()
    inner = recorder.wrap("work", lambda: recorder.point)
    point = recorder.wrap("experiments.point", lambda: inner(), point=True)
    assert [point(), point()] == [1, 2]
    assert recorder.point is None
    by_name = {}
    for name, _, _, _, point_id in recorder.records:
        by_name.setdefault(name, []).append(point_id)
    assert by_name == {"experiments.point": [1, 2], "work": [1, 2]}


def test_observers_run_outside_the_span():
    recorder = SpanRecorder(clock=fake_clock(0, 2))
    seen = []
    wrapped = recorder.wrap(
        "f", lambda x: x * 2, before=lambda args: args[0],
        after=lambda pre, args, result: seen.append((pre, result)),
    )
    assert wrapped(21) == 42
    assert seen == [(21, 42)]
    assert recorder.totals["f"] == [1, 2, 2]


def _current_targets():
    found = []
    for _, module_name, attribute, _, _ in TARGETS:
        owner = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
        found.append(vars(owner)[member])
    return found


def test_switched_off_recorder_patches_nothing():
    originals = _current_targets()
    assert not any(hasattr(target, "__wrapped__") for target in originals)
    # The untraced run's call-site spans are one shared no-op context.
    assert no_span("evaluation.assemble") is no_span("evaluation.report")
    uninstall = install(SpanRecorder())
    try:
        assert all(a is not b for a, b in zip(_current_targets(), originals))
    finally:
        uninstall()
    assert all(a is b for a, b in zip(_current_targets(), originals))


def test_traced_point_reports_its_layers():
    from repro.evaluation.fig5 import simulate_fig5_point

    recorder = SpanRecorder()
    uninstall = install(recorder)
    try:
        simulate_fig5_point(
            topology="toph", load=0.2, engine="vector", warmup_cycles=10, measure_cycles=20
        )
    finally:
        uninstall()
    metrics = per_layer_metrics(recorder, traced_wall_s=1.0, untraced_wall_s=0.5)
    assert metrics["engine.advance_calls"] == 30
    assert metrics["topologies.build_calls"] == 1
    assert metrics["workloads.requests"] == recorder.calls("engine.new_flit") > 0
    assert 0 < metrics["engine.inject_accept_ratio"] <= 1
    assert metrics["core.step_calls"] == 0
    assert metrics["trace.overhead_s"] == 0.5
