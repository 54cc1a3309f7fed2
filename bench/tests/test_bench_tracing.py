"""Self-time arithmetic of the span recorder, on hand-built nests."""

import pytest

import tracing


class FakeClock:
    """Each read advances by the next scripted step."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter", clock)
    return clock


def test_self_time_is_parent_minus_children():
    # parent 0..10 with children 2..5 and 6..7; a grandchild 3..4.
    spans = [
        ("a", 0.0, 10.0, 1, 0),
        ("b", 2.0, 5.0, 2, 1),
        ("c", 3.0, 4.0, 3, 2),
        ("b", 6.0, 7.0, 4, 1),
    ]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert sum(tracing.self_times(spans).values()) == 10.0


def test_recorder_matches_reference_on_nested_calls(clock):
    recorder = tracing.SpanRecorder()

    def leaf():
        clock.advance(1.0)

    leaf = recorder.wrap("c", "leaf", leaf)

    def middle():
        clock.advance(0.5)
        leaf()
        clock.advance(0.25)
        leaf()

    middle = recorder.wrap("b", "middle", middle)

    def outer():
        clock.advance(2.0)
        middle()
        clock.advance(3.0)

    recorder.wrap("a", "outer", outer)()
    assert recorder.self_s == {"a": 5.0, "b": 0.75, "c": 2.0}
    assert recorder.calls == {"outer": 1, "middle": 1, "leaf": 2}
    assert recorder.layer_of == {"outer": "a", "middle": "b", "leaf": "c"}
    reference = tracing.self_times(
        (layer, start, end, span_id, parent_id)
        for _name, layer, start, end, span_id, parent_id, _trace in recorder.records
    )
    assert reference == dict(recorder.self_s)


def test_recursion_counts_each_level_once(clock):
    recorder = tracing.SpanRecorder()

    def descend(depth):
        clock.advance(1.0)
        if depth:
            wrapped(depth - 1)

    wrapped = recorder.wrap("a", "descend", descend)
    wrapped(3)
    # Four nested spans of one layer: 4 s in all, none counted twice.
    assert recorder.self_s["a"] == 4.0
    assert recorder.calls["descend"] == 4


def test_exception_unwinding_restores_the_stack(clock):
    recorder = tracing.SpanRecorder()

    def fails():
        clock.advance(1.0)
        raise ValueError("boom")

    fails = recorder.wrap("b", "fails", fails)

    def outer():
        clock.advance(1.0)
        try:
            fails()
        except ValueError:
            clock.advance(0.5)

    outer = recorder.wrap("a", "outer", outer)
    outer()
    assert recorder._stack == []
    assert recorder.self_s == {"a": 1.5, "b": 1.0}
    with pytest.raises(ValueError):
        fails()
    assert recorder._stack == []


def test_trace_id_is_shared_below_a_dispatched_root(clock):
    recorder = tracing.SpanRecorder(dispatchers={"loop"})
    leaf = recorder.wrap("c", "leaf", lambda: clock.advance(1.0))
    callback = recorder.wrap("b", "callback", leaf)
    recorder.wrap("a", "loop", lambda: (callback(), callback()))()
    by_name = {}
    for name, _layer, _s, _e, span_id, _parent, trace_id in recorder.records:
        by_name.setdefault(name, []).append((span_id, trace_id))
    # Each callback under the loop roots its own trace; its leaf shares it.
    assert [t for _s, t in by_name["callback"]] == [s for s, _t in by_name["callback"]]
    assert [t for _s, t in by_name["leaf"]] == [t for _s, t in by_name["callback"]]


def test_span_records_are_capped_but_totals_are_exact(clock):
    recorder = tracing.SpanRecorder(keep=2)
    tick = recorder.wrap("a", "tick", lambda: clock.advance(1.0))
    for _ in range(5):
        tick()
    assert len(recorder.records) == 2
    assert recorder.self_s["a"] == 5.0
    assert len(recorder.chrome_trace()["traceEvents"]) == 3  # 1 thread name + 2


def test_missing_wrap_target_fails_by_name_and_installs_nothing():
    recorder = tracing.SpanRecorder()
    import json as target_module

    original = target_module.dumps
    with pytest.raises(tracing.WrapTargetGone, match="json.no_such_function"):
        tracing.install(
            recorder, [("x", "json.dumps"), ("x", "json.no_such_function")]
        )
    assert target_module.dumps is original


def test_installed_wrapper_runs_the_original_in_a_span(monkeypatch):
    recorder = tracing.SpanRecorder()
    import json as target_module

    # Registered with monkeypatch first, so the original comes back.
    monkeypatch.setattr(target_module, "dumps", target_module.dumps)
    tracing.install(recorder, [("x", "json.dumps")])
    assert target_module.dumps([1]) == "[1]"
    assert recorder.calls == {"json.dumps": 1}


def test_every_wrap_target_resolves():
    import layers

    for _layer, path in layers.TARGETS + layers.FACTORY_TARGETS:
        tracing.resolve(path)
    assert {layer for layer, _ in layers.TARGETS} <= set(layers.LAYERS)
    assert layers.DISPATCHERS <= {path for _, path in layers.TARGETS}
