"""``sweep(cells, fn)``: independent cells side by side, one output.

Each cell runs in a child forked from the test process; the worker
count is ``os.cpu_count()``, patched here to pin 1 against 2.  What the
cells ship is absorbed in cell order, so the rows, the merged series
and the recorder's absorbed cells cannot depend on that count.  A child
that dies, or a cell that raises, is a named error.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.commands import FillCommand
from repro.core.wire import WireCodec
from repro.errors import SimulationError
from repro.experiments import fleet_scale
from repro.experiments.runner import sweep
from repro.framebuffer import Rect
from repro.netsim.engine import Simulator
from repro.obs import FlightRecorder, SlimcapReader, TimeSeriesCollection
from repro.runcontext import RunContext, current_run, use_run
from repro.telemetry import MetricsRegistry


def _workers(monkeypatch, n):
    monkeypatch.setattr("os.cpu_count", lambda: n)


def test_one_and_two_workers_are_byte_identical(monkeypatch):
    outputs = []
    for workers in (1, 2):
        _workers(monkeypatch, workers)
        collection = TimeSeriesCollection(window=60.0)
        recorder = FlightRecorder(out_dir=None)
        with use_run(collection=collection, recorder=recorder):
            result = fleet_scale.run(n_users=400, duration=2 * 3600.0)
        outputs.append(
            (
                json.dumps(result.rows, sort_keys=True),
                json.dumps(collection.to_records(), sort_keys=True),
                list(recorder._cells_absorbed),
            )
        )
    assert outputs[0] == outputs[1]
    assert outputs[0][2] == list(range(fleet_scale.SLICES))


def _die_or_wait(cell):
    if cell == "victim":
        os.kill(os.getpid(), signal.SIGKILL)
    if cell == "sleeper":
        time.sleep(60)
    return cell


@pytest.mark.parametrize("waiting_for", ["victim", "sleepers"])
def test_killed_worker_is_a_named_error(monkeypatch, waiting_for):
    """A child the OS killed: the sweep names its cell (not a bare
    EOFError) within 10 s — also while its siblings would run for a
    minute — and reaps every child."""
    if waiting_for == "victim":
        _workers(monkeypatch, 1)
        cells = ["ok", "victim", "ok"]
    else:
        _workers(monkeypatch, 3)
        cells = ["sleeper", "victim", "sleeper"]
    started = time.monotonic()
    with pytest.raises(SimulationError) as caught:
        sweep(cells, _die_or_wait)
    assert time.monotonic() - started < 10
    assert "cell 1 exited (exitcode -9)" in str(caught.value)
    assert multiprocessing.active_children() == []


def test_a_raising_cell_carries_the_childs_traceback():
    def invert(cell):
        return 1 / cell

    with pytest.raises(SimulationError) as caught:
        sweep([1, 0], invert)
    message = str(caught.value)
    assert message.startswith("cell 1 failed: ZeroDivisionError")
    assert "Traceback (most recent call last)" in message
    assert "in invert" in message


def _ticking_cell(cell):
    """Two sampled simulators, each bumping the cell's counter ten
    times; answers whether the cell had a collection to sample into."""
    registry = current_run().registry = MetricsRegistry()
    counter = registry.counter("sweep.ticks", cell=str(cell))
    for _ in range(2):
        sim = Simulator()
        for i in range(10):
            sim.schedule_at(0.5 * i, counter.inc)
        sim.run()
    return current_run().collection is not None


def test_every_sampled_run_of_every_cell_is_merged_under_a_collection():
    collection = TimeSeriesCollection(window=1.0)
    with use_run(collection=collection):
        assert sweep([0, 1], _ticking_cell) == [True, True]
    (merged,) = collection.runs
    assert merged.label == "run-1"
    ticks = {}
    for window in merged.windows:
        for key, delta in window["counters"].items():
            ticks[key] = ticks.get(key, 0) + delta
    # Both simulators of each cell, not only the first one that sampled.
    assert ticks == {"sweep.ticks{cell=0}": 20, "sweep.ticks{cell=1}": 20}


def test_no_series_without_a_collection():
    assert sweep([0, 1], _ticking_cell) == [False, False]
    assert current_run() == RunContext()


def _capturing_cell(cell):
    for datagram in WireCodec().fragment(
        FillCommand(rect=Rect(cell, 0, 8, 8), color=(cell, 0, 0))
    ):
        current_run().capture.frame(0.1 * cell, "server", f"console-{cell}", datagram)
    return len(current_run().capture)


def test_cell_wire_frames_join_the_parents_ring():
    recorder = FlightRecorder(out_dir=None)
    with use_run(recorder=recorder):
        captured = sweep([1, 2], _capturing_cell)
    assert recorder._cells_absorbed == [0, 1]
    assert len(recorder.capture) == sum(captured) > 0
    reader = SlimcapReader.from_bytes(recorder.capture.dump_bytes())
    assert len(list(reader.frames())) == sum(captured)
    assert not reader.truncated
