"""``sweep(cells, fn)``: one loop for independent cells.

Under a bare or recorder-only run each cell runs in a child forked from
the test process; the worker count is ``os.cpu_count()``, patched here
to pin 1 against 2.  Under any other observer the cells run in this
process, in order, under the run as it stands.  Neither the rows nor
the recorder's rings can depend on either choice.  A child that dies,
or a cell that raises, is a named error, and the rings of a cell that
raised still reach the crash bundle.
"""

import cProfile
import io
import json
import multiprocessing
import os
import signal
import time
import tracemalloc
import zipfile

import pytest

from repro.core.commands import FillCommand
from repro.core.wire import WireCodec
from repro.errors import SimulationError
from repro.experiments import fig9, fig10, fig11, fleet_scale, lossy_fabric, wan_matrix
from repro.experiments.__main__ import main
from repro.experiments.runner import EXPERIMENTS, experiment, sweep
from repro.framebuffer import Rect
from repro.netsim.engine import Simulator
from repro.obs import (
    FlightRecorder,
    SlimcapReader,
    SlimcapWriter,
    TimeSeriesCollection,
    TraceCollector,
)
from repro.obs.progress import ProgressMonitor
from repro.runcontext import RunContext, current_run, use_run
from repro.telemetry import MetricsRegistry


def _workers(monkeypatch, n):
    monkeypatch.setattr("os.cpu_count", lambda: n)


def test_one_and_two_workers_are_byte_identical(monkeypatch):
    outputs = []
    for workers in (1, 2):
        _workers(monkeypatch, workers)
        recorder = FlightRecorder(out_dir=None)
        with use_run(recorder=recorder):
            result = fleet_scale.run(n_users=400, duration=2 * 3600.0)
        outputs.append(
            (
                json.dumps(result.rows, sort_keys=True),
                recorder.capture.dump_bytes(),
                json.dumps(recorder._trace_records()),
                list(recorder.marks),
            )
        )
    assert outputs[0] == outputs[1]


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
    """Ten ticks of the run's counter on a simulator of the cell's own;
    answers the process the cell ran in."""
    counter = current_run().registry.counter("sweep.ticks", cell=str(cell))
    sim = Simulator()
    for i in range(10):
        sim.schedule_at(0.5 * i, counter.inc)
    sim.run()
    return os.getpid()


def _ring_recorder():
    return FlightRecorder(out_dir=None)


@pytest.mark.parametrize(
    "armed",
    [
        lambda tmp: {"registry": MetricsRegistry()},
        lambda tmp: {
            "registry": MetricsRegistry(),
            "collection": TimeSeriesCollection(window=1.0),
        },
        lambda tmp: {"progress": ProgressMonitor(stream=io.StringIO())},
        lambda tmp: {"tracer": TraceCollector()},
        lambda tmp: {"tracer": TraceCollector(), "recorder": _ring_recorder()},
        lambda tmp: {
            "capture": SlimcapWriter(tmp / "c.slimcap"),
            "recorder": _ring_recorder(),
        },
    ],
    ids=["registry", "collection", "painter", "tracer", "recorder+tracer",
         "recorder+capture"],
)  # fmt: skip
def test_cells_run_in_place_under_any_other_observer(tmp_path, armed):
    with use_run(**armed(tmp_path)) as run:
        pids = sweep([0, 1], _ticking_cell)
    assert pids == [os.getpid()] * 2
    if run.registry.enabled:
        ticks = [run.registry.counter("sweep.ticks", cell=c).value for c in "01"]
        assert ticks == [10, 10]
    if run.collection is not None:
        # Each cell's simulator sampled into a run of its own.
        assert len(run.collection.runs) == 2


def test_cells_run_in_place_under_a_profiler():
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        profiled = sweep([0], _ticking_cell)
    finally:
        profiler.disable()
    tracemalloc.start()
    try:
        traced = sweep([0], _ticking_cell)
    finally:
        tracemalloc.stop()
    assert profiled == traced == [os.getpid()]


@pytest.mark.parametrize("recorder", [None, "rings"])
def test_cells_fork_under_a_bare_or_recorder_only_run(recorder):
    fields = {"recorder": _ring_recorder()} if recorder else {}
    with use_run(**fields):
        pids = sweep([0, 1], _ticking_cell)
    assert os.getpid() not in pids and len(set(pids)) == 2
    assert current_run() == RunContext()


_CONVERTED = {
    "fig9": (fig9, {"DEFAULT_SWEEPS": {"Netscape": (2, 13), "PIM": (30,)}},
             {"duration": 12.0}),
    "fig10": (fig10, {"DEFAULT_CPU_COUNTS": (1, 2), "DEFAULT_USERS_PER_CPU": (6,)},
              {"duration": 12.0}),
    "fig11": (fig11, {"DEFAULT_SWEEPS": {"Netscape": (40, 110), "PIM": (120,)}},
              {"duration": 6.0}),
    "wan_matrix": (wan_matrix, {},
                   {"profiles": "lan,cellular", "workloads": "Netscape,ScrollHeavy",
                    "cell_seconds": 3.0}),
    "lossy_fabric": (lossy_fabric,
                     {"LOSS_RATES": (0.0, 0.1), "PROFILE_CELLS": ("wifi",)},
                     {"updates": 8}),
}  # fmt: skip


@pytest.mark.parametrize("experiment_id", list(_CONVERTED))
def test_a_grid_prints_the_same_rows_forked_and_in_place(monkeypatch, experiment_id):
    """The cells of every experiment that maps a grid through
    :func:`sweep` (on a reduced grid) give the same rows forked at 1
    and at 2 workers and run in place under a painter (an observer
    that keeps the fabric on the path a bare run takes)."""
    module, grid, overrides = _CONVERTED[experiment_id]
    for name, value in grid.items():
        monkeypatch.setattr(module, name, value)
    rows = []
    for workers in (1, 2):
        _workers(monkeypatch, workers)
        rows.append(module.run(**overrides).rows)
    with use_run(progress=ProgressMonitor(stream=io.StringIO())):
        rows.append(module.run(**overrides).rows)
    assert rows[0] == rows[1] == rows[2]
    assert len(rows[0]) > 1


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
    assert len(recorder.capture) == sum(captured) > 0
    reader = SlimcapReader.from_bytes(recorder.capture.dump_bytes())
    assert len(list(reader.frames())) == sum(captured)
    assert not reader.truncated


def test_a_forked_ring_holds_what_an_in_place_ring_holds(monkeypatch):
    """Absorbed in cell order, the cells' rings leave the parent's as
    rings that watched the cells in turn: the same newest frames and
    closed traces, the same eviction count (small budgets make the
    cells evict), the same trace ids and the same traces in flight."""
    monkeypatch.setattr(lossy_fabric, "LOSS_RATES", (0.0, 0.1, 0.2))
    monkeypatch.setattr(lossy_fabric, "PROFILE_CELLS", ("wifi",))
    rings = []
    for painter in (None, ProgressMonitor(stream=io.StringIO())):
        recorder = FlightRecorder(
            out_dir=None, capture_bytes=64 * 1024, max_traces=128
        )
        fields = {"progress": painter} if painter else {}
        with use_run(recorder=recorder, **fields) as run:
            assert run.rings_only() is (painter is None)
            lossy_fabric.run(updates=8)
        rings.append(
            (
                recorder.capture.dump_bytes(),
                recorder.capture.evicted,
                json.dumps(recorder._trace_records()),
                next(recorder.tracer._ids),
            )
        )
    assert rings[0] == rings[1]
    forked_records = json.loads(rings[0][2])
    assert rings[0][1] > 0
    assert len(forked_records) > 128
    assert any(record.get("open") for record in forked_records)


def _capture_then_fail(cell):
    _capturing_cell(cell)
    if cell == 2:
        raise ValueError("cell two fails")
    return cell


def test_a_crash_bundle_holds_the_rings_of_a_cell_that_raised(monkeypatch, tmp_path):
    """A cell that raises ships its rings with its error: the runner's
    crash bundle holds the frames of every cell that answered, the
    failed one's included."""
    _workers(monkeypatch, 1)

    @experiment("sweep-then-crash")
    def run(config):
        return sweep([1, 2], _capture_then_fail)

    try:
        with pytest.raises(SimulationError, match="cell 1 failed: ValueError"):
            main(["--postmortem-dir", str(tmp_path), "sweep-then-crash"])
    finally:
        EXPERIMENTS.pop("sweep-then-crash")
    (bundle,) = tmp_path.glob("*.slimpm")
    with zipfile.ZipFile(bundle) as archive:
        reader = SlimcapReader.from_bytes(archive.read("ring.slimcap"))
        reason = json.loads(archive.read("manifest.json"))["reason"]
    assert reason["kind"] == "crash"
    assert {frame.dst for frame in reader.frames()} == {"console-1", "console-2"}

