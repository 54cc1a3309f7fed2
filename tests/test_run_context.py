"""The run context and the engine's monitor list.

Two kinds of test.  *Same outputs*: the runner with every observer armed
at once, and a sweep of cells under sampling, must reproduce the shas
frozen on the last commit that armed observers through five ambient
seams (``tests/runner_oracle.py``).  *The structure is held*: one
``global`` statement under ``src/repro``, no parameter that hands an
observer to a component, none of the replaced names left to import,
``use_run`` nesting field-wise, and each observer firing on its own
cadence from the engine's monitor list.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from repro.experiments import lossy_fabric
from repro.experiments.runner import ExperimentConfig
from repro.experiments.wan_matrix import CellProbe
from repro.netsim.engine import Simulator
from repro.netsim.profiles import get_profile
from repro.obs import (
    FlightRecorder,
    SloEngine,
    TimeSeriesCollection,
    TraceCollector,
)
from repro.obs.progress import DashboardMonitor
from repro.runcontext import RunContext, current_run, use_run
from repro.telemetry import MetricsRegistry

from tests import runner_oracle

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


# -- same outputs -----------------------------------------------------------


@pytest.fixture(scope="module")
def runner_outputs(tmp_path_factory):
    return runner_oracle.compute_all(tmp_path_factory.mktemp("runner"))


@pytest.mark.parametrize("name", sorted(runner_oracle.load_golden()))
def test_runner_output_matches_the_five_seam_commit(runner_outputs, name):
    assert runner_outputs[name] == runner_oracle.load_golden()[name]


# -- the structure is held --------------------------------------------------


def test_one_global_statement_under_src():
    sites = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert len(sites) == 1 and sites[0].startswith("runcontext.py:"), sites


def test_observers_come_from_the_run_not_from_a_parameter():
    """No ``registry=`` / ``obs=`` hand-off anywhere, no ``collection=``
    on the dashboard, no registry on the config: a component reads the
    run it is built under.  The two renderers take the registry they
    *render*."""
    sites = {
        f"{path.relative_to(SRC).as_posix()}:{node.name}"
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg in ("registry", "obs")
    }
    assert sites == {
        "telemetry/report.py:render_report",
        "telemetry/report.py:render_json",
    }
    assert "collection" not in inspect.signature(DashboardMonitor).parameters
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} == {
        "seed", "duration", "n_users", "extra"
    }


def _calls(tree, name):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


def test_a_window_is_cut_graded_and_drawn_in_one_place():
    """One registry baseline, one grader, one row renderer, one family
    map: the recorder keeps policy, the dashboards pick series."""
    trees = {
        path.relative_to(SRC).as_posix(): ast.parse(
            path.read_text(encoding="utf-8")
        )
        for path in SRC.rglob("*.py")
    }
    # Cut once: the differencer's state lives in one class.
    assert [
        (name, cls.name)
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr == "_last_counters"
    ] == [("obs/timeseries.py", "TimeSeriesCollection")]
    # Graded once: a window's value is read for grading in obs/slo.py
    # (obs/timeseries.py reads it to draw), and the recorder matches no
    # series key and holds no threshold.
    assert {
        name for name, tree in trees.items() if _calls(tree, "window_value")
    } == {"obs/slo.py", "obs/timeseries.py"}
    recorder = trees["obs/flightrec.py"]
    assert not _calls(recorder, "startswith")
    assert not _calls(recorder, "matches") and not _calls(recorder, "passes")
    recorder_names = {
        getattr(node, "id", getattr(node, "attr", None))
        for node in ast.walk(recorder)
    }
    assert not recorder_names & {
        "LOSS_BURST_MIN", "QUEUE_BUILDUP_RUN", "window_value"
    }
    # Drawn once: one caller of the sparkline outside its own module,
    # one dict from instrument family to series kind.
    assert [
        name
        for name, tree in trees.items()
        if name != "analysis/textplot.py"
        for _call in _calls(tree, "render_sparkline")
    ] == ["obs/timeseries.py"]
    assert [
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        and {getattr(key, "value", None) for key in node.keys}
        == {"counter", "gauge", "histogram"}
    ] == ["obs/timeseries.py"]


def test_a_wan_cell_reports_every_layer_to_the_run():
    registry = MetricsRegistry()
    with use_run(registry=registry):
        CellProbe(get_profile("dsl"), 2e6, seconds=2.0).run()
    families = {instrument.name.rpartition(".")[0] for instrument in registry}
    assert {"net.link", "net.switch", "net.yardstick"} <= families


def test_lossy_fabric_reports_its_probes_to_the_run():
    registry = MetricsRegistry()
    with use_run(registry=registry):
        lossy_fabric.run(updates=2)
    names = {instrument.name for instrument in registry}
    assert "net.yardstick.rtt_seconds" in names
    assert any(name.startswith("transport.channel.") for name in names)


_REPLACED = (
    "set_registry use_registry enable disable "
    "ObsContext get_obs set_obs use_obs "
    "collect_timeseries active_collection attach_sampler "
    "record_flight set_recorder active_recorder _MarkMonitor "
    "live_progress live_dashboard _registry_drops "
    "_SLO_FAMILY _LOSS_PREFIXES _TIER_PREFIX "
    "set_default_monitor Tracer Span sample_periodically "
    "TieredAllocator QualityTier TierStats DEFAULT_TIERS "
    "TIER_RESIDENCY TIER_THRASH_MIN _WINDOW_SUMS"
).split()


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.obs",
        "repro.obs.timeseries",
        "repro.obs.flightrec",
        "repro.obs.slo",
        "repro.core.bandwidth",
        "repro.telemetry",
        "repro.telemetry.metrics",
        "repro.obs.progress",
        "repro.netsim.engine",
        "repro.experiments.__main__",
    ],
)
def test_replaced_names_are_gone(module):
    namespace = importlib.import_module(module)
    assert [n for n in _REPLACED if hasattr(namespace, n)] == []


def test_replaced_modules_and_methods_are_gone():
    for module in (
        "repro.obs.context",
        "repro.telemetry.trace",
        "repro.perf",
        "repro.tools.benchdiff",
    ):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    assert not hasattr(Simulator, "set_monitor")
    assert not hasattr(FlightRecorder, "attach_tracer")
    assert not hasattr(FlightRecorder, "obs_context")
    assert not hasattr(FlightRecorder, "_check_window")
    for detector in ("loss_bursts", "tier_thrash", "queue_buildup"):
        assert not hasattr(SloEngine, f"_detect_{detector}")


class TestUseRun:
    def test_root_context_holds_nothing(self):
        assert current_run() == RunContext()
        assert not current_run().registry.enabled

    def test_nests_and_composes_field_wise(self):
        registry, tracer = MetricsRegistry(), TraceCollector()
        collection = TimeSeriesCollection()
        with use_run(registry=registry) as outer:
            with use_run(tracer=tracer, collection=collection) as inner:
                assert current_run() is inner
                assert inner.registry is registry
                assert inner.tracer is tracer
                assert inner.collection is collection
                with use_run(tracer=None) as innermost:
                    assert innermost.tracer is None
                    assert innermost.collection is collection
                assert current_run() is inner
            assert current_run() is outer
            assert outer.tracer is None and outer.collection is None
        assert current_run() == RunContext()

    def test_restores_after_an_exception(self):
        before = current_run()
        with pytest.raises(RuntimeError):
            with use_run(registry=MetricsRegistry()):
                with use_run(tracer=TraceCollector()):
                    raise RuntimeError("escapes both")
        assert current_run() is before

    def test_rejects_a_field_the_context_does_not_have(self):
        with pytest.raises(TypeError):
            with use_run(sampler=object()):
                pass  # pragma: no cover

    def test_arming_a_recorder_feeds_its_rings(self):
        recorder = FlightRecorder(out_dir=None)
        tracer = TraceCollector()
        with use_run(tracer=tracer, recorder=recorder) as run:
            assert run.tracer is tracer is recorder.tracer
            assert run.capture is recorder.capture
        with use_run(recorder=recorder) as run:
            assert run.tracer is tracer  # the last one it was armed with


# -- one monitor list, one cadence each -------------------------------------


class _Painter:
    every = 5000

    def __init__(self):
        self.calls = []

    def __call__(self, sim):
        self.calls.append(sim.events_processed)

    def finish(self):
        pass


class _SpiedCollection(TimeSeriesCollection):
    """Counts its samplers' firings (they keep sampling underneath)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = []

    def sample(self, sim):
        sampler = super().sample(sim)

        def spy(sim):
            self.calls.append(sim.events_processed)
            sampler(sim)

        spy.every = sampler.every
        return spy


def _run_events(sim, n):
    # Distinct timestamps: no cohorts, so every due-counter is met exactly.
    for i in range(n):
        sim.schedule(i * 1e-4, lambda: None)
    sim.run()
    return sim


def test_observers_fire_on_their_own_cadences():
    painter = _Painter()
    collection = _SpiedCollection()
    recorder = FlightRecorder(out_dir=None)
    with use_run(
        registry=MetricsRegistry(),
        progress=painter,
        collection=collection,
        recorder=recorder,
    ):
        _run_events(Simulator(), 41_000)
    assert collection.calls == list(range(512, 41_000, 512))
    assert painter.calls == list(range(5000, 41_000, 5000))
    assert [m["events"] for m in recorder.marks] == [20_000, 40_000]


def test_cohorts_overshoot_a_due_counter_but_never_skip_it():
    painter = _Painter()
    with use_run(progress=painter):
        sim = Simulator()
        for k in range(10):
            for _ in range(1200):
                sim.schedule(k * 1e-3, lambda: None)
        sim.run()
    # 1200 events an instant: 5000 is first seen at 6000, 10000 at 10800.
    assert painter.calls == [6000, 10_800]


def test_added_monitors_keep_independent_due_counters():
    sim = Simulator()
    fast, slow = [], []
    sim.add_monitor(lambda s: fast.append(s.events_processed), every=3)
    _run_events(sim, 4)  # fast fired at 3
    sim.add_monitor(lambda s: slow.append(s.events_processed), every=10)
    _run_events(sim, 17)  # 21 events in all
    assert fast == [3, 6, 9, 12, 15, 18, 21]
    assert slow == [10, 20]


def test_a_clocked_monitor_fires_at_the_first_event_past_its_instant():
    """A monitor with a ``due_at`` is called at the first event strictly
    past it — by ``run``, ``run_until`` and ``step`` alike, however few
    events that took — and not by an event *at* it: a ``run_until``
    deadline leaves the sampler's last window to ``finish``.  No event
    is added, and a monitor without one keeps its count."""

    class Clocked:
        every = 1000

        def __init__(self):
            self.due_at = 1.0
            self.calls = []

        def __call__(self, sim):
            self.calls.append(sim.now)
            while sim.now > self.due_at:
                self.due_at += 1.0

    for drive in ("run", "run_until", "step"):
        sim = Simulator()
        clocked, counted = Clocked(), []
        sim.add_monitor(clocked)
        sim.add_monitor(lambda s: counted.append(s.events_processed), every=4)
        for when in (0.5, 1.0, 1.25, 1.5, 3.75, 4.0):
            sim.schedule_at(when, lambda: None)
        if drive == "run":
            sim.run()
        elif drive == "run_until":
            sim.run_until(4.0)
        else:
            while sim.step():
                pass
        assert clocked.calls == [1.25, 3.75], drive
        assert counted == [4], drive
        assert sim.events_processed == 6


def test_default_arming_leaves_the_engine_unmonitored():
    """The runner's default: a recorder and nothing else.  Its marks
    ride the one loop, which fires not one event more than a bare run,
    and no monitor outlives the block."""
    bare = _run_events(Simulator(), 30_000)
    recorder = FlightRecorder(out_dir=None)
    with use_run(recorder=recorder):
        armed = _run_events(Simulator(), 30_000)
    assert armed.events_processed == bare.events_processed == 30_000
    assert [m["events"] for m in recorder.marks] == [20_000]
    assert not Simulator().monitored
