"""Engine conformance: the scheduling contract every simulation relies on.

Ordering, negative-delay clamping, monitor callbacks, and
run_until/stop semantics, on the one engine (``LocalBackend`` is
``Simulator`` under the name the benchmark harness imports).
"""

import pytest

from repro.errors import SimulationError
from repro.netsim.backend import LocalBackend

NEGATIVE_DELAY_EPSILON = LocalBackend.NEGATIVE_DELAY_EPSILON


@pytest.fixture(params=["local"])
def backend(request):
    return LocalBackend()


class TestProtocol:
    def test_clock_starts_at_zero(self, backend):
        assert backend.now == 0.0
        assert backend.pending == 0


class TestScheduleOrdering:
    def test_fifo_among_equal_timestamps(self, backend):
        fired = []
        for index in range(8):
            backend.schedule(0.5, lambda index=index: fired.append(index))
        backend.run()
        assert fired == list(range(8))

    def test_timestamp_order_wins(self, backend):
        fired = []
        backend.schedule(0.3, lambda: fired.append("late"))
        backend.schedule(0.1, lambda: fired.append("early"))
        backend.schedule_at(0.2, lambda: fired.append("middle"))
        backend.run()
        assert fired == ["early", "middle", "late"]

    def test_nested_scheduling_from_callbacks(self, backend):
        fired = []

        def outer():
            fired.append("outer")
            backend.schedule(0.1, lambda: fired.append("inner"))

        backend.schedule(0.1, outer)
        backend.run()
        assert fired == ["outer", "inner"]
        assert backend.now >= 0.2


class TestDelayClamping:
    def test_epsilon_negative_delay_clamps_to_now(self, backend):
        fired = []
        backend.schedule(-NEGATIVE_DELAY_EPSILON / 2, lambda: fired.append(1))
        backend.run()
        assert fired == [1]

    def test_truly_negative_delay_raises(self, backend):
        with pytest.raises(SimulationError):
            backend.schedule(-1.0, lambda: None)

    def test_schedule_at_past_raises(self, backend):
        backend.schedule(0.5, lambda: None)
        backend.run()
        with pytest.raises(SimulationError):
            backend.schedule_at(backend.now - 1.0, lambda: None)


class TestMonitor:
    def test_monitor_fires_every_n_events(self, backend):
        ticks = []

        def monitor(sim):
            ticks.append(sim.events_processed)

        monitor.every = 10
        backend.add_monitor(monitor)
        for index in range(35):
            backend.schedule(0.001 * (index + 1), lambda: None)
        backend.run()
        assert len(ticks) == 3

    def test_monitor_sees_backend_clock(self, backend):
        seen = []

        def monitor(sim):
            seen.append(sim.now)

        monitor.every = 1
        backend.add_monitor(monitor)
        backend.schedule(0.25, lambda: None)
        backend.run()
        assert seen and seen[0] == pytest.approx(0.25)


class TestRunUntilAndStop:
    def test_run_until_executes_only_due_events(self, backend):
        fired = []
        backend.schedule(0.1, lambda: fired.append("a"))
        backend.schedule(0.9, lambda: fired.append("b"))
        backend.run_until(0.5)
        assert fired == ["a"]
        assert backend.now == pytest.approx(0.5)
        assert backend.pending == 1
        backend.run_until(1.0)
        assert fired == ["a", "b"]

    def test_run_until_is_resumable(self, backend):
        fired = []
        for step in range(1, 6):
            backend.schedule_at(step * 0.1, lambda step=step: fired.append(step))
        backend.run_until(0.25)
        assert fired == [1, 2]
        backend.run_until(0.55)
        assert fired == [1, 2, 3, 4, 5]

    def test_stop_halts_without_teleporting_clock(self, backend):
        fired = []

        def stopper():
            fired.append("stop")
            backend.stop()

        backend.schedule(0.1, stopper)
        backend.schedule(5.0, lambda: fired.append("never"))
        backend.run_until(10.0)
        assert fired == ["stop"]
        # The clock halts where stop() fired, not at the deadline...
        assert backend.now < 5.0
        # ...and the stop flag does not poison the next run.
        backend.run_until(10.0)
        assert fired == ["stop", "never"]

    def test_run_max_events_bounds_control_plane(self, backend):
        fired = []
        for index in range(20):
            backend.schedule(0.001 * (index + 1), lambda: fired.append(1))
        backend.run(max_events=5)
        assert len(fired) >= 5
        assert len(fired) < 20
        backend.run()
        assert len(fired) == 20

    def test_events_processed_accumulates(self, backend):
        backend.schedule(0.1, lambda: None)
        backend.schedule(0.2, lambda: None)
        backend.run()
        assert backend.events_processed >= 2
