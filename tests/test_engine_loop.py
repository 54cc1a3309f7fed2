"""The engine's loop == a sorted list read off its docstrings.

``Simulator.run`` and ``run_until`` promise: events fire in ``(when,
scheduling order)`` order; a monitor is called after the *last* event of
an instant once its count is reached or its ``due_at`` is strictly
past; ``max_events`` is looked at between instants, so a run overshoots
it by at most the instant in progress; ``stop()`` returns after the
event that called it, with the rest of its instant still queued; a
``run_until`` that was not stopped leaves the clock on its deadline.
:class:`_Oracle` says that over a list it re-sorts, and every drawn
schedule, monitor set and driver must agree with it — callback for
callback and monitor call for monitor call.  Instants come from a
coarse grid so that they tie, and callbacks reschedule at their own
instant or stop the run.  ``step()`` fires monitors per event, not per
instant, so it is held to the callback order only.
"""

from __future__ import annotations

from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator

GRID = 0.25  # exact in binary: instants tie bit for bit


class _Oracle:
    """The docstrings' contract, over a list sorted before every pop."""

    def __init__(self) -> None:
        self.now, self.events_processed = 0.0, 0
        self._events, self._serial, self._monitors = [], 0, []
        self._stopped = False

    def schedule(self, delay, callback):
        self._events.append((self.now + delay, self._serial, callback))
        self._serial += 1

    def add_monitor(self, monitor):
        self._monitors.append([monitor.every, monitor])

    def stop(self):
        self._stopped = True

    @property
    def pending(self):
        return len(self._events)

    def run(self, max_events=None):
        self.run_until(inf, inf if max_events is None else max_events)

    def run_until(self, deadline, max_events=inf):
        limit, self._stopped = self.events_processed + max_events, False
        while self.events_processed < limit and not self._stopped:
            self._events.sort(key=lambda event: event[:2])
            if not self._events or self._events[0][0] > deadline:
                break
            self.now = self._events[0][0]
            while self._events and self._events[0][0] == self.now and not self._stopped:
                self.events_processed += 1
                self._events.pop(0)[2]()
                self._events.sort(key=lambda event: event[:2])
            count = self.events_processed
            for entry in self._monitors:
                due, monitor = entry
                if count >= due or self.now > getattr(monitor, "due_at", inf):
                    monitor(self)
                    entry[0] = (count // monitor.every + 1) * monitor.every
        if not self._stopped and self.now < deadline < inf:
            self.now = deadline


class _Monitor:
    """Counted (``every``) and, with a ``due_at``, clocked as well: it
    moves ``due_at`` past the clock by whole periods, as the time-series
    sampler does its window edge."""

    def __init__(self, every, due_at, period):
        self.every, self.period, self.calls = every, period, []
        if due_at is not None:
            self.due_at = due_at

    def __call__(self, sim):
        self.calls.append((sim.events_processed, sim.now))
        while sim.now > getattr(self, "due_at", inf):
            self.due_at += self.period


def _load(engine, script, order):
    """Schedule ``script``'s events: each appends its tag to ``order``,
    then does what its kind says."""

    def tagged(tag):
        return lambda: order.append(tag)

    def event(tag, kind):
        def fire():
            order.append(tag)
            if kind == "again":  # one more at this very instant
                engine.schedule(0.0, tagged((tag, "again")))
            elif kind == "later":  # and one that ties with the next slot
                engine.schedule(GRID, tagged((tag, "later")))
            elif kind == "stop":
                engine.stop()

        return fire

    for tag, (slot, kind) in enumerate(script):
        engine.schedule(slot * GRID, event(tag, kind))


def _drive(engine, driver):
    kind, argument = driver
    if kind == "until":
        for deadline in argument:
            engine.run_until(deadline)
    while engine.pending:  # a stop() leaves events behind
        engine.run(max_events=argument if kind == "limited" else None)


_scripts = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from(["plain", "plain", "again", "later", "stop"]),
    ),
    max_size=24,
)
_monitors = st.lists(
    st.tuples(
        st.integers(1, 7),
        # Edges on the half grid: some at an event's instant (not past
        # it), some between instants.
        st.none() | st.integers(0, 12).map(lambda k: k * GRID / 2),
        st.integers(1, 4).map(lambda k: k * GRID / 2),
    ),
    max_size=3,
)
_drivers = st.one_of(
    st.just(("run", None)),
    st.tuples(st.just("limited"), st.integers(1, 9)),
    st.tuples(
        st.just("until"),
        st.lists(st.integers(0, 14).map(lambda k: k * GRID / 2), max_size=4).map(
            sorted
        ),
    ),
)


def _play(engine, script, monitors, driver):
    order = []
    watchers = [_Monitor(*monitor) for monitor in monitors]
    for watcher in watchers:
        engine.add_monitor(watcher)
    _load(engine, script, order)
    _drive(engine, driver)
    return order, [watcher.calls for watcher in watchers]


@settings(deadline=None)
@given(script=_scripts, monitors=_monitors, driver=_drivers)
def test_every_driver_matches_the_oracle(script, monitors, driver):
    sim, oracle = Simulator(), _Oracle()
    assert _play(sim, script, monitors, driver) == _play(
        oracle, script, monitors, driver
    )
    assert (sim.now, sim.events_processed) == (oracle.now, oracle.events_processed)


@settings(deadline=None)
@given(script=_scripts, monitors=_monitors)
def test_step_fires_callbacks_in_the_same_order(script, monitors):
    sim, order = Simulator(), []
    for monitor in monitors:
        sim.add_monitor(_Monitor(*monitor))
    _load(sim, script, order)
    while sim.step():
        pass
    assert order == _play(_Oracle(), script, (), ("run", None))[0]
    assert sim.events_processed == len(order)


@pytest.mark.parametrize("watched", [False, True])
def test_a_monitor_added_inside_a_callback_is_honoured_from_the_next_event_on(
    watched,
):
    sim, calls = Simulator(), []
    if watched:  # whether or not the run started with a monitor
        sim.add_monitor(lambda s: None, every=1000)
    for k in range(1, 7):
        sim.schedule(k * GRID, lambda: None)
    sim.schedule(
        3.5 * GRID,  # the 4th event
        lambda: sim.add_monitor(lambda s: calls.append(s.events_processed), every=1),
    )
    sim.run()
    assert calls == [5, 6, 7]


def test_a_limit_of_zero_fires_nothing():
    sim = Simulator()
    sim.schedule(GRID, lambda: None)
    sim.run(max_events=0)
    assert (sim.events_processed, sim.pending, sim.now) == (0, 1, 0.0)
