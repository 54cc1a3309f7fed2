"""A minimal, deterministic discrete-event simulator.

All timed behaviour in the reproduction — packet serialization, CPU
scheduling, yardstick think times — runs on this engine.  Events fire in
timestamp order with FIFO tie-breaking, so simulations are exactly
reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from sys import maxsize
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.runcontext import current_run

#: How many events fire between a monitor's callbacks unless it is added
#: with an ``every`` or declares one as an attribute.
DEFAULT_MONITOR_EVERY = 5000


class Simulator:
    """An event queue with a clock.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, lambda: print(sim.now))
        sim.run()
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: Periodic callbacks, each a ``[due, every, callback]`` entry
        #: with its own due-counter, so observers on different cadences
        #: share the engine without wrapping one another.
        self._monitors: List[list] = []
        #: Event count at which the run in progress must return.
        self._limit = maxsize
        #: Event count at which something is next due — the earliest
        #: monitor's counter or the limit — and the simulated instant
        #: past which the earliest clocked monitor is.
        self._check_at = maxsize
        self._monitor_at = inf
        self._idle_hooks: List[Callable[[], None]] = []
        #: The last engine return was a :meth:`run` that emptied the queue.
        self._drained = False
        # The run this simulator is built under attaches its observers
        # (live health line, sampler, recorder marks) here, so they reach
        # simulators built deep inside experiment code without a
        # parameter threaded through every layer.
        current_run().attach(self)

    def add_monitor(
        self,
        monitor: Callable[["Simulator"], None],
        every: Optional[int] = None,
    ) -> None:
        """Call ``monitor(self)`` every ``every`` events (default: the
        monitor's own ``every`` attribute, else
        :data:`DEFAULT_MONITOR_EVERY`) — and, if it has a ``due_at``
        attribute (a simulated instant, read again after each call), at
        the first event strictly past it, however few events that took:
        what a monitor reports by the clock must not depend on how busy
        the heap is.  No event is added for it.  Monitors fire in the
        order added, after the last event of an instant
        (:meth:`step`: after its one event), and one added from inside
        a callback is honoured from the next event on.
        """
        if every is None:
            every = getattr(monitor, "every", DEFAULT_MONITOR_EVERY)
        every = max(1, int(every))
        due = (self.events_processed // every + 1) * every
        self._monitors.append([due, every, monitor])
        self._rearm_monitors()

    @property
    def monitored(self) -> bool:
        """Whether any monitor has been added."""
        return bool(self._monitors)

    def _fire_monitors(self) -> None:
        """Call every monitor whose due-counter has been reached or
        whose ``due_at`` the clock has passed."""
        events, now = self.events_processed, self.now
        for entry in self._monitors:
            if events >= entry[0] or now > getattr(entry[2], "due_at", inf):
                entry[2](self)
                entry[0] = (events // entry[1] + 1) * entry[1]
        self._rearm_monitors()

    def _rearm_monitors(self) -> None:
        self._check_at = min([self._limit] + [entry[0] for entry in self._monitors])
        self._monitor_at = min(
            (getattr(entry[2], "due_at", inf) for entry in self._monitors),
            default=inf,
        )

    def at_idle(self, hook: Callable[[], None]) -> None:
        """Call ``hook()`` every time the engine hands control back
        (:meth:`run`, :meth:`run_until`, :meth:`step` returning), so
        components that account lazily close a run's books before its
        caller reads them or starts another simulator."""
        self._idle_hooks.append(hook)

    #: Negative delays larger than this magnitude are scheduling bugs;
    #: smaller ones are float round-off (e.g. ``deadline - self.now``
    #: computed from values that already include the deadline) and are
    #: clamped to "now".
    NEGATIVE_DELAY_EPSILON = 1e-9

    # -- scheduling ------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now.

        Tiny negative delays produced by float arithmetic are clamped to
        zero; genuinely negative delays still raise.
        """
        if delay < 0:
            if delay < -self.NEGATIVE_DELAY_EPSILON:
                raise SimulationError(f"cannot schedule {delay}s in the past")
            delay = 0.0
        # Inlined schedule_at: this is called once per event in every
        # simulation, and the extra frame is measurable.  ``now + delay``
        # can never precede ``now`` here, so the ordering check is moot.
        heapq.heappush(
            self._queue, (self.now + delay, next(self._counter), callback)
        )

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self.now}"
            )
        heapq.heappush(self._queue, (when, next(self._counter), callback))

    # -- execution ----------------------------------------------------------------
    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        if not self._queue:
            return False
        self._drained = False
        when, _, callback = heapq.heappop(self._queue)
        self.now = when
        self.events_processed += 1
        callback()
        if self.events_processed >= self._check_at or when > self._monitor_at:
            self._fire_monitors()
        for hook in self._idle_hooks:
            hook()
        return True

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains (or ``max_events`` fire).

        ``events_processed`` is the single authoritative event counter:
        the limit is enforced against it directly (it keeps counting
        across successive ``run``/``run_until``/``step`` calls).  The
        limit is looked at between instants, so a run can overshoot it
        by at most the events that share the last one's timestamp.
        """
        self._loop(
            inf, maxsize if max_events is None else self.events_processed + max_events
        )

    def run_until(self, deadline: float) -> None:
        """Run events with timestamps <= ``deadline``; clock ends there.

        Events scheduled beyond the deadline stay queued, so a simulation
        can be advanced in slices.
        """
        self._loop(deadline, maxsize)

    def _loop(self, deadline: float, limit: int) -> None:
        """The event loop: fire what is due by ``deadline`` until
        ``events_processed`` reaches ``limit``.

        Inlined: cached heappop/queue locals and no per-event
        :meth:`step` frame; the clock and the counter stay on ``self``
        (reentrant :meth:`step` calls stay consistent for free).  An
        event pays two comparisons for the monitors and the limit.  Both
        are acted on only once every event of the instant has fired, and
        the peek that tells is made only when one is due — on every
        event it would be a pure tax on a run whose instants do not tie.
        """
        self._guard_reentry()
        self._limit = limit
        self._rearm_monitors()
        try:
            queue = self._queue
            pop = heapq.heappop
            # ``run(max_events=0)`` fires nothing.
            live = self.events_processed < limit
            while live and queue and not self._stopped and queue[0][0] <= deadline:
                when, _, callback = pop(queue)
                self.now = when
                self.events_processed += 1
                callback()
                if self.events_processed >= self._check_at or when > self._monitor_at:
                    if queue and queue[0][0] == when and not self._stopped:
                        continue
                    self._fire_monitors()
                    live = self.events_processed < limit
            # Only fast-forward the clock when the slice drained naturally:
            # after stop() there may be events before the deadline still
            # queued, and teleporting past them would let a later run
            # execute them "in the past".
            if not self._stopped and self.now < deadline < inf:
                self.now = deadline
        finally:
            self._running = False
            self._stopped = False
            self._drained = deadline == inf and not self._queue
            self._limit = maxsize
            self._rearm_monitors()
            for hook in self._idle_hooks:
                hook()

    def stop(self) -> None:
        """Abort the current run() after the in-flight event returns."""
        self._stopped = True

    def _guard_reentry(self) -> None:
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._drained = False
        # A stray stop() while idle must not poison the next run: the
        # flag only means "abort the run in progress", so it is cleared
        # on entry (the finally-block clear handles the in-run case).
        self._stopped = False

    # -- introspection --------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of scheduled events not yet fired."""
        return len(self._queue)

    @property
    def horizon(self) -> float:
        """How far lazily kept books may be settled: the clock — or
        everything, once :meth:`run` has drained the queue.  Nothing can
        happen after that, and what was decided ahead of the clock (a
        lost packet's finish instant) has no event to carry it there.
        A :meth:`run_until` slice never looks past its deadline."""
        return float("inf") if self._drained and not self._queue else self.now
