"""Event-driven multiprocessor time-share CPU scheduler.

This is the substrate under the processor-sharing experiments (Section
6.1): simulated users play back recorded resource profiles while a
yardstick task with fixed demands measures how response time degrades as
the machine is oversubscribed.

The model is a classic quantum-based round-robin time-share scheduler
(Solaris TS class, first order): tasks become runnable, wait FIFO in a
shared ready queue, run on any free CPU for up to one quantum, and go to
the back of the queue if their burst is unfinished.  Context switches
cost a fixed overhead.  Memory oversubscription applies a paging slowdown
to every burst (the paper modelled "both CPU and memory loads").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

import numpy as np

from repro.errors import SchedulerError
from repro.netsim.engine import Simulator
from repro.telemetry.metrics import get_registry

#: Ready-queue length buckets (runnable bursts awaiting a CPU).
RUN_QUEUE_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class Task:
    """Base class for schedulable work.

    Subclasses drive themselves by calling :meth:`Scheduler.submit_burst`
    and reacting to burst completion.  A task has at most one outstanding
    burst at a time (these are single-threaded application processes).
    """

    def __init__(self, name: str, memory_mb: float = 0.0) -> None:
        self.name = name
        self.memory_mb = memory_mb
        self.scheduler: Optional["Scheduler"] = None
        self.cpu_consumed = 0.0

    def start(self) -> None:
        """Called once when the task is spawned; schedule the first burst."""
        raise NotImplementedError

    def on_burst_complete(self, requested: float, elapsed: float) -> None:
        """Called when a submitted burst has received all its CPU time.

        Args:
            requested: CPU seconds the burst asked for.
            elapsed: Wall-clock seconds from submission to completion.
        """
        raise NotImplementedError


@dataclass
class _Burst:
    task: Task
    remaining: float
    requested: float
    submitted_at: float
    #: When this burst's last slice ended (used by priority aging).
    last_ran: float = -1.0


class Scheduler:
    """A multiprocessor round-robin scheduler on the event engine.

    Args:
        sim: The discrete-event engine.
        num_cpus: Number of identical processors.
        quantum: Time slice, seconds.  Solaris TS slices are 20-200 ms;
            interactive processes get short slices, so 10 ms is a fair
            single-knob stand-in (the Figure 9 ablation sweeps it).
        context_switch: Overhead charged each time a CPU picks a task.
        memory_mb: Physical memory; 0 disables the paging model.
        paging_slowdown: Burst-time multiplier per unit of memory
            oversubscription (demand/capacity - 1).
    """

    def __init__(
        self,
        sim: Simulator,
        num_cpus: int = 1,
        quantum: float = 0.010,
        context_switch: float = 50e-6,
        memory_mb: float = 0.0,
        paging_slowdown: float = 4.0,
    ) -> None:
        if num_cpus < 1:
            raise SchedulerError(f"need at least one CPU, got {num_cpus}")
        if quantum <= 0:
            raise SchedulerError("quantum must be positive")
        self.sim = sim
        self.num_cpus = num_cpus
        self.quantum = quantum
        self.context_switch = context_switch
        self.memory_mb = memory_mb
        self.paging_slowdown = paging_slowdown
        self.tasks: List[Task] = []
        self._ready: Deque[_Burst] = deque()
        self._cpu_busy = [False] * num_cpus
        self._last_on_cpu: List[Optional[Task]] = [None] * num_cpus
        self.busy_time = 0.0
        self._metrics = get_registry()
        if self._metrics.enabled:
            m = self._metrics
            self._m_run_queue = m.histogram(
                "server.scheduler.run_queue_len", buckets=RUN_QUEUE_BUCKETS
            )
            self._m_cpu_seconds = m.counter("server.scheduler.cpu_seconds")
            self._m_ctx_switches = m.counter("server.scheduler.context_switches")
            self._m_queue_delay = m.histogram(
                "server.scheduler.burst_queueing_seconds"
            )

    # -- task management ---------------------------------------------------
    def spawn(self, task: Task) -> Task:
        """Register a task and start it."""
        if task.scheduler is not None:
            raise SchedulerError(f"task {task.name} already spawned")
        task.scheduler = self
        self.tasks.append(task)
        task.start()
        return task

    @property
    def memory_demand_mb(self) -> float:
        return sum(t.memory_mb for t in self.tasks)

    def memory_pressure(self) -> float:
        """Oversubscription ratio: 0 when demand fits, else demand/cap - 1."""
        if self.memory_mb <= 0:
            return 0.0
        return max(0.0, self.memory_demand_mb / self.memory_mb - 1.0)

    def _slowdown(self) -> float:
        """Multiplier applied to CPU bursts from paging interference."""
        return 1.0 + self.paging_slowdown * self.memory_pressure()

    # -- burst lifecycle -----------------------------------------------------
    def submit_burst(self, task: Task, cpu_seconds: float) -> None:
        """Queue a CPU demand for a task."""
        if cpu_seconds <= 0:
            raise SchedulerError(f"burst must be positive, got {cpu_seconds}")
        effective = cpu_seconds * self._slowdown()
        self._enqueue(
            _Burst(
                task=task,
                remaining=effective,
                requested=cpu_seconds,
                submitted_at=self.sim.now,
            )
        )
        if self._metrics.enabled:
            self._m_run_queue.observe(self.ready_queue_length)
        self._dispatch()

    # -- queue discipline (what a subclass overrides) -------------------------
    def _enqueue(self, burst: _Burst) -> None:
        """Make a burst runnable: a new one, or one its slice preempted."""
        self._ready.append(burst)

    def _next_burst(self) -> Optional[_Burst]:
        """The burst an idle CPU runs next; None when nothing is ready."""
        return self._ready.popleft() if self._ready else None

    def _dispatch(self) -> None:
        """Hand ready bursts to idle CPUs."""
        for cpu in range(self.num_cpus):
            if self._cpu_busy[cpu]:
                continue
            burst = self._next_burst()
            if burst is None:
                return
            self._run_slice(cpu, burst)

    def _run_slice(self, cpu: int, burst: _Burst) -> None:
        self._cpu_busy[cpu] = True
        overhead = (
            self.context_switch if self._last_on_cpu[cpu] is not burst.task else 0.0
        )
        self._last_on_cpu[cpu] = burst.task
        slice_time = min(self.quantum, burst.remaining)
        total = overhead + slice_time
        self.busy_time += total
        if self._metrics.enabled:
            self._m_cpu_seconds.inc(slice_time)
            if overhead > 0:
                self._m_ctx_switches.inc()

        def on_slice_end() -> None:
            burst.remaining -= slice_time
            burst.task.cpu_consumed += slice_time
            burst.last_ran = self.sim.now
            self._cpu_busy[cpu] = False
            if burst.remaining > 1e-12:
                self._enqueue(burst)
            else:
                elapsed = self.sim.now - burst.submitted_at
                if self._metrics.enabled:
                    self._m_queue_delay.observe(
                        max(0.0, elapsed - burst.requested)
                    )
                    if self.sim.now > 0:
                        # Per-session CPU share of the machine (Table 5).
                        self._metrics.gauge(
                            "server.scheduler.cpu_share", task=burst.task.name
                        ).set(
                            burst.task.cpu_consumed
                            / (self.sim.now * self.num_cpus)
                        )
                burst.task.on_burst_complete(burst.requested, elapsed)
            self._dispatch()

        self.sim.schedule(total, on_slice_end)

    # -- reporting --------------------------------------------------------------
    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of aggregate CPU time spent busy so far."""
        window = elapsed if elapsed is not None else self.sim.now
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time / (window * self.num_cpus))

    @property
    def ready_queue_length(self) -> int:
        return len(self._ready)


class PeriodicTask(Task):
    """The yardstick application of Section 6.1.

    Repeatedly consumes ``burst`` seconds of CPU ("to simulate event
    processing") followed by ``think`` seconds of think time.  Records the
    latency added to each burst by scheduling delays — the y-axis of
    Figures 9 and 10.
    """

    def __init__(
        self,
        name: str = "yardstick",
        burst: float = 0.030,
        think: float = 0.150,
        memory_mb: float = 16.0,
        warmup: float = 0.0,
    ) -> None:
        super().__init__(name, memory_mb=memory_mb)
        self.burst = burst
        self.think = think
        self.warmup = warmup
        self.added_latencies: List[float] = []

    def start(self) -> None:
        assert self.scheduler is not None
        self.scheduler.sim.schedule(self.think, self._release)

    def _release(self) -> None:
        assert self.scheduler is not None
        self.scheduler.submit_burst(self, self.burst)

    def on_burst_complete(self, requested: float, elapsed: float) -> None:
        assert self.scheduler is not None
        if self.scheduler.sim.now >= self.warmup:
            self.added_latencies.append(max(0.0, elapsed - requested))
        self.scheduler.sim.schedule(self.think, self._release)

    def mean_added_latency(self) -> float:
        """Average extra delay per event, in seconds (Figure 9's metric)."""
        if not self.added_latencies:
            return 0.0
        return float(np.mean(self.added_latencies))


class ProfilePlaybackTask(Task):
    """The load generator of Section 6.1, CPU dimension.

    Plays back a recorded resource profile: for each sampling interval it
    issues CPU bursts whose duty cycle matches the recorded utilization.
    It "does not replay the recorded X commands ... it merely utilizes
    the same quantity of resources in each time interval".

    Args:
        profile_utilization: Sequence of per-interval CPU fractions
            (0..1+, relative to one CPU).
        interval: Profile sampling interval, seconds (the paper's tool
            sampled at five-second intervals).
        burst: Nominal CPU burst size the application's event handling
            uses.  Burstiness is what creates queueing at the yardstick.
        rng: Source of phase jitter so simulated users don't march in
            lockstep.
    """

    def __init__(
        self,
        name: str,
        profile_utilization,
        interval: float = 5.0,
        burst: float = 0.020,
        memory_mb: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name, memory_mb=memory_mb)
        self.profile = list(profile_utilization)
        if not self.profile:
            raise SchedulerError("profile must have at least one interval")
        self.interval = interval
        self.burst = burst
        self.rng = rng or np.random.default_rng(0)
        # Each playback starts at a random point in its profile, like the
        # paper's load generator replaying different users' recordings;
        # this also decorrelates a fleet of identical profiles.
        self._index0 = int(self.rng.integers(0, len(self.profile)))
        self._index = self._index0

    # -- profile playback -----------------------------------------------------
    def _current_utilization(self) -> float:
        u = self.profile[self._index % len(self.profile)]
        return max(0.0, float(u))

    def start(self) -> None:
        assert self.scheduler is not None
        # Random phase so a fleet of identical profiles interleaves.
        phase = float(self.rng.uniform(0, self.interval))
        self.scheduler.sim.schedule(phase, self._next_burst)

    def _next_burst(self) -> None:
        assert self.scheduler is not None
        utilization = self._current_utilization()
        self._advance_index()
        if utilization <= 0.0:
            # Idle interval: skip ahead without touching the CPU.
            self.scheduler.sim.schedule(self.interval, self._next_burst)
            return
        self.scheduler.submit_burst(self, self.burst)

    def _advance_index(self) -> None:
        # Track profile position by elapsed time rather than burst count.
        assert self.scheduler is not None
        self._index = self._index0 + int(self.scheduler.sim.now / self.interval)

    def on_burst_complete(self, requested: float, elapsed: float) -> None:
        assert self.scheduler is not None
        utilization = min(1.0, self._current_utilization())
        if utilization >= 1.0:
            gap = 0.0
        else:
            # Duty cycle: burst / (burst + gap) == utilization.
            gap = requested * (1.0 - utilization) / max(utilization, 1e-6)
        # Jitter the gap +-20% so bursts decorrelate between users.
        gap *= float(self.rng.uniform(0.8, 1.2))
        self.scheduler.sim.schedule(gap, self._next_burst)
