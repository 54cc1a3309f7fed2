"""Unit tests for the interactive-priority scheduler extension."""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.errors import SchedulerError
from repro.netsim.engine import Simulator
from repro.runcontext import use_run
from repro.server.priority import PriorityScheduler
from repro.server.scheduler import PeriodicTask, ProfilePlaybackTask, Scheduler, Task
from repro.telemetry.metrics import MetricsRegistry


class Spinner(Task):
    """Permanently CPU-hungry background work."""

    def start(self):
        self.scheduler.submit_burst(self, 10.0)

    def on_burst_complete(self, requested, elapsed):
        self.scheduler.submit_burst(self, 10.0)


class OneShot(Task):
    def __init__(self, name, burst):
        super().__init__(name)
        self.burst = burst
        self.completed_at = None

    def start(self):
        self.scheduler.submit_burst(self, self.burst)

    def on_burst_complete(self, requested, elapsed):
        self.completed_at = self.scheduler.sim.now


class TestPriorityDispatch:
    def test_aging_validated(self):
        with pytest.raises(SchedulerError):
            PriorityScheduler(Simulator(), aging_seconds=0)

    def test_interactive_yardstick_shielded_from_spinners(self):
        sim = Simulator()
        sched = PriorityScheduler(sim, num_cpus=1, quantum=0.01, context_switch=0.0)
        yardstick = PeriodicTask(burst=0.03, think=0.15)
        yardstick.interactive = True
        sched.spawn(yardstick)
        for i in range(4):
            sched.spawn(Spinner(f"hog{i}"))
        sim.run_until(10.0)
        # The round-robin baseline would add ~>=100ms here; priority keeps
        # the yardstick almost unaffected (aging lets hogs through a bit).
        assert yardstick.mean_added_latency() < 0.040

    def test_round_robin_baseline_much_worse(self):
        from repro.server.scheduler import Scheduler

        sim = Simulator()
        sched = Scheduler(sim, num_cpus=1, quantum=0.01, context_switch=0.0)
        yardstick = PeriodicTask(burst=0.03, think=0.15)
        sched.spawn(yardstick)
        for i in range(4):
            sched.spawn(Spinner(f"hog{i}"))
        sim.run_until(10.0)
        assert yardstick.mean_added_latency() > 0.060

    def test_background_not_starved(self):
        sim = Simulator()
        sched = PriorityScheduler(
            sim, num_cpus=1, quantum=0.01, context_switch=0.0, aging_seconds=0.2
        )
        interactive = PeriodicTask(burst=0.05, think=0.01)  # nearly saturating
        interactive.interactive = True
        sched.spawn(interactive)
        batch = OneShot("batch", burst=0.05)
        sched.spawn(batch)
        sim.run_until(5.0)
        assert batch.completed_at is not None  # aging promoted it

    @seed(30)
    @settings(deadline=None)
    @given(
        cpus=st.integers(1, 4),
        quantum=st.floats(0.005, 0.05),
        context_switch=st.sampled_from([0.0, 50e-6]),
        memory_mb=st.sampled_from([0.0, 256.0]),
        aging=st.floats(0.02, 2.0),
        users=st.lists(
            st.tuples(
                st.lists(st.floats(0.0, 1.5), min_size=1, max_size=6),
                st.floats(0.005, 0.08),
                st.sampled_from([0.0, 64.0, 512.0]),
            ),
            max_size=8,
        ),
        hogs=st.integers(0, 2),
        draw_seed=st.integers(0, 2**32 - 1),
        armed=st.booleans(),
    )
    def test_background_only_behaves_like_fifo(
        self, cpus, quantum, context_switch, memory_mb, aging, users, hogs,
        draw_seed, armed,
    ):
        """With no interactive task, aging only moves the longest-waiting
        bursts ahead of the rest in the order they queued: the priority
        scheduler is the round-robin one, event for event, and reports
        the same ``server.scheduler.*`` instruments."""

        def run(factory, **extra):
            fields = {"registry": MetricsRegistry()} if armed else {}
            with use_run(**fields) as current:
                sim = Simulator()
                sched = factory(
                    sim,
                    num_cpus=cpus,
                    quantum=quantum,
                    context_switch=context_switch,
                    memory_mb=memory_mb,
                    **extra,
                )
            yardstick = PeriodicTask(burst=0.03, think=0.15)
            sched.spawn(yardstick)
            rng = np.random.default_rng(draw_seed)
            for index, (utilization, burst, task_mb) in enumerate(users):
                sched.spawn(
                    ProfilePlaybackTask(
                        f"u{index}",
                        profile_utilization=utilization,
                        interval=0.5,
                        burst=burst,
                        memory_mb=task_mb,
                        rng=np.random.default_rng(rng.integers(0, 2**63)),
                    )
                )
            for index in range(hogs):
                sched.spawn(Spinner(f"hog{index}"))
            sim.run_until(2.0)
            instruments = [
                inst.snapshot() for inst in current.registry.collect("server.scheduler.")
            ]
            return (
                yardstick.added_latencies,
                sched.busy_time,
                sim.events_processed,
                instruments,
            )

        fifo = run(Scheduler)
        assert run(PriorityScheduler, aging_seconds=aging) == fifo
        assert (len(fifo[3]) > 0) == armed

    def test_profile_playback_compatible(self, rng):
        sim = Simulator()
        sched = PriorityScheduler(sim, num_cpus=1, quantum=0.01)
        yardstick = PeriodicTask(burst=0.03, think=0.15)
        yardstick.interactive = True
        sched.spawn(yardstick)
        for i in range(10):
            sched.spawn(
                ProfilePlaybackTask(
                    f"u{i}",
                    profile_utilization=[0.2] * 50,
                    rng=np.random.default_rng(i),
                )
            )
        sim.run_until(20.0)
        assert yardstick.mean_added_latency() < 0.030

    def test_utilization_still_tracked(self):
        sim = Simulator()
        sched = PriorityScheduler(sim, num_cpus=2, quantum=0.01, context_switch=0.0)
        sched.spawn(OneShot("a", 0.05))
        sim.run_until(0.1)
        assert sched.utilization() == pytest.approx(0.25)
