"""An interactive-priority scheduler (the paper's Section 9 future work).

"Further research is necessary to provide interactive performance
guarantees in a shared environment."  This module prototypes the obvious
first step: a two-class scheduler where tasks marked *interactive* are
dispatched ahead of batch/background tasks, with aging so background
work cannot starve.  The ablation benchmark compares it against the
plain round-robin scheduler on the Figure 9 workload — the yardstick's
added latency collapses while the background users lose almost nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import SchedulerError
from repro.netsim.engine import Simulator
from repro.server.scheduler import Scheduler, Task, _Burst


class PriorityScheduler(Scheduler):
    """Two-level scheduler: interactive tasks first, with background aging.

    Args:
        aging_seconds: A background burst waiting longer than this is
            promoted to the interactive queue (starvation guard).
        (remaining arguments as in :class:`Scheduler`)
    """

    def __init__(
        self,
        sim: Simulator,
        num_cpus: int = 1,
        quantum: float = 0.010,
        context_switch: float = 50e-6,
        memory_mb: float = 0.0,
        paging_slowdown: float = 4.0,
        aging_seconds: float = 1.0,
    ) -> None:
        super().__init__(
            sim,
            num_cpus=num_cpus,
            quantum=quantum,
            context_switch=context_switch,
            memory_mb=memory_mb,
            paging_slowdown=paging_slowdown,
        )
        if aging_seconds <= 0:
            raise SchedulerError("aging threshold must be positive")
        self.aging_seconds = aging_seconds
        self._interactive: Deque[_Burst] = deque()
        self._background: Deque[_Burst] = deque()

    # -- classification ------------------------------------------------------
    @staticmethod
    def is_interactive(task: Task) -> bool:
        """A task opts in by setting ``task.interactive = True``."""
        return bool(getattr(task, "interactive", False))

    # -- queue discipline (overrides) -----------------------------------------
    def submit_burst(self, task: Task, cpu_seconds: float) -> None:
        if cpu_seconds <= 0:
            raise SchedulerError(f"burst must be positive, got {cpu_seconds}")
        effective = cpu_seconds * self._slowdown()
        burst = _Burst(
            task=task,
            remaining=effective,
            requested=cpu_seconds,
            submitted_at=self.sim.now,
        )
        if self.is_interactive(task):
            self._interactive.append(burst)
        else:
            self._background.append(burst)
        self._dispatch()

    def _age_background(self) -> None:
        """Promote background bursts starved of CPU for too long."""
        promoted: Deque[_Burst] = deque()
        while self._background:
            burst = self._background.popleft()
            waited_since = max(burst.submitted_at, burst.last_ran)
            if self.sim.now - waited_since >= self.aging_seconds:
                self._interactive.append(burst)
            else:
                promoted.append(burst)
        self._background = promoted

    def _pop_next(self) -> Optional[_Burst]:
        self._age_background()
        if self._interactive:
            return self._interactive.popleft()
        if self._background:
            return self._background.popleft()
        return None

    def _dispatch(self) -> None:
        for cpu in range(self.num_cpus):
            if self._cpu_busy[cpu]:
                continue
            burst = self._pop_next()
            if burst is None:
                return
            self._run_slice(cpu, burst)

    def _run_slice(self, cpu: int, burst: _Burst) -> None:
        """Identical to the base slice except preempted bursts requeue
        into their own class."""
        self._cpu_busy[cpu] = True
        overhead = (
            self.context_switch if self._last_on_cpu[cpu] is not burst.task else 0.0
        )
        self._last_on_cpu[cpu] = burst.task
        slice_time = min(self.quantum, burst.remaining)
        total = overhead + slice_time
        self.busy_time += total

        def on_slice_end() -> None:
            burst.remaining -= slice_time
            burst.task.cpu_consumed += slice_time
            burst.last_ran = self.sim.now
            self._cpu_busy[cpu] = False
            if burst.remaining > 1e-12:
                if self.is_interactive(burst.task):
                    self._interactive.append(burst)
                else:
                    self._background.append(burst)
            else:
                elapsed = self.sim.now - burst.submitted_at
                burst.task.on_burst_complete(burst.requested, elapsed)
            self._dispatch()

        self.sim.schedule(total, on_slice_end)

    @property
    def ready_queue_length(self) -> int:
        return len(self._interactive) + len(self._background)
