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
    def _enqueue(self, burst: _Burst) -> None:
        """A burst queues in its task's class, preempted or new."""
        if self.is_interactive(burst.task):
            self._interactive.append(burst)
        else:
            self._background.append(burst)

    def _next_burst(self) -> Optional[_Burst]:
        self._age_background()
        if self._interactive:
            return self._interactive.popleft()
        if self._background:
            return self._background.popleft()
        return None

    def _age_background(self) -> None:
        """Promote background bursts starved of CPU for too long.

        A burst queues when it is submitted or its slice ends, so the
        background queue is ordered by how long each has waited and the
        starved bursts are its head."""
        background = self._background
        while background:
            head = background[0]
            waited_since = max(head.submitted_at, head.last_ran)
            if self.sim.now - waited_since < self.aging_seconds:
                return
            self._interactive.append(background.popleft())

    @property
    def ready_queue_length(self) -> int:
        return len(self._interactive) + len(self._background)
