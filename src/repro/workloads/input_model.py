"""Human input-event timing models (the substrate of Figure 2).

Input events are keystrokes and mouse clicks (Section 5.1).  Inter-event
intervals are drawn from a three-component lognormal mixture:

* a **burst** component — sustained typing and double-click sequences,
  medians around 100 ms;
* a **working** component — deliberate clicks and slower typing, medians
  a few hundred ms;
* a **pause** component — reading, thinking, mousing between widgets,
  medians of seconds.

A hard floor keeps intervals above human motor limits, which yields the
paper's observation that fewer than 1 % of events exceed 28 Hz in any
application.  Component weights are the per-application knobs (Table 2's
apps differ mainly in how much of the time the user is reading).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import WorkloadError

#: No human sustains input beyond ~30 ms between events.
MIN_INTERVAL = 0.032


@dataclass(unsafe_hash=True)
class InputEvent:
    """One keystroke or mouse click (immutable by convention: a session
    draws one per event, and a frozen dataclass pays
    ``object.__setattr__`` per field)."""

    time: float
    kind: str  # "key" or "click"


@dataclass(frozen=True)
class InputModel:
    """Inter-event interval mixture for one application.

    Attributes:
        burst_weight: Probability mass of the fast component.
        working_weight: Probability mass of the medium component (the
            pause component takes the remainder).
        burst_median: Median of the fast lognormal, seconds.
        burst_sigma: Log-std of the fast component.
        working_median: Median of the medium component, seconds.
        working_sigma: Log-std of the medium component.
        pause_median: Median of the slow component, seconds.
        pause_sigma: Log-std of the slow component.
        key_fraction: Fraction of events that are keystrokes (the rest
            are mouse clicks).
    """

    burst_weight: float
    working_weight: float
    burst_median: float = 0.095
    burst_sigma: float = 0.42
    working_median: float = 0.40
    working_sigma: float = 0.60
    pause_median: float = 2.6
    pause_sigma: float = 1.00
    key_fraction: float = 0.6

    def __post_init__(self) -> None:
        if not 0 <= self.burst_weight <= 1 or not 0 <= self.working_weight <= 1:
            raise WorkloadError("mixture weights must be in [0, 1]")
        if self.burst_weight + self.working_weight > 1:
            raise WorkloadError("mixture weights exceed 1")
        if not 0 <= self.key_fraction <= 1:
            raise WorkloadError("key_fraction must be in [0, 1]")

    @property
    def pause_weight(self) -> float:
        return 1.0 - self.burst_weight - self.working_weight

    # -- sampling -----------------------------------------------------------
    @functools.cached_property
    def _mixture(self) -> Tuple[float, float, Tuple[Tuple[float, float], ...]]:
        """The mixture as the draws read it, computed once: the two
        cumulative weights and each component's ``(np.log(median),
        sigma)``."""
        return (
            self.burst_weight,
            self.burst_weight + self.working_weight,
            tuple(
                (float(np.log(median)), sigma)
                for median, sigma in (
                    (self.burst_median, self.burst_sigma),
                    (self.working_median, self.working_sigma),
                    (self.pause_median, self.pause_sigma),
                )
            ),
        )

    def sample_interval(self, rng: np.random.Generator) -> float:
        """Draw one inter-event interval, seconds."""
        burst, working, components = self._mixture
        u = rng.random()
        if u < burst:
            log_median, sigma = components[0]
        elif u < working:
            log_median, sigma = components[1]
        else:
            log_median, sigma = components[2]
        interval = rng.lognormal(log_median, sigma)
        return interval if interval > MIN_INTERVAL else MIN_INTERVAL

    def sample_session(
        self, rng: np.random.Generator, duration: float
    ) -> List[InputEvent]:
        """Generate all input events for one session of ``duration`` s."""
        if duration <= 0:
            raise WorkloadError("session duration must be positive")
        events: List[InputEvent] = []
        interval, random, key_fraction = self.sample_interval, rng.random, self.key_fraction
        t = interval(rng)
        while t < duration:
            kind = "key" if random() < key_fraction else "click"
            events.append(InputEvent(t, kind))
            t += interval(rng)
        return events

    # -- analytic helpers (used to document calibration) ------------------------
    def mean_interval(self) -> float:
        """Expected inter-event interval, seconds (lognormal means)."""
        def ln_mean(median: float, sigma: float) -> float:
            return median * float(np.exp(sigma**2 / 2))

        return (
            self.burst_weight * ln_mean(self.burst_median, self.burst_sigma)
            + self.working_weight * ln_mean(self.working_median, self.working_sigma)
            + self.pause_weight * ln_mean(self.pause_median, self.pause_sigma)
        )

    def mean_event_rate(self) -> float:
        """Expected events/second."""
        return 1.0 / self.mean_interval()
