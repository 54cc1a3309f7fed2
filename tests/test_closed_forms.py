"""The fabric checked against queueing closed forms.

A :class:`~repro.netsim.link.Link` with no buffer limit is a single
FIFO server: packets arrive, wait behind the ones on the wire, and are
served at ``size * 8 / rate_bps``.  Fed Poisson arrivals, its mean wait
in queue (``queue_delay_total / packets_sent``) must match the
Pollaczek–Khinchine formula

    W_q = lambda * E[S^2] / (2 * (1 - rho)),   rho = lambda * E[S],

which is ``rho * S / (2 * (1 - rho))`` for fixed-size packets (M/D/1)
and ``rho * E[S] / (1 - rho)`` for exponentially sized ones (M/M/1).

Horizon: 200 000 packets per case, seed 1, each sent by an event of its
own through ``send_burst(Train(...))`` (a sender's path onto a link).
Tolerance: 3 % of the closed form at rho <= 0.6 and 8 % at rho = 0.9,
where the running mean converges slowest (the queue's relaxation time
grows as 1 / (1 - rho)^2).  At seed 1 the measured / closed-form ratios
are 1.004, 1.009, 1.023 (M/D/1) and 1.000, 0.999, 1.049 (M/M/1).
"""

import numpy as np
import pytest

from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import Train

RATE_BPS = 10e6
MEAN_NBYTES = 1250
PACKETS = 200_000
SEED = 1
TOLERANCE = {0.3: 0.03, 0.6: 0.03, 0.9: 0.08}


def _mean_queue_wait(rho: float, exponential_sizes: bool) -> float:
    """Mean wait in queue of ``PACKETS`` Poisson arrivals at load ``rho``."""
    rng = np.random.default_rng(SEED)
    service = MEAN_NBYTES * 8 / RATE_BPS
    times = np.cumsum(rng.exponential(service / rho, PACKETS)).tolist()
    if exponential_sizes:
        # Whole bytes, at least one: the mean moves by half a byte.
        sizes = np.ceil(rng.exponential(MEAN_NBYTES, PACKETS)).astype(int)
    else:
        sizes = np.full(PACKETS, MEAN_NBYTES)
    trains = iter([Train("src", "dst", (size,)) for size in sizes.tolist()])
    arrivals = iter(times)
    sim = Simulator()
    link = Link(sim, RATE_BPS, 0.0, deliver=lambda packet: None)

    def arrive() -> None:
        link.send_burst(next(trains))
        when = next(arrivals, None)
        if when is not None:
            sim.schedule_at(when, arrive)

    sim.schedule_at(next(arrivals), arrive)
    sim.run()
    stats = link.stats
    assert stats.packets_sent == PACKETS and stats.packets_dropped == 0
    return stats.queue_delay_total / stats.packets_sent


@pytest.mark.parametrize("rho", sorted(TOLERANCE))
def test_fixed_size_packets_wait_as_md1(rho):
    service = MEAN_NBYTES * 8 / RATE_BPS
    closed_form = rho * service / (2 * (1 - rho))
    measured = _mean_queue_wait(rho, exponential_sizes=False)
    assert measured == pytest.approx(closed_form, rel=TOLERANCE[rho])


@pytest.mark.parametrize("rho", sorted(TOLERANCE))
def test_exponential_size_packets_wait_as_mm1(rho):
    service = MEAN_NBYTES * 8 / RATE_BPS
    closed_form = rho * service / (1 - rho)
    measured = _mean_queue_wait(rho, exponential_sizes=True)
    assert measured == pytest.approx(closed_form, rel=TOLERANCE[rho])
