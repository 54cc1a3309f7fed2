"""Yardstick applications (Sections 6.1 and 6.2).

Two yardsticks gauge a shared system:

* the **CPU yardstick** — 30 ms of processing per event, 150 ms of think
  time — lives in :class:`repro.server.scheduler.PeriodicTask`; the
  constants are re-exported here so experiments read like the paper;
* the **network yardstick** (this module) — "repeatedly sending a 64B
  command packet to the server followed by a 1200B response and then
  150ms of think time", measuring average round-trip packet delay as
  background users are added (Figure 11).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet
from repro.netsim.transport import Endpoint, Network
from repro.runcontext import current_run
from repro.telemetry.metrics import get_registry

#: The CPU yardstick's constants (Section 6.1).
CPU_YARDSTICK_BURST = 0.030
CPU_YARDSTICK_THINK = 0.150

#: The network yardstick's constants (Section 6.2).
NET_YARDSTICK_REQUEST_NBYTES = 64
NET_YARDSTICK_RESPONSE_NBYTES = 1200
NET_YARDSTICK_THINK = 0.150
#: A round unanswered for this long is lost (not the paper's: the
#: simulator's retry guard).
NET_YARDSTICK_TIMEOUT = 0.5

#: RTT histogram bounds, seconds: sub-ms LAN detail through the 150 ms
#: interactivity cadence up to multi-second bufferbloat, so windowed
#: quantiles can place p95 on either side of the SLO threshold.
YARDSTICK_RTT_BUCKETS = (
    0.002,
    0.005,
    0.010,
    0.025,
    0.050,
    0.075,
    0.100,
    0.150,
    0.250,
    0.500,
    1.0,
    2.0,
    5.0,
)


class NetworkYardstick:
    """The Figure 11 probe: 64B up, 1200B down, 150 ms think, repeat.

    The console-side endpoint sends the request; the server-side hook
    responds immediately with the 1200B "display update".  Round-trip
    times are recorded from request injection to response delivery.

    Args:
        sim: Event engine.
        network: The fabric under test.
        console_addr: Address of the endpoint playing the active console.
        server_addr: Address of the server endpoint.
        think: Think time between round trips.
        warmup: Samples taken before this time are discarded.

    Each round's RTT is observed in ``net.yardstick.rtt_seconds`` in the
    registry of the run it is built under; free when that is disabled.
    A lost round is observed there too, at what the console waited
    before giving up: :data:`NET_YARDSTICK_TIMEOUT`, or 0 for a request
    the buffer refused on the spot — so an all-timeouts second has a
    keystroke verdict.
    ``rtts``, ``lost`` and :meth:`mean_rtt` count answered rounds only.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        console_addr: str,
        server_addr: str,
        think: float = NET_YARDSTICK_THINK,
        warmup: float = 0.0,
    ) -> None:
        self.sim = sim
        self.network = network
        self.console_addr = console_addr
        self.server_addr = server_addr
        self.think = think
        self.warmup = warmup
        self.rtts: List[float] = []
        self.lost = 0
        self._sent_at: Optional[float] = None
        self._seq = 0
        m = get_registry()
        self._m_rtt = (
            m.histogram(
                "net.yardstick.rtt_seconds", buckets=YARDSTICK_RTT_BUCKETS
            )
            if m.enabled
            else None
        )
        self._tracer = current_run().tracer
        self._probe_id: Optional[int] = None

    # -- wiring -------------------------------------------------------------
    def handle_server_packet(self, packet: Packet) -> None:
        """Install as (or call from) the server endpoint's receive hook."""
        if packet.flow != "yardstick-request":
            return
        response = Packet(
            self.server_addr,
            self.console_addr,
            NET_YARDSTICK_RESPONSE_NBYTES,
            flow="yardstick-response",
            payload=packet.payload,
        )
        self.network.send(response)

    def handle_console_packet(self, packet: Packet) -> None:
        """Install as (or call from) the console endpoint's receive hook."""
        if packet.flow != "yardstick-response":
            return
        if packet.payload != self._seq or self._sent_at is None:
            return  # a stale response from a timed-out round
        rtt = self.sim.now - self._sent_at
        if self.sim.now >= self.warmup:
            self.rtts.append(rtt)
            if self._m_rtt is not None:
                self._m_rtt.observe(rtt)
        self._sent_at = None
        self._close_probe()
        self.sim.schedule(self.think, self._send_request)

    # -- probe loop -----------------------------------------------------------
    def start(self) -> None:
        self.sim.schedule(self.think, self._send_request)

    def _send_request(self) -> None:
        self._seq += 1
        self._sent_at = self.sim.now
        seq = self._seq
        if self._tracer is not None:
            # One probe span per round: open until the response lands
            # (or the round is declared lost), so slow rounds show up in
            # the open-trace set that health events are annotated with.
            self._probe_id = self._tracer.begin_probe(
                "net.yardstick.round", self.sim.now, self.sim.trace_space
            )
        request = Packet(
            self.console_addr,
            self.server_addr,
            NET_YARDSTICK_REQUEST_NBYTES,
            flow="yardstick-request",
            payload=seq,
        )
        delivered = self.network.send(request)
        if not delivered:
            self._handle_loss(seq, waited=0.0)
            return
        # Guard against response loss: retry if no answer in 500 ms.
        self.sim.schedule(
            NET_YARDSTICK_TIMEOUT, lambda: self._check_timeout(seq)
        )

    def _check_timeout(self, seq: int) -> None:
        if self._sent_at is not None and self._seq == seq:
            self._handle_loss(seq, waited=NET_YARDSTICK_TIMEOUT)

    def _handle_loss(self, seq: int, waited: float) -> None:
        if self._seq != seq:
            return
        self.lost += 1
        if self._m_rtt is not None and self.sim.now >= self.warmup:
            self._m_rtt.observe(waited)
        self._sent_at = None
        self._close_probe()
        self.sim.schedule(self.think, self._send_request)

    def _close_probe(self) -> None:
        if self._tracer is not None and self._probe_id is not None:
            self._tracer.end_probe(self._probe_id, self.sim.now)
            self._probe_id = None

    # -- results ----------------------------------------------------------------
    def mean_rtt(self) -> float:
        """Average round-trip delay, seconds (Figure 11's y-axis); ``inf``
        when no round came back."""
        if not self.rtts:
            return float("inf")
        return float(np.mean(self.rtts))

    def loss_rate(self) -> float:
        total = len(self.rtts) + self.lost
        return self.lost / total if total else 0.0


def yardstick_rig(
    rate_bps: float,
    warmup: float = 0.0,
    console: Optional[Dict[str, Any]] = None,
    server: Optional[Dict[str, Any]] = None,
    on_console: Optional[Callable[[Packet], None]] = None,
) -> Tuple[Simulator, Network, NetworkYardstick]:
    """The network yardstick on a fresh switched fabric, not yet started.

    Builds the engine, a network whose links default to ``rate_bps`` and
    the probe, then attaches the ``"console"`` and ``"server"`` endpoints
    in that order, each with its :meth:`Network.attach` link kwargs.
    ``on_console`` replaces the console's receive hook; it must hand the
    probe's responses to ``yardstick.handle_console_packet``.  Build it
    inside the run it should report to.
    """
    sim = Simulator()
    network = Network(sim, default_rate_bps=rate_bps)
    yardstick = NetworkYardstick(
        sim, network, console_addr="console", server_addr="server", warmup=warmup
    )
    network.attach(
        Endpoint("console", on_receive=on_console or yardstick.handle_console_packet),
        **(console or {}),
    )
    network.attach(
        Endpoint("server", on_receive=yardstick.handle_server_packet),
        **(server or {}),
    )
    return sim, network, yardstick
