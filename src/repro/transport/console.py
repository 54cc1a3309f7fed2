"""Console half of the display channel: gap tracking and NACKs.

The console is stateless about display *content* but stateful about the
wire: it tracks which sequence numbers have been accounted for and asks
the server — with real NACK packets over the reverse path, paying
serialization, queueing, and propagation like any other traffic — about
the ones that have not.  Three events resolve a sequence number:

* the message completes reassembly (the common case),
* the server confirms it was superseded by a fresh re-encode
  (``StatusKind.RECOVERED``), or
* it is covered by a full-screen refresh, which arrives as ordinary new
  messages plus the same confirmation.

Suspicion is reorder-tolerant only up to ``nack_delay``: a hole is
NACKed after ``nack_delay`` seconds without filling.  On an unjittered
path nothing arrives out of order, so a hole is a loss; a jittered link
reorders per packet, and a packet late by more than ``nack_delay``
draws a NACK and a recovery it did not need (ROADMAP.md item 4(i)).
NACKs that are themselves lost are
retried when the server's next periodic ``SYNC`` arrives — the status
exchange bounds tail-loss recovery, so the last message of a burst is
recovered without any out-of-band settle loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ProtocolError
from repro.core import commands as cmd
from repro.core.commands import StatusKind
from repro.core.wire import Datagram, WireCodec, message_wire_nbytes
from repro.console.console import Console
from repro.netsim.packet import Packet
from repro.netsim.transport import Endpoint, Network
from repro.runcontext import current_run
from repro.telemetry.metrics import get_registry

#: Recovery-latency histogram bounds, seconds.  Sized around the NACK
#: machinery's own clocks (2 ms nack_delay, 100 ms nack_timeout) and
#: the 300 ms loss-recovery SLO, so windowed quantiles resolve both
#: healthy recoveries and budget-blowing ones.
RECOVERY_LATENCY_BUCKETS = (
    0.005,
    0.010,
    0.025,
    0.050,
    0.100,
    0.150,
    0.300,
    0.500,
    1.0,
    2.0,
)

#: Console -> server control traffic flow label.
CONTROL_FLOW = "display-control"


class PendingRecovery:
    """One sequence number the console believes is missing.

    A ``__slots__`` class: one is allocated per suspected loss on the
    decode hot path.
    """

    __slots__ = ("seq", "suspected_at", "nacked_at", "nacks")

    def __init__(
        self,
        seq: int,
        suspected_at: float,
        nacked_at: Optional[float] = None,
        nacks: int = 0,
    ) -> None:
        self.seq = seq
        self.suspected_at = suspected_at
        self.nacked_at = nacked_at
        self.nacks = nacks


@dataclass
class ConsoleChannelStats:
    """Counters the console half maintains (always on, telemetry aside)."""

    messages_completed: int = 0
    suspects: int = 0
    nacks_sent: int = 0
    nack_bytes: int = 0
    recoveries_confirmed: int = 0
    syncs_received: int = 0
    frontiers_sent: int = 0
    recovery_latency_total: float = 0.0
    recovery_latency_max: float = 0.0
    recoveries_timed: int = 0

    def mean_recovery_latency(self) -> float:
        """Average suspicion-to-resolution time, seconds."""
        if self.recoveries_timed == 0:
            return 0.0
        return self.recovery_latency_total / self.recoveries_timed


class _SeqTracker:
    """Resolved-set with a moving frontier, plus a hole scanner.

    ``frontier`` is the lowest unresolved seq: everything below it has
    been received or confirmed recovered, so the resolved set stays
    small.  ``scanned_to`` remembers how far holes have already been
    turned into suspects, keeping the scan incremental.  Slotted: its
    fields are touched once per completed message.
    """

    __slots__ = ("frontier", "scanned_to", "highest_seen", "resolved")

    def __init__(self) -> None:
        self.frontier = 0
        self.scanned_to = 0
        self.highest_seen = -1
        self.resolved: set = set()

    def resolve(self, seq: int) -> bool:
        """Mark a seq accounted for; False if it already was."""
        if seq == self.frontier and not self.resolved:
            # In order, nothing held: the frontier just moves on.
            self.frontier += 1
            return True
        if seq < self.frontier or seq in self.resolved:
            return False
        self.resolved.add(seq)
        while self.frontier in self.resolved:
            self.resolved.discard(self.frontier)
            self.frontier += 1
        return True

    def holes_below(self, top: int) -> range:
        """Seqs in ``[scanned_to, top)`` not yet categorised (callers
        filter resolved/pending); advances the scan cursor."""
        start = max(self.frontier, self.scanned_to)
        self.scanned_to = max(self.scanned_to, top)
        return range(start, top)


class ConsoleChannel:
    """Receiver half of the reliable display channel.

    Args:
        console: The console fed by this channel (must be simulator
            attached — recovery needs timers).
        network: The fabric both halves hang off.
        server_address: Fabric address of the server half.
        nack_delay: Seconds a suspected hole may stay unfilled before a
            NACK is sent (the reorder-tolerance window, in time).
        nack_timeout: Seconds after which an unanswered NACK is resent
            (checked when a server SYNC arrives).

    The causal tracer of the run it is built under, if any, stamps
    reassembly times and follows console->server traffic.
    """

    def __init__(
        self,
        console: Console,
        network: Network,
        server_address: str = "server",
        nack_delay: float = 0.002,
        nack_timeout: float = 0.1,
    ) -> None:
        if console.sim is None:
            raise ProtocolError("ConsoleChannel requires a simulator-attached console")
        if nack_delay < 0 or nack_timeout <= 0:
            raise ProtocolError("nack_delay/nack_timeout must be non-negative/positive")
        self.console = console
        self.network = network
        self.sim = console.sim
        self.address = console.address
        self.server_address = server_address
        self.nack_delay = nack_delay
        self.nack_timeout = nack_timeout
        self.tx = WireCodec()
        self.stats = ConsoleChannelStats()
        self.endpoint: Optional[Endpoint] = None
        self._tracker = _SeqTracker()
        self._pending: Dict[int, PendingRecovery] = {}
        self._trace = current_run().tracer
        self._metrics = get_registry()
        # Pre-resolved telemetry handles: hot paths pay one None test
        # when telemetry is disabled (enablement is fixed at construction).
        self._m_nacks = self._m_nack_bytes = self._m_latency = None
        if self._metrics.enabled:
            m = self._metrics
            self._m_nacks = m.counter("transport.channel.nacks_sent")
            self._m_nack_bytes = m.counter("transport.channel.nack_bytes")
            self._m_latency = m.histogram(
                "transport.channel.recovery_latency_seconds",
                buckets=RECOVERY_LATENCY_BUCKETS,
            )

    # -- wiring ---------------------------------------------------------------
    def attach(self, **link_kwargs: object) -> Endpoint:
        """Attach this half to the network; wires console input too."""
        self.endpoint = Endpoint(self.address, on_receive=self.handle_packet)
        self.network.attach(self.endpoint, **link_kwargs)
        self.console.on_input = self.send_command
        return self.endpoint

    @property
    def frontier(self) -> int:
        """Lowest display seq not yet received or confirmed recovered."""
        return self._tracker.frontier

    @property
    def pending_recoveries(self) -> int:
        return len(self._pending)

    # -- receive path ---------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        """Endpoint receive hook: reassemble, track seqs, dispatch."""
        payload = packet.payload
        if isinstance(payload, Datagram):
            result = self.console.codec.accept(payload)
            if result is None:
                # A fragment proves every lower seq was already sent.
                self._scan_holes(payload.seq)
                return
            command, seq = result
            if self._trace is not None:
                self._trace.reassembled(
                    (self.sim.trace_space, packet.src, packet.dst, seq),
                    command,
                    self.sim.now,
                    packet.hops,
                )
            self._on_message(command, seq)

    def _on_message(self, command: cmd.Command, seq: int) -> None:
        self._scan_holes(seq)
        first = self._resolve(seq)
        if first:
            self.stats.messages_completed += 1
        if isinstance(command, cmd.StatusMessage):
            if command.kind == StatusKind.SYNC:
                self._on_sync(command.value)
            elif command.kind == StatusKind.RECOVERED:
                self._on_recovered(command.value)
            return
        self.console.enqueue(command)

    # -- gap tracking ---------------------------------------------------------
    def _scan_holes(self, seq: int, inclusive: bool = False) -> None:
        """Turn unaccounted seqs below ``seq`` into suspects."""
        self._tracker.highest_seen = max(self._tracker.highest_seen, seq)
        top = seq + 1 if inclusive else seq
        if top <= self._tracker.frontier:
            return  # everything below is accounted for: the in-order case
        for missing in self._tracker.holes_below(top):
            if missing in self._tracker.resolved or missing in self._pending:
                continue
            self._suspect(missing)

    def _suspect(self, seq: int) -> None:
        self._pending[seq] = PendingRecovery(seq=seq, suspected_at=self.sim.now)
        self.stats.suspects += 1
        self.sim.schedule(self.nack_delay, lambda: self._maybe_nack(seq))

    def _maybe_nack(self, seq: int) -> None:
        record = self._pending.get(seq)
        if record is None or record.nacked_at is not None:
            return  # resolved in the meantime, or already NACKed via SYNC
        self._send_nack(record)

    def _send_nack(self, record: PendingRecovery) -> None:
        record.nacked_at = self.sim.now
        record.nacks += 1
        nbytes = self.send_command(
            cmd.StatusMessage(kind=StatusKind.NACK, value=record.seq)
        )
        self.stats.nacks_sent += 1
        self.stats.nack_bytes += nbytes
        if self._m_nacks is not None:
            self._m_nacks.inc()
            self._m_nack_bytes.inc(nbytes)

    def _resolve(self, seq: int) -> bool:
        record = self._pending.pop(seq, None)
        if record is not None:
            latency = self.sim.now - record.suspected_at
            self.stats.recovery_latency_total += latency
            self.stats.recovery_latency_max = max(
                self.stats.recovery_latency_max, latency
            )
            self.stats.recoveries_timed += 1
            if self._m_latency is not None:
                self._m_latency.observe(latency)
        return self._tracker.resolve(seq)

    # -- status exchange ------------------------------------------------------
    def _on_sync(self, highest_seq: int) -> None:
        """Server announced its highest sent seq: account for the tail."""
        self.stats.syncs_received += 1
        self._scan_holes(highest_seq, inclusive=True)
        now = self.sim.now
        for record in list(self._pending.values()):
            if (
                record.nacked_at is not None
                and now - record.nacked_at >= self.nack_timeout
            ):
                self._send_nack(record)
        self.send_command(
            cmd.StatusMessage(kind=StatusKind.FRONTIER, value=self.frontier)
        )
        self.stats.frontiers_sent += 1

    def _on_recovered(self, seq: int) -> None:
        """Server superseded ``seq`` with a fresh re-encode (or refresh)."""
        self.stats.recoveries_confirmed += 1
        self.console.codec.drop_partial(seq)
        self._resolve(seq)

    # -- send path (console -> server) ----------------------------------------
    def send_command(self, command: cmd.Command) -> int:
        """Send a command to the server; returns its wire bytes."""
        seq = self.tx.next_seq()
        datagrams = self.tx.fragment(command, seq=seq)
        nbytes = message_wire_nbytes(command)
        trace_id = None
        if self._trace is not None:
            trace_id = self._trace.message_sent(
                (self.sim.trace_space, self.address, self.server_address, seq),
                command,
                self.sim.now,
                nbytes,
            )
        burst = [
            Packet(
                self.address,
                self.server_address,
                datagram.wire_nbytes,
                payload=datagram,
                flow=CONTROL_FLOW,
                trace_id=trace_id,
            )
            for datagram in datagrams
        ]
        self.network.send_burst(burst)
        return nbytes
