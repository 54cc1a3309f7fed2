"""Rate-limited, FIFO point-to-point links.

A link models one direction of a full-duplex cable: packets serialize at
the link rate, queue FIFO while the link is busy, then arrive after the
propagation delay.  An optional queue limit (switch output buffer) causes
tail drops; an optional random loss rate models corruption — both feed the
transport layer's replay-based recovery.

Beyond the paper's benign switched LAN, a link can model WAN/mobile
adversity: per-packet delay *jitter* (uniform extra propagation delay,
as seen on wifi contention and cellular schedulers) and *correlated*
burst loss via a two-state Gilbert–Elliott chain
(:class:`GilbertElliottLoss`) — losses arrive in runs, which stresses
recovery very differently from independent Bernoulli drops at the same
average rate.  Both knobs draw from the link's ``rng`` only when
enabled, so existing seeded runs are unchanged.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from math import inf
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Optional

import numpy as np

from repro.core.wire import Datagram
from repro.errors import SimulationError
from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet, Train
from repro.obs.capture import KIND_DROP, KIND_FRAME, KIND_LOSS
from repro.runcontext import current_run
from repro.telemetry.metrics import get_registry

#: Queue-depth histogram buckets (packets waiting behind the wire).
QUEUE_DEPTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: A loaded link settles its pending credits on every this-many
#: deliveries — or admissions, where arrivals cost no event — not on
#: each (measured: DESIGN.md section 16.2).
FOLD_EVERY = 16


class GilbertElliottLoss:
    """Two-state Markov (Gilbert–Elliott) burst-loss model.

    The chain sits in a *good* or *bad* state; each packet first gives the
    chain a chance to flip, then draws its loss decision at the current
    state's loss rate.  Runs of bad-state packets produce the correlated
    loss bursts typical of wifi interference and cellular handovers —
    very different recovery behaviour from Bernoulli loss at the same
    long-run average (:meth:`mean_loss_rate`).

    Instances carry the chain state, so every link needs its own copy
    (:meth:`fresh`); sharing one across links would couple their bursts.

    Args:
        p_enter_bad: Per-packet probability of a good->bad transition.
        p_exit_bad: Per-packet probability of a bad->good transition.
        loss_good: Loss probability while in the good state.
        loss_bad: Loss probability while in the bad state.
    """

    __slots__ = ("p_enter_bad", "p_exit_bad", "loss_good", "loss_bad", "bad")

    def __init__(
        self,
        p_enter_bad: float,
        p_exit_bad: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        for label, value in (
            ("p_enter_bad", p_enter_bad),
            ("p_exit_bad", p_exit_bad),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise SimulationError(
                    f"{label} must be a probability, got {value}"
                )
        if p_exit_bad == 0 and p_enter_bad > 0:
            raise SimulationError("a bad state with no exit absorbs the link")
        self.p_enter_bad = p_enter_bad
        self.p_exit_bad = p_exit_bad
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = False

    def fresh(self) -> "GilbertElliottLoss":
        """A new chain with the same parameters, reset to the good state."""
        return GilbertElliottLoss(
            self.p_enter_bad, self.p_exit_bad, self.loss_good, self.loss_bad
        )

    def sample(self, rng: np.random.Generator) -> bool:
        """Advance the chain one packet; True if that packet is lost."""
        if self.bad:
            if self.p_exit_bad > 0 and float(rng.random()) < self.p_exit_bad:
                self.bad = False
        elif self.p_enter_bad > 0 and float(rng.random()) < self.p_enter_bad:
            self.bad = True
        rate = self.loss_bad if self.bad else self.loss_good
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return float(rng.random()) < rate

    def mean_loss_rate(self) -> float:
        """Long-run average loss rate (stationary-weighted state rates)."""
        total = self.p_enter_bad + self.p_exit_bad
        if total == 0:
            return self.loss_good
        bad_share = self.p_enter_bad / total
        return bad_share * self.loss_bad + (1 - bad_share) * self.loss_good


@dataclass
class LinkStats:
    """Counters a link maintains for analysis.

    ``packets_dropped`` counts congestion drops at the output buffer
    (queue tail-drops); ``packets_lost`` counts random in-flight losses
    (corruption).  Figure 11's loss accounting needs them separate: the
    former responds to load, the latter to the configured loss rate.
    """

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_dropped: int = 0
    packets_lost: int = 0
    queue_delay_total: float = 0.0
    busy_time: float = 0.0

    def mean_queue_delay(self) -> float:
        """Average time packets waited behind others, in seconds."""
        if self.packets_sent == 0:
            return 0.0
        return self.queue_delay_total / self.packets_sent


class _FrameOrder:
    """Releases one simulator's captured frames in wire order.

    A tapped link pushes each frame with the instant it leaves the
    interface; no engine event is involved.  Frames wait here until the
    clock has reached them and come out earliest first — on the next
    push, whenever the engine hands control back, and before a writer
    is read — so records reach a writer in time order, ties across
    links by ``(time, tx_start, admission order)``, and a capture read
    at ``now`` holds exactly the frames with ``t <= now``.
    """

    __slots__ = ("_heap", "_serial", "__weakref__")

    def __init__(self) -> None:
        self._heap: list = []
        self._serial = itertools.count()

    def push(self, now, when, start, link, packet, kind) -> None:
        heap = self._heap
        heapq.heappush(
            heap,
            (
                when, start, next(self._serial),
                link, packet.src, packet.dst, packet.payload, kind,
            ),
        )
        if heap[0][0] <= now:
            self.release(now)

    def release(self, through: Optional[float] = None) -> None:
        """Write out every frame due by ``through`` (default: the
        engine's settlement horizon)."""
        heap = self._heap
        if heap and through is None:
            # Every pending frame's link runs on this order's simulator.
            through = heap[0][3].sim.horizon
        while heap and heap[0][0] <= through:
            when, _, _, link, src, dst, datagram, kind = heapq.heappop(heap)
            # The writer tapping the link as the frame crosses records it.
            writer = link._capture
            if writer is not None:
                writer.frame(when, src, dst, datagram, kind)


#: simulator -> its :class:`_FrameOrder` (weakly keyed).  Per simulator,
#: never per writer: one ring receives interleaved records from lockstep
#: cells and from back-to-back experiments restarting at t = 0.
_frame_orders: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _as_packet(carrier, nbytes: int) -> Packet:
    """The object a receive hook or an event demands: the packet itself,
    or one built from the train of an anonymous one."""
    return carrier.packet(nbytes) if carrier.__class__ is Train else carrier


class Link:
    """One direction of a cable between two nodes.

    A FIFO wire is fully determined at admission (:meth:`admit`), so a
    packet costs one event — its delivery — and a lost packet, one
    whose next hop nobody hears (an endpoint with no receive hook, the
    switch port that feeds one: :meth:`_rearm`) or one bound for a
    switch port that already has an event due in time to admit it
    (:meth:`_cover`), none; a burst its source offers ahead of time
    (:meth:`offer`) costs no event either while nobody can observe its
    sending; statistics stay exact at any sample time through
    pending-credit records settled lazily against the clock.
    Hop records, capture tap and telemetry consume that one path
    (DESIGN.md section 16).  Where nothing can differ per packet — a
    plain wire (:meth:`_plain`) taking train packets for a hop nobody
    hears — the switch's record of the sources and a port's own record
    hand it *stretches* instead, each admitted in one pass that only
    serializes and appends the records :meth:`admit` would
    (:meth:`_admit_bursts`, :meth:`_admit_record`).

    Args:
        sim: The event engine.
        rate_bps: Serialization rate in bits/second.
        propagation_delay: One-way latency, seconds (cable + PHY).
        deliver: Called as ``deliver(packet)`` when a packet arrives at
            the far end.
        queue_limit_bytes: Output buffer size; None means unbounded.
        loss_rate: Probability a packet is lost in flight (0 disables).
        rng: Random generator for loss/jitter decisions; required when
            ``loss_rate`` > 0, ``jitter`` > 0, or ``burst_loss`` is set,
            so runs stay deterministic.
        jitter: Maximum extra per-packet propagation delay, seconds;
            drawn uniformly from ``[0, jitter)``.  Jittered packets can
            arrive reordered (the endpoint layer is reorder-tolerant).
        burst_loss: A :class:`GilbertElliottLoss` chain replacing the
            independent ``loss_rate`` draw with correlated burst loss.
            The instance is owned by this link (chain state is mutable);
            pass ``model.fresh()`` when configuring several links from
            one template.
        name: Label used in diagnostics.

    Built under a run with a tracer, traced packets get a hop record per
    admission (:attr:`Packet.hops`).  Wire capture is separate: set
    :attr:`capture` on the links that should record frames (the network
    taps uplinks only, so each frame is captured exactly once).
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        propagation_delay: float,
        deliver: Callable[[Packet], None],
        queue_limit_bytes: Optional[int] = None,
        loss_rate: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        jitter: float = 0.0,
        burst_loss: Optional[GilbertElliottLoss] = None,
        name: str = "link",
    ) -> None:
        if rate_bps <= 0:
            raise SimulationError(f"link rate must be positive, got {rate_bps}")
        if propagation_delay < 0:
            raise SimulationError("propagation delay cannot be negative")
        if jitter < 0:
            raise SimulationError("jitter cannot be negative")
        if loss_rate > 0 and rng is None:
            raise SimulationError("loss_rate > 0 requires an rng for determinism")
        if jitter > 0 and rng is None:
            raise SimulationError("jitter > 0 requires an rng for determinism")
        if burst_loss is not None and rng is None:
            raise SimulationError("burst_loss requires an rng for determinism")
        self.sim = sim
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.deliver = deliver
        self.queue_limit_bytes = queue_limit_bytes
        self.loss_rate = loss_rate
        self.jitter = jitter
        self.burst_loss = burst_loss
        self.rng = rng
        self.name = name
        self._stats = LinkStats()
        self._queued_bytes = 0
        self._traced = current_run().tracer is not None
        self._capture = None
        self._frames: Optional[_FrameOrder] = None
        #: ``tx_end`` of the last frame scheduled; a mid-run tap adds the rest.
        self._tapped_through = 0.0
        self._metrics = get_registry()
        # Pre-resolved telemetry handles (enablement is fixed here).
        self._m_bytes = self._m_packets = self._m_drops = None
        self._m_losses = self._m_queue_depth = self._m_residency = None
        if self._metrics.enabled:
            m = self._metrics
            self._m_bytes = m.counter("net.link.bytes_sent", link=name)
            self._m_packets = m.counter("net.link.packets_sent", link=name)
            self._m_drops = m.counter("net.link.packets_dropped", link=name)
            self._m_losses = m.counter("net.link.packets_lost", link=name)
            self._m_queue_depth = m.histogram(
                "net.link.queue_depth", buckets=QUEUE_DEPTH_BUCKETS, link=name
            )
            self._m_residency = m.histogram(
                "net.link.queue_residency_seconds", link=name
            )
            # Credited lazily, so settled before any registry read and
            # each time the engine returns (a finished run's books close
            # before the next simulator writes the same instruments).
            m.add_collector(self._settle)
            sim.at_idle(self._settle)
        #: Any observer attached: the one test an unobserved link's
        #: admission pays for tracer, capture tap and telemetry together.
        self._always_watched = self._traced or self._m_packets is not None
        self._watched = self._always_watched
        #: Serialization of everything admitted so far ends here.
        self._busy_until = 0.0
        #: (start, nbytes, queue_delay, ready) per queued packet, settled
        #: once serialization has started.
        self._pending_start: Deque[tuple] = deque()
        #: (finish, start, nbytes, lost, carrier) per admitted packet,
        #: settled once serialization has finished (the carrier — the
        #: packet, or the train of an anonymous one — is kept for a tap
        #: attached while it is still on the wire).
        self._pending_fin: Deque[tuple] = deque()
        #: The endpoint at the far end, once :meth:`feeds` has named it.
        self._sink = None
        #: (arrive, nbytes, carrier) per packet bound for a sink with no
        #: receive hook, credited to it once the arrival instant is due.
        self._pending_arr: Deque[tuple] = deque()
        #: The switch at the far end, once :meth:`enters` has named it,
        #: and this link's inbox at each port it has left arrivals at.
        self._switch = None
        self._outboxes: dict = {}
        #: The switch this link is an output port of, whether arrivals
        #: for it may go on record instead of on the heap and whether
        #: somebody hears what it delivers (:meth:`_rearm`), and the
        #: records: per feeding link, a FIFO of (arrive, admission
        #: serial, nbytes, carrier).
        self._port_of = None
        self._on_record = False
        self._heard = True
        self._inboxes: list = []
        #: The bursts the switch at either end keeps on record for their
        #: sources (:meth:`offer`): one deque per switch, shared by its
        #: links and never rebound, so one truth test finds a burst due.
        self._offers = ()
        #: Packets in flight on the no-jitter path, delivered FIFO; the
        #: instant the last of them is due, and of the last wake.
        self._transit: Deque[Packet] = deque()
        self._due = self._wake_at = 0.0
        self._deliver_cb = self._deliver_next
        self._fold_in = FOLD_EVERY

    # -- the far end -------------------------------------------------------------
    def feeds(self, endpoint) -> None:
        """Name the endpoint this link delivers to.  While it has no
        receive hook an arrival is only counted, so it costs no event:
        the fold credits the endpoint's counters, and the counters
        settle this link when read."""
        self._sink = endpoint
        endpoint._feeds.append(self)
        self._rearm()

    def enters(self, switch) -> None:
        """Name the switch this link delivers into: an arrival for an
        output port that needs no event to admit it (:meth:`admit`)
        goes on the port's record."""
        self._switch = switch
        self._offers = switch._offers

    def _rearm(self) -> None:
        """The receive hook at the far end, or the tap, has changed.

        What was due by the horizon has been credited as it stood (the
        caller settles before it changes anything); the rest — bursts
        and arrivals on record for a port that can keep none any more,
        arrival credits, frames on the wire — become events and frames
        again, in their original order.  A port that stays on record and
        is heard has an event due by its earliest arrival (:meth:`_cover`).
        """
        sink = self._sink
        hooked = self._heard = sink is None or sink._on_receive is not None
        tapped = self._capture is not None
        self._watched = self._always_watched or tapped
        switch = self._port_of
        self._on_record = switch is not None and not (tapped or self.jitter)
        if switch is not None and self._offers and (hooked or not self._on_record):
            switch._rearm_offers(self)
        schedule_at = self.sim.schedule_at
        if not self._on_record:
            # Admission serials are unique: carriers are never compared.
            for arrive, _, nbytes, carrier in sorted(itertools.chain(*self._inboxes)):
                schedule_at(
                    arrive, partial(switch.ingress, _as_packet(carrier, nbytes))
                )
            for inbox in self._inboxes:
                inbox.clear()
        pend = self._pending_arr
        while hooked and pend:
            arrive, nbytes, carrier = pend.popleft()
            self._transit.append(_as_packet(carrier, nbytes))
            schedule_at(arrive, self._deliver_cb)
            self._due = arrive
        if hooked:
            self._cover()
        if tapped:
            since = max(self.sim.now, self._tapped_through)
            for finish, start, _, lost, carrier in self._pending_fin:
                if finish > since and isinstance(carrier.payload, Datagram):
                    self._tap(finish, start, carrier, lost)

    # -- wire capture ------------------------------------------------------------
    @property
    def capture(self):
        """Wire-capture tap; assign a SlimcapWriter to record this
        link's frames (drops and losses included).  Safe mid-run: the
        writer sees every frame that finishes from now on."""
        return self._capture

    @capture.setter
    def capture(self, writer) -> None:
        self._settle()
        self._capture = writer
        if writer is not None:
            frames = _frame_orders.get(self.sim)
            if frames is None:
                frames = _frame_orders[self.sim] = _FrameOrder()
                self.sim.at_idle(frames.release)
            self._frames = frames
            writer.add_source(frames.release)
        self._rearm()

    def _tap(self, finish: float, start: float, packet: Packet, lost) -> None:
        self._frames.push(
            self.sim.now, finish, start, self, packet,
            KIND_LOSS if lost else KIND_FRAME,
        )
        self._tapped_through = finish

    # -- settling pending credits ------------------------------------------------
    def _pull(self, through: float) -> None:
        """Admit what is on record due by ``through``: the bursts sources
        offered the switch first — they are what feeds the ports, so
        ready times stay monotone — then the arrivals for this port."""
        if self._offers:
            (self._port_of or self._switch)._admit_offers(through)
        for inbox in self._inboxes:
            if inbox and inbox[0][0] <= through:
                if self._heard:
                    self.admit(self._port_of.forward_due(self, through))
                    self._cover()
                else:
                    self._admit_record(through)
                return

    def _cover(self) -> None:
        """A heard port admits each arrival on record no later than the
        arrival's own delivery: the earliest one left has a delivery
        due here at or after it (the one that empties the wire folds,
        and a fold pulls first), or one wake at its instant."""
        first = min((inbox[0][0] for inbox in self._inboxes if inbox), default=None)
        if (
            first is not None
            and first != self._wake_at
            and not (self._transit and self._due >= first)
        ):
            self._wake_at = first
            self.sim.schedule_at(first, self._wake)

    def _wake(self) -> None:
        self._pull(self.sim.now)

    def _fold(self, ref: float) -> None:
        """Settle everything that happened by ``ref``: here — arrivals on
        record first — and at the ports this link left some."""
        if self._inboxes or self._offers:
            self._pull(ref)
        self._fold_fin(ref)
        if self._pending_start:
            self._fold_starts(ref)
        if self._pending_arr:
            self._fold_arrivals(ref)
        for port in self._outboxes:
            port._fold(ref)

    def _fold_arrivals(self, ref: float) -> None:
        pend = self._pending_arr
        if pend and pend[0][0] <= ref:
            packets = nbytes = 0
            while pend and pend[0][0] <= ref:
                _, size, _ = pend.popleft()
                packets += 1
                nbytes += size
            self._sink._packets += packets
            self._sink._bytes += nbytes

    def _fold_fin(self, ref: float) -> None:
        pend = self._pending_fin
        if pend and pend[0][0] <= ref:
            stats = self._stats
            m_packets = self._m_packets
            # Summed in locals, in record order: the same float sums.
            sent, nbytes, busy = 0, 0, stats.busy_time
            while pend and pend[0][0] <= ref:
                finish, start, size, lost, _ = pend.popleft()
                sent += 1
                nbytes += size
                busy += finish - start
                if m_packets is not None:
                    m_packets.inc()
                    self._m_bytes.inc(size)
                if lost:
                    stats.packets_lost += 1
                    if m_packets is not None:
                        self._m_losses.inc()
            stats.packets_sent += sent
            stats.bytes_sent += nbytes
            stats.busy_time = busy

    def _fold_starts(self, ref: float) -> None:
        starts = self._pending_start
        if starts and starts[0][0] <= ref:
            stats = self._stats
            residency = self._m_residency
            nbytes, delay = 0, stats.queue_delay_total
            while starts and starts[0][0] <= ref:
                _, size, waited, _ = starts.popleft()
                nbytes += size
                delay += waited
                if residency is not None:
                    residency.observe(waited)
            self._queued_bytes -= nbytes
            stats.queue_delay_total = delay

    def _settle(self) -> None:
        """Settle up to the engine's horizon (reads, loop exits)."""
        pending = self._pending_fin or self._pending_start or self._pending_arr
        if pending or self._inboxes or self._offers:
            self._fold(self.sim.horizon)

    # -- sending -----------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Enqueue a packet; returns False if the buffer dropped it."""
        now = self.sim.now
        if self._inboxes or self._offers:
            self._pull(now)
        return self.admit(((now, packet.nbytes, packet),)) is None

    def send_burst(self, packets) -> list:
        """Send a :class:`Train`, or a list of packets, handed over at
        one instant: one :meth:`send` per packet, as one run."""
        now = self.sim.now
        self._pull(now)
        if packets.__class__ is Train:
            sizes, carriers = packets.sizes, itertools.repeat(packets)
        else:
            sizes, carriers = [p.nbytes for p in packets], packets
        accepted = [True] * len(packets)
        for position in self.admit(zip(itertools.repeat(now), sizes, carriers)) or ():
            accepted[position] = False
        return accepted

    def offer(self, dst: str, bursts, train, sender) -> None:
        """Take a source's bursts ahead of their instants.

        ``bursts`` is a list of ``(when, nbytes)``, none before now; at
        each ``when`` the source sends ``train(when, nbytes)`` — a
        :class:`Train` it builds, and counts, only then — to ``dst``.
        While the switch port for ``dst`` is on record and nobody hears
        it, nothing can observe the sending, so the burst waits on the
        switch's record and is admitted here as of its ``when`` once
        something is due (:meth:`_pull`).  Otherwise it costs its
        event, ``sender(nbytes)`` fired at ``when``; :meth:`_rearm`
        turns the one into the other when the port changes mid-run.
        """
        switch = self._switch
        port = None if switch is None or self.jitter else switch._ports.get(dst)
        if port is not None and port._on_record and not port._heard:
            if bursts and min(bursts)[0] < self.sim.now:
                raise SimulationError(
                    f"cannot offer a burst at {min(bursts)[0]} "
                    f"before current time {self.sim.now}"
                )
            switch._keep_offer((self, port, train, sender), bursts)
        else:
            schedule_at = self.sim.schedule_at
            for when, nbytes in bursts:
                schedule_at(when, sender(nbytes))

    def admit(self, run) -> Optional[list]:
        """Admit a run of packets, ``(ready, nbytes, carrier)`` each.

        The reference way onto a wire — a single packet is the run of
        one, and a stretch (:meth:`_admit_bursts`, :meth:`_admit_record`)
        leaves exactly what this would: queueing, tail drop,
        serialization, loss, hop record, tap and where the packet goes
        next are decided here, per packet, in order.  ``ready`` (>= now for a sender; the switch adds its
        forwarding delay) must be monotone per link.  A carrier is the
        :class:`Packet` itself or the :class:`Train` of an anonymous
        one.  Everything is as of each ``ready`` instant, which a port
        admitting its record late relies on: nothing here is settled
        past ``ready``, or past the horizon.  Returns the positions in
        the run that were tail-dropped, None if none were.
        """
        sim = self.sim
        rate = self.rate_bps
        limit = self.queue_limit_bytes
        watched = self._watched
        depth = self._m_queue_depth if watched else None
        capture = self._capture
        starts, fins = self._pending_start, self._pending_fin
        rng = self.rng
        burst_loss = self.burst_loss
        loss_rate = self.loss_rate
        lossless = burst_loss is None and loss_rate <= 0
        jitter = self.jitter
        delay = self.propagation_delay
        sink = self._sink
        absorbs = sink is not None and sink._on_receive is None
        switch = self._switch
        if switch is not None:
            ports, serial = switch._ports, switch._serial
        dst = port = inbox = dropped = horizon = None
        busy = self._busy_until
        quiet = 0
        # A packet's position in the run: the finish records appended
        # (one per packet admitted; nothing here folds them) plus drops.
        first = len(fins)
        for ready, nbytes, carrier in run:
            if busy > ready:
                # The wire is busy at the arrival instant: the packet queues.
                left = left_bytes = 0
                if limit is not None or depth is not None:
                    # Occupancy as of ``ready``: settle what has left the
                    # queue by then, but only *look* past the horizon
                    # (reads at ``now`` must stay exact).  The horizon is
                    # the clock for the whole run — unless it is a drained
                    # engine's, which this run's first event ends.
                    if horizon is None or horizon == inf:
                        horizon = sim.horizon
                    asof = ready if ready < horizon else horizon
                    self._fold_starts(asof)
                    if ready > asof and starts and starts[0][0] <= ready:
                        for rec in starts:
                            if rec[0] > ready:
                                break
                            left += 1
                            left_bytes += rec[1]
                    if (
                        limit is not None
                        and self._queued_bytes - left_bytes + nbytes > limit
                    ):
                        self._stats.packets_dropped += 1
                        if watched:
                            self._report_drop(carrier, ready)
                        if dropped is None:
                            dropped = []
                        dropped.append(len(fins) - first + len(dropped))
                        continue
                start = busy
                starts.append((start, nbytes, start - ready, ready))
                self._queued_bytes += nbytes
                if depth is not None:
                    depth.observe(len(starts) - left)
            else:
                # Idle wire: the packet never queues — no start record.
                start = ready
                if depth is not None:
                    depth.observe(1)
                    if starts:
                        # Credited when the books settle past its start, as
                        # the waits before it are: observed now, a packet
                        # admitted ahead of its instant (the switch's
                        # forwarding delay) can land in the time-series
                        # window before the one it starts in.
                        starts.append((start, nbytes, 0.0, ready))
                        self._queued_bytes += nbytes
                    else:
                        self._m_residency.observe(0.0)
            finish = busy = start + nbytes * 8.0 / rate
            if lossless:
                gone = False
            elif burst_loss is not None:
                gone = burst_loss.sample(rng)
            else:
                gone = float(rng.random()) < loss_rate
            fins.append((finish, start, nbytes, gone, carrier))
            if watched:
                if self._traced and carrier.trace_id is not None:
                    carrier.hops = (self.name, ready, start, finish, carrier.hops)
                if capture is not None and isinstance(carrier.payload, Datagram):
                    self._tap(finish, start, carrier, gone)
            if gone:
                # No event at all: the fold counts the loss.
                continue
            if jitter > 0:
                # Jittered arrivals can reorder: each needs its own carrier.
                sim.schedule_at(
                    finish + (delay + float(rng.random()) * jitter),
                    partial(self._deliver_next, _as_packet(carrier, nbytes)),
                )
                continue
            arrive = finish + delay
            if switch is not None and carrier.dst != dst:
                dst = carrier.dst
                port = ports.get(dst)
                if port is not None and not port._on_record:
                    port = None
                inbox = self._outboxes.get(port)
            if port is not None and (
                inbox
                or not port._heard
                or (port._transit and port._due >= arrive)
            ):
                # Nobody hears this hop, or an event already due on the
                # port admits it in time: the arrival goes on its record.
                if inbox is None:
                    inbox = self._outboxes[port] = deque()
                    port._inboxes.append(inbox)
                inbox.append((arrive, next(serial), nbytes, carrier))
                quiet += 1
            elif absorbs:
                # Nobody receives it: the arrival is one more pending credit.
                self._pending_arr.append((arrive, nbytes, carrier))
                quiet += 1
            else:
                self._transit.append(
                    carrier.packet(nbytes) if carrier.__class__ is Train else carrier
                )
                sim.schedule_at(arrive, self._deliver_cb)
                self._due = arrive
        self._busy_until = busy
        if quiet:
            self._count_quiet(quiet)
        return dropped

    def _count_quiet(self, admitted: int) -> None:
        """No delivery to fold at, so event-free admissions keep the
        books short: every ``FOLD_EVERY``-th folds."""
        self._fold_in -= admitted
        if self._fold_in <= 0:
            self._fold_in = FOLD_EVERY
            self._fold(self.sim.now)

    # -- stretches ---------------------------------------------------------------
    def _plain(self) -> bool:
        """Nothing this wire does can differ per packet: no loss draw,
        no jitter, no instrument observing each admission."""
        return (
            self.loss_rate <= 0
            and self.burst_loss is None
            and not self.jitter
            and self._m_queue_depth is None
        )

    def _admit_bursts(self, bursts: list) -> None:
        """Admit an uplink's due bursts, ``(when, port, train)`` each,
        as one run: the switch's record of the sources hands them over,
        and it keeps none but for a port on record that nobody hears.

        While the wire is plain and no queue limit is in reach of the
        bursts' bytes plus those already queued, nothing can differ per
        packet, so the pass only serializes and appends the start,
        finish and arrival records :meth:`admit` would (DESIGN.md
        section 16.2, "Stretches").  Otherwise the bursts go through
        :meth:`admit`.
        """
        limit = self.queue_limit_bytes
        if not self._plain() or (
            limit is not None
            and self._queued_bytes + sum(sum(t.sizes) for *_, t in bursts) > limit
        ):
            self.admit(
                (when, nbytes, train)
                for when, _, train in bursts
                for nbytes in train.sizes
            )
            return
        rate, delay = self.rate_bps, self.propagation_delay
        serial = self._switch._serial.__next__
        started, finished = self._pending_start.append, self._pending_fin.append
        outboxes = self._outboxes
        busy = self._busy_until
        queued = admitted = 0
        for when, port, train in bursts:
            inbox = outboxes.get(port)
            if inbox is None:
                inbox = outboxes[port] = deque()
                port._inboxes.append(inbox)
            arrival = inbox.append
            for nbytes in train.sizes:
                if busy > when:
                    start = busy
                    started((start, nbytes, start - when, when))
                    queued += nbytes
                else:
                    start = when
                finish = busy = start + nbytes * 8.0 / rate
                finished((finish, start, nbytes, False, train))
                arrival((finish + delay, serial(), nbytes, train))
            admitted += len(train.sizes)
        self._busy_until = busy
        self._queued_bytes += queued
        self._count_quiet(admitted)

    def _admit_record(self, through: float) -> None:
        """A port nobody hears admits its arrivals on record due by
        ``through``.

        While the wire is plain, it takes stretches straight off its
        inboxes, merged over its feeders by ``(arrival, admission
        serial)``: a stretch is the head inbox's train packets up to
        where another inbox's head comes first, or a queue limit comes
        in reach.  Each is forwarded as of its own
        arrival (``ready = arrival + forwarding_delay``), serialized,
        and its start, finish and arrival records appended as
        :meth:`admit` would.  What is left from the first record no
        stretch takes — a packet, a limit in reach — goes through
        :meth:`admit` in :meth:`Switch.forward_due`'s order.
        """
        switch = self._port_of
        if switch._m_forwarded is not None or not self._plain():
            self.admit(switch.forward_due(self, through))
            return
        rate, delay = self.rate_bps, self.propagation_delay
        lag = switch.forwarding_delay
        limit = self.queue_limit_bytes
        room = inf if limit is None else limit - self._queued_bytes
        started, finished = self._pending_start.append, self._pending_fin.append
        arrival = self._pending_arr.append
        inboxes = self._inboxes
        edge = (through, inf)
        busy = self._busy_until
        queued = admitted = 0
        rest = False
        while not rest:
            # The inbox whose head comes first, and where its stretch
            # ends: the next head of another inbox, or ``through``.
            first, stop = None, edge
            for inbox in inboxes:
                if inbox and inbox[0] < stop:
                    if first is None:
                        first = inbox
                    elif inbox[0] < first[0]:
                        first, stop = inbox, first[0]
                    else:
                        stop = inbox[0]
            if first is None:
                break
            popleft = first.popleft
            while first and first[0] < stop:
                arrive, _, nbytes, carrier = first[0]
                ready = arrive + lag
                if carrier.__class__ is not Train:
                    rest = True
                    break
                if busy > ready:
                    if queued + nbytes > room:
                        rest = True
                        break
                    start = busy
                    started((start, nbytes, start - ready, ready))
                    queued += nbytes
                else:
                    start = ready
                finish = busy = start + nbytes * 8.0 / rate
                finished((finish, start, nbytes, False, carrier))
                arrival((finish + delay, nbytes, carrier))
                popleft()
                admitted += 1
        self._busy_until = busy
        self._queued_bytes += queued
        switch._forwarded += admitted
        if rest:
            # Counted with the rest, as one run: one fold at its end.
            self._fold_in -= admitted
            admitted = 0
            self.admit(switch.forward_due(self, through))
        self._count_quiet(admitted)

    def _report_drop(self, packet: Packet, ready: float) -> None:
        if self._m_drops is not None:
            self._m_drops.inc()
        if self._capture is not None and isinstance(packet.payload, Datagram):
            self._frames.push(
                self.sim.now, ready, ready, self, packet, KIND_DROP
            )

    def _deliver_next(self, packet: Optional[Packet] = None) -> None:
        if packet is None:
            packet = self._transit.popleft()
        # Deliveries are the fold points (this packet's own finish is
        # due).  Under load every FOLD_EVERY-th one folds a batch; the
        # one that empties the wire always does.  Reads settle on demand.
        due = self._fold_in - 1
        if due and self._transit:
            self._fold_in = due
        else:
            self._fold_in = FOLD_EVERY
            self._fold(self.sim.now)
        self.deliver(packet)

    # -- introspection -----------------------------------------------------------
    @property
    def stats(self) -> LinkStats:
        """Counters, exact as of the current simulated time (complete
        once a ``run()`` has drained the engine)."""
        self._settle()
        return self._stats

    def _waiting(self, asof: Optional[float] = None) -> tuple:
        """(packets, bytes) queued as of ``asof`` — by default now, with
        everything due by the horizon settled; a port admitting its
        record late asks as of an arrival instant it has not folded
        past.  Packets admitted ahead of that instant (the switch adds
        its forwarding delay) have not reached the queue yet."""
        if asof is None:
            self._settle()
            asof = self.sim.now
        else:
            self._fold_starts(asof)
        starts = self._pending_start
        packets, nbytes = len(starts), self._queued_bytes
        for rec in reversed(starts):
            if rec[3] <= asof:
                break
            packets -= 1
            nbytes -= rec[1]
        return packets, nbytes

    @property
    def queue_depth(self) -> int:
        """Packets currently waiting (not counting the one in flight)."""
        return self._waiting()[0]

    @property
    def queued_bytes(self) -> int:
        return self._waiting()[1]

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the link has been serializing bits.

        Safe to sample mid-serialization: the in-flight packet counts
        only for the time it has actually occupied the wire so far.
        """
        now = self.sim.now
        window = elapsed if elapsed is not None else now
        if window <= 0:
            return 0.0
        if (
            self._pending_fin or self._pending_start
            or self._inboxes or self._offers
        ):
            self._fold(now)
        busy = self._stats.busy_time
        if self._pending_fin:
            head = self._pending_fin[0]
            if head[1] <= now:  # started but not finished: prorate
                busy += now - head[1]
        return min(1.0, busy / window)
