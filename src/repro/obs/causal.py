"""Causal update tracing: per-stage sim-time breakdowns for every update.

The telemetry layer (PR 1) aggregates — it can say "decode p99 is 4 ms"
but not *which stage* made one keystroke take 80 ms end to end.  This
module answers that question the way the X-Files methodology does: a
``trace_id`` is assigned where an update is born — at
:meth:`SlimDriver.update` or at input-event injection — and propagated
through the encoder, :class:`ServerChannel` fragmentation, the netsim
packets (as :attr:`Packet.trace_id`), :class:`ConsoleChannel`
reassembly, and the console decode/paint loop.  Each layer only stamps
a sim-timestamp as the message passes — a traced packet carries its own
link itinerary (:attr:`Packet.hops`), handed over once, at reassembly —
and whoever later *reads* a closed trace gets the interval
``[update start, paint]`` partitioned into consecutive stages:

    encode | queueing | serialization | switch | shard_transit | decode | paint

(``shard_transit`` is the on-wire time that no hop record accounts for:
zero for a message whose completing packet carried its itinerary.)

The stages telescope — each boundary timestamp is used exactly once as
an end and once as a start — so their sum equals the observed
end-to-end latency *by construction*, which is what
``tests/test_obs_trace.py`` asserts on a lossy fabric.

Loss recovery is first-class: a message superseded by a re-encode
(NACK answered, or covered by a full refresh) carries a link to the
recovery messages sent in its place, and the owning update's breakdown
then reports the NACK round-trip as an explicit ``resend_wait`` stage.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core import commands as cmd

__all__ = [
    "MessageTrace",
    "UpdateTrace",
    "TraceCollector",
    "stage_percentiles",
    "chrome_trace_events",
    "STAGES",
]

#: The critical-path stages, in pipeline order.  ``paint`` is the
#: instantaneous framebuffer application at decode completion (the
#: console cost model folds painting into decode service time), kept as
#: a stage so the schema survives a future split.
STAGES: Tuple[str, ...] = (
    "encode",
    "queueing",
    "serialization",
    "switch",
    "shard_transit",
    "decode",
    "paint",
)

#: Message-key type: (keyspace, source address, destination address,
#: wire seq).  Sequence spaces are per-codec, so the address pair tells
#: flows and directions apart, and the keyspace (one per simulator,
#: :meth:`TraceCollector.keyspace`) simulators that reuse both.
MessageKey = Tuple[int, str, str, int]


class MessageTrace:
    """One SLIM message's journey through the stack.

    Timestamps are simulated seconds.  The hot path only stamps them;
    ``stages`` — the partition of ``[update_start, closed_at]`` — is
    derived from the stamps on first read after the trace has closed
    (at paint for display commands, at reassembly for everything else).
    """

    __slots__ = (
        "trace_id", "space", "key", "opcode", "update_id", "update_start",
        "sent_at", "wire_bytes", "payload_bytes", "recovery", "recovery_of",
        "reassembled_at", "decode_start_at", "painted_at", "superseded_at",
        "dropped", "completed", "hops", "_stages",
    )

    def __init__(
        self,
        trace_id: int,
        key: MessageKey,
        opcode: str,
        update_id: Optional[int],
        update_start: float,
        sent_at: float,
        wire_bytes: int,
        payload_bytes: int,
        recovery: bool = False,
        recovery_of: Optional[int] = None,
    ) -> None:
        self.trace_id = trace_id
        #: The simulator's keyspace, and (src, dst, seq) within it.
        self.space = key[0]
        self.key = key[1:]
        self.opcode = opcode
        self.update_id = update_id
        self.update_start = update_start
        self.sent_at = sent_at
        self.wire_bytes = wire_bytes
        self.payload_bytes = payload_bytes
        self.recovery = recovery
        self.recovery_of = recovery_of
        self.reassembled_at: Optional[float] = None
        self.decode_start_at: Optional[float] = None
        self.painted_at: Optional[float] = None
        self.superseded_at: Optional[float] = None
        self.dropped = False
        self.completed = False
        #: Itinerary of the packet whose delivery completed reassembly
        #: (:attr:`Packet.hops`).  Fragments travel FIFO over one path,
        #: so the last to arrive is the critical one.
        self.hops: Optional[tuple] = None
        self._stages: Optional[Dict[str, float]] = None

    @property
    def superseded(self) -> bool:
        """Was this message replaced by a fresh re-encode (loss path)?"""
        return self.superseded_at is not None

    @property
    def end_to_end(self) -> float:
        """Update start to close (0.0 while the trace is still open)."""
        closed = self.painted_at if self.painted_at is not None else (
            self.reassembled_at if self.completed else None
        )
        return 0.0 if closed is None else closed - self.update_start

    @property
    def stages(self) -> Dict[str, float]:
        """The telescoping stage partition (empty until the trace closes)."""
        if self._stages is None:
            if not self.completed:
                return {}
            self._stages = self._partition()
        return self._stages

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (hop records elided — they are raw
        material for ``stages``, not part of the analysis surface)."""
        return {
            "trace_id": self.trace_id,
            "src": self.key[0],
            "dst": self.key[1],
            "seq": self.key[2],
            "opcode": self.opcode,
            "update_id": self.update_id,
            "update_start": self.update_start,
            "sent_at": self.sent_at,
            "wire_bytes": self.wire_bytes,
            "payload_bytes": self.payload_bytes,
            "recovery": self.recovery,
            "recovery_of": self.recovery_of,
            "reassembled_at": self.reassembled_at,
            "decode_start_at": self.decode_start_at,
            "painted_at": self.painted_at,
            "superseded_at": self.superseded_at,
            "completed": self.completed,
            "end_to_end": self.end_to_end,
            "stages": dict(self.stages),
        }

    # -- internals ---------------------------------------------------------
    def _partition(self) -> Dict[str, float]:
        """Partition ``[update_start, closed_at]`` into stages."""
        encode = self.sent_at - self.update_start
        queue_wait = 0.0
        serialization = 0.0
        switch = 0.0
        on_wire = self.reassembled_at - self.sent_at
        if self.hops is not None:
            path = []
            hop = self.hops
            while hop is not None:
                path.append(hop)
                hop = hop[4]
            for _link, ready, start, finish, _earlier in reversed(path):
                queue_wait += start - ready
                serialization += finish - start
            # Everything on the wire that is neither waiting in a queue
            # nor serializing: switch forwarding + propagation.
            switch = on_wire - queue_wait - serialization
        # Whatever remains between send and reassembly after the wire
        # stages is on-wire time no hop record accounts for (zero when
        # the completing packet carried its itinerary), so the
        # telescoping is exact either way.
        transit = on_wire - queue_wait - serialization - switch
        console_wait = 0.0
        decode = 0.0
        if self.decode_start_at is not None:
            console_wait = self.decode_start_at - self.reassembled_at
            if self.painted_at is not None:
                decode = self.painted_at - self.decode_start_at
        return {
            "encode": encode,
            "queueing": queue_wait + console_wait,
            "serialization": serialization,
            "switch": switch,
            "shard_transit": transit,
            "decode": decode,
            "paint": 0.0,
        }


@dataclass
class UpdateTrace:
    """One :meth:`SlimDriver.update` call and every message it caused.

    ``traces`` holds the update's original display messages plus any
    recovery re-encodes that superseded lost ones (linked through
    ``recovery_of``).
    """

    update_id: int
    started_at: float
    traces: List[MessageTrace] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """Every original message painted or superseded by a painted
        re-encode; at least one paint observed."""
        painted = [t for t in self.traces if t.painted_at is not None]
        if not painted:
            return False
        return all(
            t.painted_at is not None or t.superseded
            for t in self.traces
        )

    @property
    def end_to_end(self) -> float:
        """Update start to the last paint it caused, seconds."""
        painted = [
            t.painted_at for t in self.traces if t.painted_at is not None
        ]
        return max(painted) - self.started_at if painted else 0.0

    def breakdown(self) -> Optional[Dict[str, float]]:
        """Critical-path stage breakdown whose values sum to
        :attr:`end_to_end` exactly.

        The critical message is the last one to paint.  When that is a
        recovery re-encode, the time from update start until the
        re-encode was sent (loss detection + NACK round trip) appears
        as an explicit ``resend_wait`` stage.
        """
        painted = [
            t for t in self.traces
            if t.painted_at is not None and t.completed
        ]
        if not painted:
            return None
        critical = max(painted, key=lambda t: t.painted_at)
        stages = dict(critical.stages)
        stages["resend_wait"] = (
            (critical.sent_at - self.started_at) - stages["encode"]
        )
        return stages


class TraceCollector:
    """Receives trace events from every layer and reconstructs causality.

    The simulation is single-threaded and every hook fires synchronously
    inside the event that caused it, so a "current update" slot and
    plain dicts are race-free by construction.  Hook cost when a layer
    has no collector is a single ``is None`` check.

    Args:
        retain: When True (the default) every trace, and every probe
            round's record, is kept for offline analysis.
            ``retain=False`` is flight-recorder mode: only the most
            recent ``max_recent`` traces stay resident and no index —
            the open set included — outgrows that, so memory is
            bounded over arbitrarily long runs.  An open trace pushed
            out (lost in flight, never superseded) never completes.
        max_recent: Ring size for flight-recorder mode.
    """

    def __init__(self, retain: bool = True, max_recent: int = 512) -> None:
        self._ids = itertools.count(1)
        self._update_ids = itertools.count(1)
        self._spaces = itertools.count(1)
        self.retain = retain
        self.max_recent = max_recent
        #: Every finished probe round's record, when retaining.
        self.probes: List[Dict[str, object]] = []
        if retain:
            self.messages: List[MessageTrace] = []
            self.updates: List[UpdateTrace] = []
        else:
            self.messages = deque(maxlen=max_recent)  # type: ignore[assignment]
            self.updates = deque(maxlen=max_recent)  # type: ignore[assignment]
        self._open: Dict[MessageKey, MessageTrace] = {}
        #: The most traces the bounded open set has held at once.
        self._peak = 0
        self._awaiting_decode: Dict[int, MessageTrace] = {}
        #: Keys of originals -> owning update, for attributing recovery
        #: re-encodes to the update whose message they replace.
        self._update_by_message: Dict[MessageKey, UpdateTrace] = {}
        self._current_update: Optional[UpdateTrace] = None
        #: Probe spans (yardstick rounds, synthetic interactions) that
        #: are in flight: trace_id -> (name, started_at, keyspace).
        self._open_probes: Dict[int, Tuple[str, float, int]] = {}
        #: Ids that left flight (probes ended, messages reassembled or
        #: superseded) as ``(when, trace_id)``, per keyspace a sampler
        #: cites them from (:meth:`cite_landings`); drained by
        #: :meth:`landed_trace_ids`.
        self._landed: Dict[int, List[Tuple[float, int]]] = {}
        #: Flight-recorder sinks: called with each closing MessageTrace /
        #: each finished probe record.  None keeps the hooks free.
        self.completed_sink = None
        self.probe_sink = None

    def keyspace(self) -> int:
        """A keyspace for one more simulator's messages and probes (0
        is left to those no run attached)."""
        return next(self._spaces)

    # -- probe spans -------------------------------------------------------
    def begin_probe(self, name: str, now: float, space: int = 0) -> int:
        """Open a named measurement span (e.g. one yardstick round) in
        ``space`` and return its trace id.  Probe ids share the message
        id space so a health event can cite either kind unambiguously."""
        trace_id = next(self._ids)
        self._open_probes[trace_id] = (name, now, space)
        return trace_id

    def end_probe(self, trace_id: int, now: Optional[float] = None) -> None:
        """Close a probe span; unknown ids are tolerated (the probe may
        have been opened before a collector swap).  ``now`` feeds the
        flight recorder's probe ring; callers that don't track sim time
        may omit it."""
        span = self._open_probes.pop(trace_id, None)
        if span is None:
            return
        if self._landed and now is not None:
            self._land(span[2], now, trace_id)
        if self.retain or self.probe_sink is not None:
            name, started_at, _space = span
            record = {
                "trace_id": trace_id,
                "probe": name,
                "started_at": started_at,
                "ended_at": now,
                "duration": now - started_at if now is not None else None,
            }
            if self.retain:
                self.probes.append(record)
            if self.probe_sink is not None:
                self.probe_sink(record)

    def open_trace_ids(self, space: int) -> List[int]:
        """Ids of everything in flight in one simulator's keyspace — open
        probe spans plus unreassembled message traces — for annotating
        its health events."""
        ids = [i for i, probe in self._open_probes.items() if probe[2] == space]
        ids.extend(t.trace_id for key, t in self._open.items() if key[0] == space)
        return sorted(ids)

    def cite_landings(self, space: int) -> None:
        """Keep what leaves flight in ``space`` from now on, for
        :meth:`landed_trace_ids` (a time-series sampler's keyspace)."""
        self._landed.setdefault(space, [])

    def landed_trace_ids(self, space: int, through: float) -> List[int]:
        """Ids in ``space`` that left flight by ``through`` since the
        last call, in the order they left; later ones stay kept."""
        landed = self._landed[space]
        count = 0
        while count < len(landed) and landed[count][0] <= through:
            count += 1
        ids = [trace_id for _when, trace_id in landed[:count]]
        del landed[:count]
        return ids

    def _land(self, space: int, when: float, trace_id: int) -> None:
        landed = self._landed.get(space)
        if landed is not None:
            landed.append((when, trace_id))

    # -- driver hooks ------------------------------------------------------
    def begin_update(self, now: float) -> int:
        """A display update is starting; subsequent sends attach to it."""
        update = UpdateTrace(update_id=next(self._update_ids), started_at=now)
        self.updates.append(update)
        self._current_update = update
        return update.update_id

    def end_update(self) -> None:
        self._current_update = None

    # -- channel hooks -----------------------------------------------------
    def message_sent(
        self,
        key: MessageKey,
        command: cmd.Command,
        now: float,
        wire_bytes: int,
        recovery: bool = False,
        recovery_of: Optional[int] = None,
    ) -> int:
        """A message of ``wire_bytes`` (all datagram overhead included)
        entered the wire; returns the trace id to stamp on its packets."""
        update = self._current_update
        display = isinstance(command, cmd.DisplayCommand)
        trace = MessageTrace(
            next(self._ids),
            key,
            command.opcode.name if display else type(command).__name__,
            update.update_id if update is not None else None,
            update.started_at if update is not None else now,
            now,
            wire_bytes,
            command.payload_nbytes(),
            recovery,
            recovery_of,
        )
        self.messages.append(trace)
        self._open[key] = trace
        # Only display commands join an update's trace set: an update is
        # "complete" when its pixels are on screen, and status messages
        # (SYNC/RECOVERED) never paint.
        if display:
            if update is not None:
                update.traces.append(trace)
                self._update_by_message[key] = update
            elif recovery_of is not None:
                # A recovery re-encode: attribute it to the update whose
                # lost message it supersedes (recovery chains included —
                # the superseded key maps to the same update).
                owner = self._update_by_message.get(key[:3] + (recovery_of,))
                if owner is not None:
                    owner.traces.append(trace)
                    self._update_by_message[key] = owner
        if not self.retain:
            # One entry in, at most one out.  A status or input message
            # lost in flight is never superseded: its trace never closes.
            in_flight = len(self._open)
            if in_flight > self._peak:
                self._peak = in_flight
            if in_flight > self.max_recent:
                del self._open[next(iter(self._open))]
            if len(self._update_by_message) > self.max_recent:
                del self._update_by_message[next(iter(self._update_by_message))]
        return trace.trace_id

    def message_superseded(self, key: MessageKey, now: float) -> None:
        """The server answered a NACK for ``key``: its pixels now travel
        under fresh sequence numbers (or were never pixels)."""
        trace = self._open.pop(key, None)
        if trace is not None:
            trace.superseded_at = now
            if self._landed:
                self._land(key[0], now, trace.trace_id)

    def reassembled(
        self,
        key: MessageKey,
        command: cmd.Command,
        now: float,
        hops: Optional[tuple] = None,
    ) -> None:
        """A message completed reassembly at its receiving endpoint;
        ``hops`` is the itinerary of the packet that completed it."""
        trace = self._open.pop(key, None)
        if trace is None:
            return
        trace.reassembled_at = now
        if self._landed:
            self._land(key[0], now, trace.trace_id)
        if hops is not None:
            self.packet_event(trace, hops)
        if isinstance(command, cmd.DisplayCommand):
            # Stays open until the console paints it.
            self._awaiting_decode[id(command)] = trace
        else:
            self._finish(trace)

    # -- console hooks -----------------------------------------------------
    def decode_start(self, command: cmd.Command, now: float) -> None:
        trace = self._awaiting_decode.get(id(command))
        if trace is not None:
            trace.decode_start_at = now

    def painted(self, command: cmd.Command, now: float) -> None:
        trace = self._awaiting_decode.pop(id(command), None)
        if trace is not None:
            trace.painted_at = now
            self._finish(trace)

    def command_dropped(self, command: cmd.Command, now: float) -> None:
        """The console queue overflowed; the trace never completes."""
        trace = self._awaiting_decode.pop(id(command), None)
        if trace is not None:
            trace.dropped = True

    # -- link itineraries --------------------------------------------------
    def packet_event(self, trace: MessageTrace, hops: tuple) -> None:
        """The packet whose delivery completed ``trace``'s message
        crossed ``hops`` (:attr:`Packet.hops`, newest first)."""
        trace.hops = hops

    def open_traces(self) -> List[MessageTrace]:
        """Every message trace still in flight (unreassembled or awaiting
        paint): the partials a flight-recorder bundle holds, by id."""
        in_flight = [*self._open.values(), *self._awaiting_decode.values()]
        return sorted(in_flight, key=lambda trace: trace.trace_id)

    # -- sweep cells -------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """What a forked sweep cell's tracer hands back (picklable): how
        many trace ids, update ids and keyspaces it drew, the most traces
        its bounded open set held at once, and its traces in flight."""
        return {
            "ids": next(self._ids) - 1,
            "update_ids": next(self._update_ids) - 1,
            "spaces": next(self._spaces) - 1,
            "peak": self._peak,
            "open": list(self._open.values()),
            "decoding": list(self._awaiting_decode.values()),
        }

    def absorb_state(self, state: Dict[str, object], closed: List[Dict]) -> None:
        """Take up a cell's :meth:`export_state` and ``closed``, the
        records it closed, as if the cell had run under this tracer
        after everything it has seen: the one place a cell's trace ids,
        update ids and keyspaces are moved past the ones drawn here."""
        ids = next(self._ids) - 1
        updates = next(self._update_ids) - 1
        spaces = next(self._spaces) - 1
        self._ids = itertools.count(ids + state["ids"] + 1)
        self._update_ids = itertools.count(updates + state["update_ids"] + 1)
        self._spaces = itertools.count(spaces + state["spaces"] + 1)
        for record in closed:
            record["trace_id"] += ids
            if record.get("update_id") is not None:
                record["update_id"] += updates
        for trace in state["open"] + state["decoding"]:
            trace.trace_id += ids
            if trace.update_id is not None:
                trace.update_id += updates
            trace.space += spaces
        if not self.retain:
            # Run in turn, the cell's sends past the bound would have
            # pushed out the oldest here: as many as its peak overshoots.
            overshoot = state["peak"] + len(self._open) - self.max_recent
            for _ in range(min(max(overshoot, 0), len(self._open))):
                del self._open[next(iter(self._open))]
        for trace in state["open"]:
            self._open[(trace.space,) + trace.key] = trace
        for trace in state["decoding"]:
            # Its command stayed in the cell; no paint will close it.
            self._awaiting_decode[id(trace)] = trace

    # -- results -----------------------------------------------------------
    def _finish(self, trace: MessageTrace) -> None:
        trace.completed = True
        if not self.retain:
            self._update_by_message.pop((trace.space,) + trace.key, None)
        if self.completed_sink is not None:
            self.completed_sink(trace)

    def completed_messages(self) -> List[MessageTrace]:
        return [t for t in self.messages if t.completed]

    def completed_updates(self) -> List[UpdateTrace]:
        return [u for u in self.updates if u.completed]


def stage_percentiles(
    traces: Iterable[object],
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-command-type, per-stage latency statistics.

    Accepts :class:`MessageTrace` objects or the dicts produced by
    :meth:`MessageTrace.to_dict` (what a ``.slimcap`` file stores).
    Returns ``{opcode: {stage: {count, mean, p50, p90, p99}}}`` over the
    completed traces, with an ``end_to_end`` pseudo-stage per opcode;
    the percentiles are exact (``numpy.quantile``) over the values.
    """
    sums: Dict[Tuple[str, str], float] = {}
    samples: Dict[Tuple[str, str], List[float]] = {}
    for trace in traces:
        record = trace.to_dict() if isinstance(trace, MessageTrace) else trace
        if not record.get("completed"):
            continue
        stages = dict(record["stages"])
        stages["end_to_end"] = float(record["end_to_end"])
        opcode = str(record["opcode"])
        for stage, value in stages.items():
            bucket = (opcode, stage)
            sums[bucket] = sums.get(bucket, 0.0) + value
            samples.setdefault(bucket, []).append(value)
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for (opcode, stage), values in samples.items():
        p50, p90, p99 = np.quantile(values, (0.5, 0.9, 0.99)).tolist()
        table.setdefault(opcode, {})[stage] = {
            "count": len(values),
            "mean": sums[(opcode, stage)] / len(values),
            "p50": p50,
            "p90": p90,
            "p99": p99,
        }
    return table


def chrome_trace_events(traces: Iterable[object]) -> Dict[str, object]:
    """Render traces as Chrome ``trace_event`` JSON (about:tracing).

    Accepts :class:`MessageTrace` objects or the dicts produced by
    :meth:`MessageTrace.to_dict` (what a ``.slimcap`` file stores).
    Each message becomes one timeline lane (``tid`` = trace id) of
    consecutive complete ("X") events, one per non-empty stage, in
    simulated microseconds.  A probe span from the flight recorder's
    ring (a yardstick round: ``probe``, ``started_at``, ``duration``) is
    one event on a lane of its own.
    """
    events: List[Dict[str, object]] = []
    for trace in traces:
        record = trace.to_dict() if isinstance(trace, MessageTrace) else trace
        if "probe" in record:
            # Closed by a caller that tracks no sim time: nothing to draw.
            if record["duration"] is not None:
                events.append(
                    {
                        "name": record["probe"],
                        "cat": "probe",
                        "ph": "X",
                        "ts": float(record["started_at"]) * 1e6,
                        "dur": float(record["duration"]) * 1e6,
                        "pid": 1,
                        "tid": int(record["trace_id"]),
                    }
                )
            continue
        if not record.get("completed"):
            continue
        cursor = float(record["update_start"])
        tid = int(record["trace_id"])
        for stage in STAGES:
            duration = float(record["stages"].get(stage, 0.0))
            if duration <= 0.0 and stage != "decode":
                cursor += duration
                continue
            events.append(
                {
                    "name": stage,
                    "cat": record["opcode"],
                    "ph": "X",
                    "ts": cursor * 1e6,
                    "dur": duration * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        "seq": record["seq"],
                        "opcode": record["opcode"],
                        "recovery": record["recovery"],
                        "update_id": record["update_id"],
                    },
                }
            )
            cursor += duration
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {
                    "name": f"{record['opcode']} seq={record['seq']}"
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
