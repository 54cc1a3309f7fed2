"""Multi-process sharded simulation backend (conservative lookahead).

A campus or enterprise fleet — tens of thousands to a million simulated
desktops — does not fit one event heap.  :class:`ShardedBackend`
partitions a simulation across worker processes, one shard per
workgroup/switch subtree, and implements the same
:class:`~repro.netsim.backend.SimulationBackend` protocol as the local
engine, so experiment code written against the interface runs unchanged
on either.

**Synchronization.**  The shards run a synchronous conservative
algorithm: time advances in windows bounded by the *lookahead* — the
minimum propagation delay of any inter-shard link.  Every shard executes
its events up to the window barrier, then all boundary messages produced
in the window are exchanged and the next window begins.  This is safe
because a message sent at time ``s`` with delay ``d >= lookahead``
arrives at ``s + d``, which is at or after the barrier — no shard can
ever receive a message "in its past".  When every shard is idle until
some future time ``t`` the window jumps straight to ``t + lookahead``,
so idle simulated hours cost one barrier, not millions.

**Topology partitioning.**  The constructor takes a ``build`` callable
invoked once inside each worker with a :class:`ShardContext`; it
constructs that shard's subtree (switches, links, endpoints, workload
generators) on the shard's private :class:`Simulator` and registers
handlers for named boundary ports.  Cross-shard traffic goes through
``ctx.send(port, payload, delay, dst_shard=...)`` — the payloads cross a
pipe, so they must be plain picklable data (the wire representation of a
boundary packet, not live objects).

**Control plane.**  The parent process keeps its own engine for
coordinator work: ``schedule``/``schedule_at``/monitor callbacks run
there, and shards can address messages to ``COORDINATOR`` (telemetry
reports, merged results).  ``collect()`` gathers each shard program's
results plus its telemetry snapshot at a barrier and merges them.

:class:`LocalBus` is the single-process stand-in: the same shard program
built against it runs whole on a :class:`LocalBackend`, which is how the
determinism seam is tested (``ShardedBackend`` with one shard must match
``LocalBackend`` byte for byte on fixed seeds).
"""

from __future__ import annotations

import itertools
import multiprocessing
import traceback
from dataclasses import dataclass, field
from math import inf
from sys import maxsize
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.netsim.engine import Simulator
from repro.runcontext import current_run, use_run

__all__ = [
    "COORDINATOR",
    "DEFAULT_LOOKAHEAD",
    "LocalBus",
    "ShardCollection",
    "ShardContext",
    "ShardedBackend",
    "merge_telemetry",
]

#: Pseudo shard index addressing the parent process (control plane).
COORDINATOR = -1

#: Default conservative lookahead, seconds.  Real deployments pass the
#: minimum inter-shard link propagation delay explicitly.
DEFAULT_LOOKAHEAD = 1e-3

#: A boundary message in flight:
#: ``(arrival_time, src_shard, seq, dst_shard, port, payload, trace)``.
#: ``trace`` is an opaque causal-trace context dict (or None) riding
#: alongside the payload, so a display update crossing shards keeps its
#: telescoping stage partition (see TraceCollector.boundary_export).
_Message = Tuple[float, int, int, int, str, Any, Any]


def _check_delay(delay: Optional[float], lookahead: float) -> float:
    delay = lookahead if delay is None else float(delay)
    if delay < lookahead:
        raise SimulationError(
            f"inter-shard delay {delay}s is below the lookahead "
            f"{lookahead}s; conservative synchronization would be unsound"
        )
    return delay


class ShardContext:
    """What a shard's ``build`` callable gets to work with.

    Attributes:
        sim: The shard's private event engine (a :class:`Simulator`).
        shard_index: This shard's index in ``range(n_shards)``.
        n_shards: Total shard count.
        lookahead: The backend's synchronization lookahead; every
            outbound delay must be >= it.
    """

    def __init__(
        self, sim: Simulator, shard_index: int, n_shards: int, lookahead: float
    ) -> None:
        self.sim = sim
        self.shard_index = shard_index
        self.n_shards = n_shards
        self.lookahead = lookahead
        self._handlers: Dict[str, Callable[[Any, float], None]] = {}
        self._outbox: List[_Message] = []
        self._seq = itertools.count()
        #: Destinations delivered on this shard's own heap.
        self._here = {shard_index}
        #: The trace context of the boundary message currently being
        #: delivered (set around handler invocation), so relay receivers
        #: can adopt the sender's causal trace without threading it
        #: through every handler signature.
        self.current_trace: Optional[Any] = None
        #: Hop log for the flight recorder: one record per traced
        #: boundary send.
        self.boundary_hops: List[Dict[str, Any]] = []

    def on_receive(
        self, port: str, handler: Callable[[Any, float], None]
    ) -> None:
        """Register ``handler(payload, arrival_time)`` for a boundary port."""
        self._handlers[port] = handler

    def send(
        self,
        port: str,
        payload: Any,
        delay: Optional[float] = None,
        dst_shard: int = COORDINATOR,
        trace: Optional[Any] = None,
    ) -> None:
        """Emit a boundary message ``delay`` seconds of propagation away.

        ``delay`` defaults to (and must be at least) the lookahead.
        ``dst_shard`` is another shard's index, or :data:`COORDINATOR`
        for the parent process.  ``trace`` is an optional causal-trace
        context (from ``TraceCollector.boundary_export``) delivered as
        ``ctx.current_trace`` around the receiving handler; it defaults
        to the context of the message currently being handled, so a
        relayed hop keeps its trace without explicit plumbing.
        """
        delay = _check_delay(delay, self.lookahead)
        if dst_shard != COORDINATOR and not 0 <= dst_shard < self.n_shards:
            raise SimulationError(f"unknown destination shard {dst_shard}")
        if trace is None:
            trace = self.current_trace
        arrival = self.sim.now + delay
        if trace is not None:
            self.boundary_hops.append(
                {
                    "gid": trace.get("gid") if isinstance(trace, dict) else None,
                    "port": port,
                    "src_shard": self.shard_index,
                    "dst_shard": dst_shard,
                    "sent_at": self.sim.now,
                    "arrival": arrival,
                }
            )
        if dst_shard in self._here:
            # Intra-shard loopback stays on the local heap.
            self.sim.schedule_at(
                arrival,
                _Delivery(self._handlers, port, payload, arrival, self, trace),
            )
            return
        self._outbox.append(
            (
                arrival,
                self.shard_index,
                next(self._seq),
                dst_shard,
                port,
                payload,
                trace,
            )
        )


class _Delivery:
    """A scheduled boundary-message arrival (late-bound handler lookup)."""

    __slots__ = ("handlers", "port", "payload", "arrival", "ctx", "trace")

    def __init__(self, handlers, port, payload, arrival, ctx=None, trace=None):
        self.handlers = handlers
        self.port = port
        self.payload = payload
        self.arrival = arrival
        self.ctx = ctx
        self.trace = trace

    def __call__(self) -> None:
        handler = self.handlers.get(self.port)
        if handler is None:
            raise SimulationError(
                f"no handler registered for boundary port {self.port!r}"
            )
        ctx = self.ctx
        if ctx is None or self.trace is None:
            handler(self.payload, self.arrival)
            return
        previous = ctx.current_trace
        ctx.current_trace = self.trace
        try:
            handler(self.payload, self.arrival)
        finally:
            ctx.current_trace = previous


class LocalBus(ShardContext):
    """A :class:`ShardContext` for running the whole topology unsharded.

    Build the same shard program(s) against a :class:`LocalBus` and all
    boundary sends become plain in-simulator scheduled deliveries with
    identical delays — the seam that lets one experiment run on either
    backend, and that the 1-shard equivalence test pins down.
    Coordinator-addressed messages are delivered to handlers registered
    on this same bus.
    """

    def __init__(self, sim: Simulator, lookahead: float = DEFAULT_LOOKAHEAD) -> None:
        super().__init__(sim, 0, 1, lookahead)
        self._here.add(COORDINATOR)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _shard_worker(
    conn,
    shard_index: int,
    n_shards: int,
    lookahead: float,
    build: Optional[Callable[..., Any]],
    build_args: Tuple[Any, ...],
) -> None:
    """Worker-process main loop: build the shard, then serve barriers."""
    try:
        # The parent's run context came along through fork; this shard
        # observes itself under what it derives from it, and ships the
        # evidence back at every collect barrier.  A shard program that
        # collects telemetry gives ``current_run()`` its registry.
        with use_run(**current_run().for_shard(shard_index)) as run:
            sim = Simulator()
            ctx = ShardContext(sim, shard_index, n_shards, lookahead)
            program = build(ctx, *build_args) if build is not None else None
            conn.send(
                ("ready", sim.pending, sim.peek_next_time(), sim.events_processed)
            )
            while True:
                request = conn.recv()
                op = request[0]
                if op == "advance":
                    _op, deadline, inbound = request
                    for arrival, _src, _seq, _dst, port, payload, trace in inbound:
                        sim.schedule_at(
                            arrival,
                            _Delivery(
                                ctx._handlers, port, payload, arrival, ctx, trace
                            ),
                        )
                    sim.run_until(deadline)
                    outbox = ctx._outbox
                    ctx._outbox = []
                    conn.send(
                        (
                            "advanced",
                            sim.now,
                            sim.events_processed,
                            sim.pending,
                            sim.peek_next_time(),
                            outbox,
                        )
                    )
                elif op == "collect":
                    result = None
                    if program is not None and hasattr(program, "collect"):
                        result = program.collect()
                    evidence = run.shard_evidence(
                        shard_index, list(ctx.boundary_hops)
                    )
                    conn.send(("collected", result, evidence))
                elif op == "close":
                    conn.send(("closed",))
                    return
                else:  # pragma: no cover - protocol misuse
                    raise SimulationError(f"unknown shard command {op!r}")
    except BaseException as exc:
        try:
            conn.send(
                ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
            )
        except Exception:
            pass
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclass
class ShardCollection:
    """Everything :meth:`ShardedBackend.collect` gathers at a barrier."""

    results: List[Any] = field(default_factory=list)
    #: The per-shard registry snapshots, merged (:func:`merge_telemetry`).
    telemetry: List[Dict[str, Any]] = field(default_factory=list)
    #: Merged fleet-wide :class:`~repro.obs.timeseries.RunSeries` (one
    #: coherent timeline), when the run sampled time series; else None.
    series: Optional[Any] = None
    #: What each worker's run context shipped
    #: (:meth:`RunContext.shard_evidence`): its ``telemetry`` snapshot,
    #: its ``series`` (a ``RunSeries`` or None), its boundary ``hops``,
    #: and its ``flight``-recorder rings (None unless one was armed).
    evidence: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def series_per_shard(self) -> List[Optional[Any]]:
        return [shard["series"] for shard in self.evidence]


class ShardedBackend:
    """A :class:`SimulationBackend` spanning worker processes.

    Args:
        n_shards: Worker-process count (>= 1).
        build: Callable run once inside each worker as
            ``build(ctx, *build_args)``; returns the shard program (any
            object; if it has a ``collect()`` method, its return value
            is gathered by :meth:`collect`).  None spawns empty shards
            (control-plane-only use, e.g. the conformance suite).
        build_args: Extra picklable arguments for ``build``.
        lookahead: Conservative synchronization bound — the minimum
            inter-shard propagation delay.  Every ``ctx.send`` delay
            must be >= it.
        start_method: multiprocessing start method; defaults to ``fork``
            where available (cheap, no pickling of ``build``), else the
            platform default.

    Semantics notes (vs :class:`LocalBackend`):

    * ``schedule``/``schedule_at``/``step``/monitor run on the parent's
      control-plane engine; shard work is driven by the window barriers
      inside :meth:`run`/:meth:`run_until`.
    * ``stop()`` halts at the next control event boundary; shards finish
      the in-flight window first (a conservative window cannot be
      interrupted without breaking the lookahead guarantee).
    * ``run(max_events)`` checks the control-plane limit at window
      barriers, not between individual shard events.
    * ``events_processed``/``pending`` aggregate the control plane and
      every shard as of the last barrier.
    """

    def __init__(
        self,
        n_shards: int,
        build: Optional[Callable[..., Any]] = None,
        build_args: Sequence[Any] = (),
        lookahead: float = DEFAULT_LOOKAHEAD,
        start_method: Optional[str] = None,
    ) -> None:
        if n_shards < 1:
            raise SimulationError(f"need at least one shard, got {n_shards}")
        if lookahead <= 0:
            raise SimulationError(f"lookahead must be positive, got {lookahead}")
        self.n_shards = n_shards
        self.lookahead = lookahead
        self._build = build
        self._build_args = tuple(build_args)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._mp = multiprocessing.get_context(start_method)
        self._control = Simulator()
        self._workers: List[Tuple[Any, Any]] = []  # (process, connection)
        self._started = False
        self._closed = False
        self._stop_requested = False
        self._shard_events = [0] * n_shards
        self._shard_pending = [0] * n_shards
        self._shard_next: List[Optional[float]] = [None] * n_shards
        self._inboxes: List[List[_Message]] = [[] for _ in range(n_shards)]
        self._handlers: Dict[str, Callable[[Any, float], None]] = {}
        self._seq = itertools.count()

    # -- lifecycle ---------------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._closed:
            raise SimulationError("backend is closed")
        if self._started:
            return
        self._started = True
        for index in range(self.n_shards):
            parent_conn, child_conn = self._mp.Pipe()
            process = self._mp.Process(
                target=_shard_worker,
                args=(
                    child_conn,
                    index,
                    self.n_shards,
                    self.lookahead,
                    self._build,
                    self._build_args,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append((process, parent_conn))
        for index in range(self.n_shards):
            _tag, pending, next_time, events = self._recv(index, "ready")
            self._shard_pending[index] = pending
            self._shard_next[index] = next_time
            self._shard_events[index] = events

    def _send(self, shard: int, message: Tuple) -> None:
        """A worker that has died cannot be written to either; the
        :meth:`_recv` that follows every send names it."""
        try:
            self._workers[shard][1].send(message)
        except OSError:
            pass

    def _recv(self, shard: int, tag: str) -> Tuple:
        """The ``tag`` reply from one worker, or a named error."""
        process, conn = self._workers[shard]
        try:
            reply = conn.recv()
        except (EOFError, OSError):
            # The pipe closed under us: the worker is gone (killed by
            # the OS, typically).  Reap it for the exit code, shut the
            # others down, and say which shard it was.
            process.join(timeout=5)
            exitcode = process.exitcode
            self.close()
            raise SimulationError(
                f"shard {shard} exited (exitcode {exitcode}) while the "
                f"coordinator waited for {tag!r}"
            ) from None
        if reply[0] == "error":
            raise SimulationError(
                f"shard {shard} failed: {reply[1]}\n{reply[2]}"
            )
        if reply[0] != tag:  # pragma: no cover - protocol misuse
            raise SimulationError(
                f"shard {shard}: expected {tag!r}, got {reply[0]!r}"
            )
        return reply

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for process, conn in self._workers:
            try:
                conn.send(("close",))
            except (OSError, ValueError):
                pass
        for process, conn in self._workers:
            try:
                while conn.poll(5):
                    if conn.recv()[0] == "closed":
                        break
            except (EOFError, OSError):
                pass
            conn.close()
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5)
        self._workers = []

    def __enter__(self) -> "ShardedBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- coordinator boundary traffic -------------------------------------------
    def on_receive(
        self, port: str, handler: Callable[[Any, float], None]
    ) -> None:
        """Register ``handler(payload, arrival_time)`` for messages that
        shards address to :data:`COORDINATOR`."""
        self._handlers[port] = handler

    def send_to_shard(
        self,
        dst_shard: int,
        port: str,
        payload: Any,
        delay: Optional[float] = None,
    ) -> None:
        """Send a boundary message from the control plane to a shard."""
        if not 0 <= dst_shard < self.n_shards:
            raise SimulationError(f"unknown destination shard {dst_shard}")
        delay = _check_delay(delay, self.lookahead)
        arrival = self._control.now + delay
        self._inboxes[dst_shard].append(
            (arrival, COORDINATOR, next(self._seq), dst_shard, port, payload, None)
        )

    # -- SimulationBackend: scheduling (control plane) ---------------------------
    @property
    def now(self) -> float:
        return self._control.now

    @property
    def events_processed(self) -> int:
        return self._control.events_processed + sum(self._shard_events)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self._control.schedule(delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        self._control.schedule_at(when, callback)

    def add_monitor(self, monitor, every: Optional[int] = None) -> None:
        self._control.add_monitor(monitor, every)

    def at_idle(self, hook: Callable[[], None]) -> None:
        self._control.at_idle(hook)

    def step(self) -> bool:
        """Process one control-plane event (shards are barrier-driven)."""
        return self._control.step()

    def stop(self) -> None:
        self._stop_requested = True
        self._control.stop()

    # -- SimulationBackend: introspection ----------------------------------------
    @property
    def pending(self) -> int:
        in_flight = sum(len(inbox) for inbox in self._inboxes)
        return self._control.pending + sum(self._shard_pending) + in_flight

    @property
    def horizon(self) -> float:
        return self._control.horizon

    def peek_next_time(self) -> Optional[float]:
        candidates = []
        control_next = self._control.peek_next_time()
        if control_next is not None:
            candidates.append(control_next)
        candidates.extend(t for t in self._shard_next if t is not None)
        for inbox in self._inboxes:
            candidates.extend(message[0] for message in inbox)
        return min(candidates) if candidates else None

    # -- SimulationBackend: execution --------------------------------------------
    def _advance(self, window_end: float) -> None:
        """One conservative window: everyone to ``window_end``, then swap
        boundary messages at the barrier."""
        for index in range(self.n_shards):
            inbox = sorted(self._inboxes[index], key=lambda m: (m[0], m[1], m[2]))
            self._inboxes[index] = []
            self._send(index, ("advance", window_end, inbox))
        # The control plane advances while the workers churn in parallel.
        self._control.run_until(window_end)
        for index in range(self.n_shards):
            reply = self._recv(index, "advanced")
            _tag, now, events, pending, next_time, outbox = reply
            self._shard_events[index] = events
            self._shard_pending[index] = pending
            self._shard_next[index] = next_time
            for message in outbox:
                arrival, _src, _seq, dst, port, payload, _trace = message
                if dst == COORDINATOR:
                    # arrival >= window start + lookahead >= window_end,
                    # and the control clock sits at window_end (or before,
                    # if stop() fired) — never in the past.
                    self._control.schedule_at(
                        arrival, _Delivery(self._handlers, port, payload, arrival)
                    )
                else:
                    self._inboxes[dst].append(message)

    def _window_end(self, deadline: float) -> Optional[float]:
        """Upper edge of the next safe window, or None when drained.

        A window is safe when no event inside it can produce a message
        that also *arrives* inside it; since every boundary delay is
        >= lookahead, any window ending within ``lookahead`` of the
        earliest pending event qualifies — so idle stretches are jumped
        in one barrier instead of ticked through.
        """
        next_time = self.peek_next_time()
        if next_time is None:
            # Drained early: the last window lands every clock on the
            # deadline, if there is one.
            return deadline if self._control.now < deadline < inf else None
        window_end = min(next_time + self.lookahead, deadline)
        return window_end if window_end > self._control.now else None

    def run_until(self, deadline: float) -> None:
        """Advance everything to ``deadline`` in conservative windows."""
        self._windows(deadline, maxsize)

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until every queue everywhere drains.

        ``max_events`` bounds *control-plane* events and is enforced at
        window barriers.
        """
        limit = (
            maxsize
            if max_events is None
            else self._control.events_processed + max_events
        )
        self._windows(inf, limit)

    def _windows(self, deadline: float, limit: int) -> None:
        """Advance window by window to ``deadline``, or until the control
        plane has fired ``limit`` events."""
        self._ensure_started()
        try:
            while (
                not self._stop_requested
                and self._control.now < deadline
                and self._control.events_processed < limit
            ):
                window_end = self._window_end(deadline)
                if window_end is None:
                    break
                self._advance(window_end)
        finally:
            self._stop_requested = False

    # -- results -----------------------------------------------------------------
    def collect(self) -> ShardCollection:
        """Gather shard program results and each worker's evidence at a
        barrier; the current run context absorbs the evidence."""
        self._ensure_started()
        collection = ShardCollection()
        for index in range(self.n_shards):
            self._send(index, ("collect",))
        for index in range(self.n_shards):
            _tag, result, evidence = self._recv(index, "collected")
            collection.results.append(result)
            collection.evidence.append(evidence)
        collection.telemetry = merge_telemetry(
            [shard["telemetry"] for shard in collection.evidence]
        )
        collection.series = current_run().absorb(collection.evidence)
        return collection


# ---------------------------------------------------------------------------
# Telemetry merging
# ---------------------------------------------------------------------------


def merge_telemetry(
    snapshots: Sequence[List[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Merge per-shard registry snapshots into one fleet-wide view.

    Counters sum.  Gauges keep the last shard's value (they are
    point-in-time readings; summing shares would fabricate a meaning).
    Histograms merge exactly where the math allows — count, sum, min,
    max, and bucket counts — and approximate quantiles as the
    count-weighted mean of the per-shard estimates (each is itself a P²
    estimate, so the merged figure is labelled approximate by nature).
    """
    merged: Dict[Tuple[str, str, Tuple], Dict[str, Any]] = {}
    weights: Dict[Tuple[str, str, Tuple], float] = {}
    for snapshot in snapshots:
        for entry in snapshot:
            key = (
                entry["kind"],
                entry["name"],
                tuple(sorted(entry.get("labels", {}).items())),
            )
            current = merged.get(key)
            if current is None:
                merged[key] = dict(entry)
                if entry["kind"] == "histogram":
                    weights[key] = float(entry.get("count", 0))
                continue
            kind = entry["kind"]
            if kind == "counter":
                current["value"] += entry["value"]
            elif kind == "gauge":
                current["value"] = entry["value"]
            elif kind == "histogram":
                count = float(entry.get("count", 0))
                previous_weight = weights.get(key, 0.0)
                current["count"] += entry["count"]
                current["sum"] += entry["sum"]
                for bound in ("min", "max"):
                    ours, theirs = current.get(bound), entry.get(bound)
                    if theirs is None:
                        continue
                    if ours is None:
                        current[bound] = theirs
                    else:
                        current[bound] = (
                            min(ours, theirs) if bound == "min" else max(ours, theirs)
                        )
                if current.get("count"):
                    current["mean"] = current["sum"] / current["count"]
                ours_buckets = current.get("buckets") or []
                theirs_buckets = entry.get("buckets") or []
                if (
                    ours_buckets
                    and len(ours_buckets) == len(theirs_buckets)
                    and all(
                        a[0] == b[0] for a, b in zip(ours_buckets, theirs_buckets)
                    )
                ):
                    current["buckets"] = [
                        [a[0], a[1] + b[1]]
                        for a, b in zip(ours_buckets, theirs_buckets)
                    ]
                total = previous_weight + count
                if total > 0:
                    current["quantiles"] = {
                        q: (
                            previous_weight * current["quantiles"].get(q, 0.0)
                            + count * value
                        )
                        / total
                        for q, value in entry.get("quantiles", {}).items()
                    }
                weights[key] = total
    return list(merged.values())
