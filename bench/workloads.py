"""The benchmark's workloads, as experiments the runner executes.

Each workload is a function registered with the public ``@experiment``
decorator and run by ``repro.experiments.__main__.main`` — whatever that
entry point arms (flight recorder, ring capture, tracer) is armed while
the workload runs, exactly as for ``python -m repro.experiments``.  The
functions build their rigs from public constructors, generate every
input from the benchmark seed (the program only ever sees the generated
events, paint ops and random generators), advance the simulation in
1-sim-second slices, and verify what came out.

Three functions make four workloads: ``fabric_knee`` and
``fabric_knee_bare`` are one function run with and without
``--no-flight-recorder``.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import math
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.console.console import Console
from repro.core.encoder import SlimEncoder
from repro.experiments import fig11, userstudy
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    experiment,
)
from repro.framebuffer.framebuffer import FrameBuffer
from repro.loadgen.generator import NetworkLoadGenerator, TrafficPattern
from repro.loadgen.yardstick import NetworkYardstick
from repro.netsim.backend import LocalBackend
from repro.netsim.link import GilbertElliottLoss
from repro.netsim.profiles import get_profile
from repro.netsim.transport import Endpoint, Network
from repro.server.slimdriver import SlimDriver
from repro.transport.console import ConsoleChannel
from repro.transport.server import ServerChannel
from repro.units import ETHERNET_100, KIB, MIB
from repro.workloads.apps import BENCHMARK_APPS
from repro.workloads.display_model import DisplayModel

DISPLAY_W, DISPLAY_H = 640, 480

#: Default sizes.  ``--smoke`` scales users, durations and the study by
#: about a tenth; nothing else ever changes them.
WORKGROUP_USERS, WORKGROUP_SIM_SECONDS = 50, 100.0
LOSSY_USERS, LOSSY_SIM_SECONDS = 24, 150.0
#: (application, background users, inbound).  Both packet-size regimes
#: and both sides of the knee.  The outbound cells are the Figure 11 rig:
#: the server sends to a sink and its own uplink is the contended hop —
#: a queue ``Network.attach`` leaves unbounded (its ``queue_limit_bytes``
#: bounds the switch's port *to* an endpoint), so it delays and never
#: drops.  In the inbound cell the same kind of load reaches the server
#: from two peers, 52 % of a link each, and meets the 512 KiB buffer of
#: the switch's port to the server: past the knee, tail-dropping, the
#: yardstick's requests queueing and dropping with it, its RTT finite.
FABRIC_CELLS = (
    ("Netscape", 60, False),
    ("Netscape", 100, False),
    ("Netscape", 165, True),
    ("PIM", 250, False),
    ("PIM", 380, False),
)
FABRIC_SIM_SECONDS = 25.0
FABRIC_STUDY_USERS, FABRIC_STUDY_SECONDS = 12, 300.0
FABRIC_SERVER_BUFFER = 512 * KIB

LOSSY_SERVER_LOSS = 0.05
#: Deep enough for a full-screen refresh (~0.9 MB of small tiles).  Behind
#: the stock 128 KiB wifi buffer one oversized update tail-drops, its
#: re-encodes tail-drop again, the damage map evicts, and the session
#: livelocks in refreshes (see README) — not a workload that can finish.
LOSSY_ACCESS_BUFFER = 2 * MIB
#: The wifi access link without its jitter: jitter *plus* loss ends, at
#: this commit, with every seq resolved but the console pixel-divergent
#: (see README), which the benchmark must neither hide nor depend on.
LOSSY_ACCESS_PROFILE = dataclasses.replace(
    get_profile("wifi"),
    name="wifi-burst-nojitter",
    jitter=0.0,
    queue_limit_bytes=LOSSY_ACCESS_BUFFER,
    burst=GilbertElliottLoss(
        p_enter_bad=0.05, p_exit_bad=0.25, loss_good=0.001, loss_bad=0.35
    ),
)

#: Pushes in one call of the host-speed probe (``_TimedSection._probe``).
PROBE_HEAP_OPS = 5000


@dataclasses.dataclass
class BenchRun:
    """What one child process measures; filled in by the workload."""

    workload: str
    seed: int
    scale: float = 1.0
    #: The parent's ``time.time()`` when it spawned this process.
    spawned_at: float = 0.0
    #: ``tracing.SpanRecorder`` of a traced run, else None.
    recorder: Optional[object] = None
    timing: Dict[str, float] = dataclasses.field(default_factory=dict)
    slices_ms: List[float] = dataclasses.field(default_factory=list)
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    checks: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    section: Dict[str, object] = dataclasses.field(default_factory=dict)

    def scaled(self, value: float, floor: float) -> float:
        return max(floor, value * self.scale)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One verified output; a failure is counted, never raised."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def span(self, layer: str, name: str, fn: Callable) -> Callable:
        """The benchmark's own callbacks count as spans in a traced run."""
        if self.recorder is None:
            return fn
        return self.recorder.wrap(layer, name, fn)


class _TimedSection:
    """First simulated event → drained and verified.

    After every slice the section runs a small fixed kernel of its own —
    heap traffic and a framebuffer-sized copy and compare, the two things
    the simulator spends its time on — and reports the median time of a
    call as ``probe_ms``.  The host's speed drifts by tens of percent
    over minutes; the probe samples that drift through the run, so the
    parent can state times in seconds of a reference host.  Probe time is
    no part of ``run_wall_s``, ``run_cpu_s`` or the slices.
    """

    def __init__(self, run: BenchRun) -> None:
        self.run = run
        self._probe_s: List[float] = []
        self._probe_cpu = 0.0
        self._probe_heap: List[float] = []
        a = np.zeros((DISPLAY_H, DISPLAY_W), dtype=np.uint32)
        b = np.arange(DISPLAY_H * DISPLAY_W, dtype=np.uint32).reshape(
            DISPLAY_H, DISPLAY_W
        )
        self._probe_arrays = (a, b, a[8:400, 16:600], b[8:400, 16:600])

    def __enter__(self) -> "_TimedSection":
        run = self.run
        run.timing["setup_wall_s"] = time.time() - run.spawned_at
        self._gc = [g["collections"] for g in gc.get_stats()]
        if run.recorder is not None:
            self._spans = run.recorder.snapshot()
        self._cpu = time.process_time()
        self._wall = time.perf_counter()
        return self

    def slices(self, sims, sim_seconds: float, step: float = 1.0) -> None:
        """Advance every simulator in ``sims`` to ``sim_seconds`` in
        lockstep, ``step`` simulated seconds at a time, recording the
        wall time of each slice."""
        record = self.run.slices_ms.append
        clock = time.perf_counter
        for index in range(1, math.ceil(sim_seconds / step) + 1):
            deadline = min(index * step, sim_seconds)
            started = clock()
            for sim in sims:
                sim.run_until(deadline)
            record((clock() - started) * 1e3)
            self._probe()

    def _probe(self) -> None:
        """One call of the host-speed kernel.

        It must read the host, not the program.  The collector's cost
        grows with the program's live heap, so the kernel keeps clear of
        it: floats on a reused list and views made once — no tuple, list
        or slice is built here, nothing the collector tracks — and the
        collector is paused meanwhile, so no collection, the program's or
        the probe's, runs inside the timed kernel or is counted in
        ``host.gc_collections`` because of it.
        """
        collecting = gc.isenabled()
        gc.disable()
        cpu, wall = time.process_time(), time.perf_counter()
        heap = self._probe_heap
        push, pop = heapq.heappush, heapq.heappop
        now = 0.0
        for index in range(PROBE_HEAP_OPS):
            push(heap, now + (index * 7919 % 1000) * 1e-3)
            if index & 1:
                now = pop(heap)
        heap.clear()
        a, b, a_window, b_window = self._probe_arrays
        a_window[...] = b_window
        (a == b).all()
        self._probe_s.append(time.perf_counter() - wall)
        self._probe_cpu += time.process_time() - cpu
        if collecting:
            gc.enable()

    def __exit__(self, *exc) -> None:
        run = self.run
        wall = time.perf_counter() - self._wall - sum(self._probe_s)
        run.timing["run_wall_s"] = wall
        run.timing["run_cpu_s"] = (
            time.process_time() - self._cpu - self._probe_cpu
        )
        run.timing["probe_ms"] = 1e3 * statistics.median(self._probe_s)
        collections = [
            g["collections"] - before
            for g, before in zip(gc.get_stats(), self._gc)
        ]
        run.counts["host.gc_collections"] = sum(collections)
        run.counts["host.gc_gen2_collections"] = collections[2]
        if run.recorder is not None:
            self_s, calls = run.recorder.snapshot()
            before_s, before_calls = self._spans
            run.section = {
                "wall_s": wall,
                "self_s": {
                    layer: self_s[layer] - before_s.get(layer, 0.0)
                    for layer in self_s
                },
                "calls": {
                    name: calls[name] - before_calls.get(name, 0)
                    for name in calls
                },
                "setup_self_s": before_s,
            }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- the pixel pipeline ----------------------------------------------------
class _User:
    """One desktop: server framebuffer and driver, display channel over
    the shared fabric, console."""

    def __init__(
        self,
        index: int,
        sim,
        network: Network,
        server_link: Dict[str, object],
        console_link: Dict[str, object],
    ) -> None:
        self.name = f"user{index}"
        server, console = f"server{index}", f"console{index}"
        self.framebuffer = FrameBuffer(DISPLAY_W, DISPLAY_H)
        self.console = Console(DISPLAY_W, DISPLAY_H, sim=sim, address=console)
        self.console_channel = ConsoleChannel(
            self.console, network, server_address=server
        )
        self.server_channel = ServerChannel(
            self.framebuffer,
            network,
            sim,
            address=server,
            console_address=console,
        )
        self.console_channel.attach(**console_link)
        self.server_channel.attach(**server_link)
        self.driver = SlimDriver(
            encoder=SlimEncoder(materialize=True),
            framebuffer=self.framebuffer,
            send=self.server_channel.send_command,
            track_baselines=False,
        )
        self.input_events = 0
        self.paint_ops = 0
        self.pixel_exact = False


def _drive_user(
    run: BenchRun,
    user: _User,
    sim,
    app,
    rng: np.random.Generator,
    sim_seconds: float,
) -> None:
    """Schedule one user's whole session: every input event leaves the
    console as a key or mouse report, and the server answers each one
    that arrives with a display update."""
    events = app.input_model.sample_session(rng, sim_seconds)
    display = DisplayModel(app.archetype, DISPLAY_W, DISPLAY_H)
    user.input_events = len(events)
    console = user.console

    def on_input(_command) -> None:
        ops = display.sample_update(rng, seed=user.driver.stats.updates)
        user.paint_ops += len(ops)
        user.driver.update(sim.now, ops)

    user.server_channel.on_input = run.span(
        "workloads", "bench.on_input", on_input
    )
    for index, event in enumerate(events):
        if event.kind == "key":
            send = _key_sender(console, index)
        else:
            send = _mouse_sender(console, index)
        sim.schedule_at(event.time, run.span("workloads", "bench.input", send))


def _key_sender(console: Console, index: int) -> Callable[[], None]:
    return lambda: console.key_event(32 + index % 95, True)


def _mouse_sender(console: Console, index: int) -> Callable[[], None]:
    return lambda: console.mouse_event(
        (index * 37) % DISPLAY_W, (index * 53) % DISPLAY_H, 1
    )


def _run_pixel_sessions(
    run: BenchRun,
    n_users: int,
    sim_seconds: float,
    links: Callable[
        [int, np.random.Generator], Tuple[Dict[str, object], Dict[str, object]]
    ],
) -> ExperimentResult:
    label = run.workload
    apps = list(BENCHMARK_APPS.values())
    sim = LocalBackend()
    network = Network(sim, default_rate_bps=ETHERNET_100)
    users: List[_User] = []
    for index, child in enumerate(np.random.SeedSequence(run.seed).spawn(n_users)):
        session_seed, link_seed = child.spawn(2)
        server_link, console_link = links(
            index, np.random.default_rng(link_seed)
        )
        user = _User(index, sim, network, server_link, console_link)
        _drive_user(
            run,
            user,
            sim,
            apps[index % len(apps)],
            np.random.default_rng(session_seed),
            sim_seconds,
        )
        users.append(user)

    with _TimedSection(run) as timed:
        timed.slices([sim], sim_seconds)
        sim.run()  # drain: recovery completes, status timers quiesce
        for user in users:
            user.pixel_exact = user.framebuffer.equals(user.console.framebuffer)
            resolved = user.server_channel.converged
            run.check(
                f"{label}.{user.name}.converged",
                user.pixel_exact and resolved,
                f"pixel_exact={user.pixel_exact} resolved={resolved}",
            )

    uplinks = [
        network.uplink(address)
        for user in users
        for address in (user.server_channel.address, user.console.address)
    ]
    downlinks = [
        network.downlink(address)
        for user in users
        for address in (user.server_channel.address, user.console.address)
    ]
    server_uplinks = [network.uplink(u.server_channel.address) for u in users]
    offered = sum(
        link.stats.packets_sent + link.stats.packets_dropped for link in uplinks
    )
    delivered = sum(
        network.endpoint(address).packets_received
        for user in users
        for address in (user.server_channel.address, user.console.address)
    )
    lost = sum(link.stats.packets_lost for link in uplinks + downlinks)
    dropped = sum(link.stats.packets_dropped for link in uplinks + downlinks)
    run.check(
        f"{label}.conservation",
        offered == delivered + lost + dropped,
        f"offered={offered} delivered={delivered} lost={lost} dropped={dropped}",
    )

    server = [user.server_channel.stats for user in users]
    console = [user.console_channel.stats for user in users]
    driver = [user.driver.stats for user in users]
    wire_bytes = sum(s.wire_bytes for s in server)
    input_events = sum(user.input_events for user in users)
    counts = run.counts
    counts.update(
        {
            "workloads.input_events": input_events,
            "workloads.updates": sum(d.updates for d in driver),
            "framebuffer.paint_ops": sum(user.paint_ops for user in users),
            "framebuffer.pixels_painted": sum(d.pixels for d in driver),
            "server.updates": sum(d.updates for d in driver),
            "core.encoder.commands": sum(d.commands for d in driver),
            "core.encoder.payload_bytes": sum(d.payload_bytes for d in driver),
            "core.encoder.recovery_commands": sum(
                s.recovery_commands for s in server
            ),
            "core.wire.messages": sum(s.messages_sent for s in server)
            + sum(c.nacks_sent + c.frontiers_sent for c in console)
            + input_events,
            "core.wire.datagrams": offered,
            "core.wire.wire_bytes": wire_bytes,
            "transport.nacks_sent": sum(c.nacks_sent for c in console),
            "transport.recoveries": sum(s.recoveries for s in server),
            "transport.refreshes": sum(s.refreshes for s in server),
            "transport.syncs_sent": sum(s.syncs_sent for s in server),
            "transport.recovery_bytes_frac": _ratio(
                sum(s.recovery_bytes for s in server), wire_bytes
            ),
            "transport.recovery_latency_mean_sim_ms": 1e3
            * _ratio(
                sum(c.recovery_latency_total for c in console),
                sum(c.recoveries_timed for c in console),
            ),
            "netsim.events_fired": sim.events_processed,
            "netsim.packets_offered": offered,
            "netsim.packets_delivered": delivered,
            "netsim.packets_lost": lost,
            "netsim.packets_dropped": dropped,
            "netsim.delivered_frac": _ratio(delivered, offered),
            "netsim.events_per_packet": _ratio(sim.events_processed, offered),
            "netsim.queue_delay_mean_sim_ms": 1e3
            * _ratio(
                sum(link.stats.queue_delay_total for link in server_uplinks),
                sum(link.stats.packets_sent for link in server_uplinks),
            ),
            "console.commands": sum(
                u.console.stats.commands_processed for u in users
            ),
            "console.commands_dropped": sum(
                u.console.stats.commands_dropped for u in users
            ),
            "console.pixels": sum(u.console.decoder.pixels_written for u in users),
            "console.virtual_s": sum(u.console.stats.busy_time for u in users),
        }
    )
    run.timing["user_sim_s"] = n_users * sim_seconds
    rows = []
    for app_index, app in enumerate(apps):
        group = users[app_index :: len(apps)]
        rows.append(
            {
                "application": app.name,
                "users": len(group),
                "updates": sum(u.driver.stats.updates for u in group),
                "wire KB": round(
                    sum(u.server_channel.stats.wire_bytes for u in group) / 1024, 1
                ),
                "recoveries": sum(u.server_channel.stats.recoveries for u in group),
                "nacks": sum(u.console_channel.stats.nacks_sent for u in group),
                "pixel exact": all(u.pixel_exact for u in group),
            }
        )
    return ExperimentResult(
        experiment_id=f"bench_{label}",
        title=f"{n_users} desktops x {sim_seconds:g} sim-s through the pixel pipeline",
        rows=rows,
        notes=[f"drained at sim t={sim.now:.6f}s after {sim.events_processed} events"],
    )


# -- the shared fabric -------------------------------------------------------
def _levelled(profiles, n_users: int, bins: int, bytes_per_bin: float):
    """Copies of the recorded ``profiles`` cut to the ``bins`` intervals a
    cell replays and rescaled, interval by interval, so that the
    ``n_users`` generators sharing them round-robin together offer
    ``bytes_per_bin`` in each.

    fig11 scales on the mean of the whole ten-minute profile.  A 25 s
    cell plays only the first intervals of twelve synthesised users,
    whose level varies several-fold between studies and between
    intervals: scaled fig11's way, offered load, queue backlog, run time
    and memory all moved by 15-30 % from seed to seed, and two seeds in
    ten saturated a cell.  Levelled, every seed offers the same bytes
    per interval; who sends them, and the bursts within an interval,
    still come from the study and the generators' own draws.
    """
    uses = [len(range(j, n_users, len(profiles))) for j in range(len(profiles))]
    levelled: List[List[int]] = [[] for _ in profiles]
    for b in range(bins):
        recorded = sum(n * p.net_bytes[b] for n, p in zip(uses, profiles))
        for out, profile in zip(levelled, profiles):
            out.append(
                round(profile.net_bytes[b] * bytes_per_bin / recorded)
                if recorded
                else 0
            )
    return [
        dataclasses.replace(profile, net_bytes=net_bytes)
        for profile, net_bytes in zip(profiles, levelled)
    ]


class _FabricCell:
    """The Figure 11 rig: a yardstick console, a server behind a bounded
    switch port, and background load that shares the server's link —
    outbound to a sink, or inbound from two peers."""

    def __init__(
        self,
        app_name: str,
        n_users: int,
        inbound: bool,
        profiles,
        sim_seconds: float,
        seed: np.random.SeedSequence,
    ) -> None:
        interval = profiles[0].interval
        profiles = _levelled(
            profiles,
            n_users,
            bins=math.ceil(sim_seconds / interval),
            bytes_per_bin=fig11.PAPER_IMPLIED_BPS[app_name] * n_users * interval / 8,
        )
        self.label = f"{app_name}x{n_users}{'in' if inbound else ''}"
        self.n_users = n_users
        self.sim = sim = LocalBackend()
        self.network = network = Network(sim, default_rate_bps=ETHERNET_100)
        self.yardstick = NetworkYardstick(
            sim,
            network,
            console_addr="console",
            server_addr="server",
            warmup=sim_seconds / 8,
        )
        #: Requests that reached the server; it answers each at once.
        self.responses = 0
        network.attach(
            Endpoint("console", on_receive=self.yardstick.handle_console_packet)
        )
        network.attach(
            Endpoint("server", on_receive=self._on_server_packet),
            queue_limit_bytes=FABRIC_SERVER_BUFFER,
        )
        sources, sink = (
            (("peer0", "peer1"), "server") if inbound else (("server",), "sink")
        )
        self.addresses = tuple(dict.fromkeys(("console", "server", *sources, sink)))
        for address in self.addresses[2:]:
            network.attach(Endpoint(address))
        #: The link whose queue the load and the yardstick share.
        self.contended = (
            network.downlink("server") if inbound else network.uplink("server")
        )
        self.generators = [
            NetworkLoadGenerator(
                sim,
                network,
                src=sources[index % len(sources)],
                dst=sink,
                profile=profiles[index % len(profiles)],
                pattern=TrafficPattern(
                    updates_per_second=5.0, active_fraction=0.9
                ),
                rng=np.random.default_rng(child),
                flow=f"bg{index}",
            )
            for index, child in enumerate(seed.spawn(n_users))
        ]
        for generator in self.generators:
            generator.start()
        self.yardstick.start()

    def _on_server_packet(self, packet) -> None:
        if packet.flow == "yardstick-request":
            self.responses += 1
            self.yardstick.handle_server_packet(packet)

    def links(self):
        for address in self.addresses:
            yield self.network.uplink(address)
            yield self.network.downlink(address)

    def tally(self) -> Dict[str, float]:
        """Packet accounting at the instant the cell stopped.  The cell
        never drains (generators loop forever), so what was offered but
        has neither arrived nor died is in flight — and has to fit in
        the links' queues plus what one wire and one switch hop hold."""
        network = self.network
        emitted = sum(g.packets_emitted for g in self.generators)
        console_up = network.uplink("console")
        requests = (
            console_up.stats.packets_sent
            + console_up.stats.packets_dropped
            + console_up.queue_depth
        )
        links = list(self.links())
        return {
            "emitted": emitted,
            "offered": emitted + requests + self.responses,
            "delivered": sum(
                network.endpoint(a).packets_received for a in self.addresses
            ),
            "lost": sum(link.stats.packets_lost for link in links),
            "dropped": sum(link.stats.packets_dropped for link in links),
            "room": sum(link.queue_depth + 3 for link in links),
        }


def _run_fabric_cells(run: BenchRun) -> ExperimentResult:
    label = run.workload
    sim_seconds = run.scaled(FABRIC_SIM_SECONDS, 6.0)
    root = np.random.SeedSequence(run.seed)
    study_seed, *cell_seeds = root.spawn(1 + len(FABRIC_CELLS))
    studies = {}
    for app_name in dict.fromkeys(cell[0] for cell in FABRIC_CELLS):
        _traces, profiles = userstudy.get_study(
            BENCHMARK_APPS[app_name],
            n_users=FABRIC_STUDY_USERS,
            duration=run.scaled(FABRIC_STUDY_SECONDS, 30.0),
            seed=int(study_seed.generate_state(1)[0]),
        )
        studies[app_name] = profiles
    cells = [
        _FabricCell(*cell, studies[cell[0]], sim_seconds, seed)
        for cell, seed in zip(FABRIC_CELLS, cell_seeds)
    ]

    rows = []
    totals = dict.fromkeys(
        ("emitted", "offered", "delivered", "lost", "dropped", "events"), 0
    )
    rtts: List[float] = []
    probes_lost = 0
    queue_delay = queued_packets = 0.0
    with _TimedSection(run) as timed:
        # All cells advance together, a fifth of a second each per slice:
        # every slice then holds one cell-second of every load level,
        # instead of the slice times falling into one cluster per cell.
        timed.slices([cell.sim for cell in cells], sim_seconds, 1.0 / len(cells))
        for cell in cells:
            tally = cell.tally()
            in_flight = (
                tally["offered"]
                - tally["delivered"]
                - tally["lost"]
                - tally["dropped"]
            )
            finite = bool(cell.yardstick.rtts)
            run.check(
                f"{label}.{cell.label}.conservation",
                0 <= in_flight <= tally["room"],
                f"{tally} in_flight={in_flight}",
            )
            run.check(
                f"{label}.{cell.label}.rtt_finite",
                finite,
                f"{len(cell.yardstick.rtts)} probes, {cell.yardstick.lost} lost",
            )
            for key in ("emitted", "offered", "delivered", "lost", "dropped"):
                totals[key] += tally[key]
            totals["events"] += cell.sim.events_processed
            rtts.extend(cell.yardstick.rtts)
            probes_lost += cell.yardstick.lost
            contended = cell.contended.stats
            queue_delay += contended.queue_delay_total
            queued_packets += contended.packets_sent
            rows.append(
                {
                    "cell": cell.label,
                    "packets": tally["emitted"],
                    "dropped": tally["dropped"],
                    "probes": len(cell.yardstick.rtts),
                    "probes lost": cell.yardstick.lost,
                    "RTT ms": round(1e3 * cell.yardstick.mean_rtt(), 6)
                    if finite
                    else "inf",
                    "queue ms": round(1e3 * contended.mean_queue_delay(), 6),
                }
            )

    run.counts.update(
        {
            "workloads.study_sessions": FABRIC_STUDY_USERS * len(studies),
            "netsim.events_fired": totals["events"],
            "netsim.packets_offered": totals["offered"],
            "netsim.packets_delivered": totals["delivered"],
            "netsim.packets_lost": totals["lost"],
            "netsim.packets_dropped": totals["dropped"],
            "netsim.delivered_frac": _ratio(totals["delivered"], totals["offered"]),
            "netsim.events_per_packet": _ratio(totals["events"], totals["offered"]),
            "netsim.queue_delay_mean_sim_ms": 1e3
            * _ratio(queue_delay, queued_packets),
            "netsim.yardstick_rtt_mean_sim_ms": 1e3 * float(np.mean(rtts))
            if rtts
            else 0.0,
            "netsim.yardstick_loss_frac": _ratio(
                probes_lost, probes_lost + len(rtts)
            ),
            "loadgen.packets_emitted": totals["emitted"],
            "loadgen.probes_completed": len(rtts),
        }
    )
    run.timing["user_sim_s"] = sum(cell[1] for cell in FABRIC_CELLS) * sim_seconds
    return ExperimentResult(
        experiment_id=f"bench_{label}",
        title=f"yardstick under background load, {sim_seconds:g} sim-s per cell",
        rows=rows,
    )


# -- registration ------------------------------------------------------------
def _lan_links(_index: int, _rng: np.random.Generator):
    return {}, {}


def _lossy_links(index: int, rng: np.random.Generator):
    if index % 2 == 0:
        # Display traffic and the console's NACKs both cross this pair.
        return {"loss_rate": LOSSY_SERVER_LOSS, "rng": rng}, {}
    return {}, {"profile": LOSSY_ACCESS_PROFILE, "rng": rng}


def register(run: BenchRun) -> Dict[str, str]:
    """Register the workloads for ``run``; returns workload name ->
    experiment id.  Sizes, seed and scale travel in ``run``, never
    through the runner's flags."""

    @experiment("bench_workgroup_session", title="benchmark: workgroup session")
    def workgroup_session(_config: ExperimentConfig) -> ExperimentResult:
        return _run_pixel_sessions(
            run,
            int(run.scaled(WORKGROUP_USERS, 4)),
            run.scaled(WORKGROUP_SIM_SECONDS, 8.0),
            _lan_links,
        )

    @experiment("bench_fabric_knee", title="benchmark: fabric knee")
    def fabric_knee(_config: ExperimentConfig) -> ExperimentResult:
        return _run_fabric_cells(run)

    @experiment("bench_lossy_recovery", title="benchmark: lossy recovery")
    def lossy_recovery(_config: ExperimentConfig) -> ExperimentResult:
        return _run_pixel_sessions(
            run,
            int(run.scaled(LOSSY_USERS, 4)),
            run.scaled(LOSSY_SIM_SECONDS, 8.0),
            _lossy_links,
        )

    return {
        "workgroup_session": "bench_workgroup_session",
        "fabric_knee": "bench_fabric_knee",
        "fabric_knee_bare": "bench_fabric_knee",
        "lossy_recovery": "bench_lossy_recovery",
    }
