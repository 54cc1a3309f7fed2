"""Seeded fabric workloads whose outputs are frozen under ``tests/golden/``.

The goldens were produced by the *scalar* link implementation (three
events per packet, observers called from inside those events) at the
last commit that had one, by running ``tests/golden/regen.py`` there
with the scalar path forced.  The single admission path that replaced it
must reproduce them value for value: delivery traces, RNG consumption,
folded link statistics sampled at random mid-run instants, per-packet
tracer events, ``.slimcap`` bytes, stage partitions and registry
snapshots.

Everything returned here is JSON-shaped (after :func:`normalize`), so a
golden is one ``json.load`` away from an ``==``.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.core.wire import Datagram
from repro.netsim.engine import Simulator
from repro.netsim.link import GilbertElliottLoss, Link
from repro.netsim.packet import Packet
from repro.netsim.transport import Endpoint, Network
from repro.obs import SlimcapReader, SlimcapWriter, TraceCollector, load_bundle
from repro.runcontext import use_run
from repro.telemetry import MetricsRegistry, render_json

GOLDEN = Path(__file__).resolve().parent / "golden" / "fabric_oracle.json"

#: The link-workload rows: id -> constructor kwargs.
LINK_ROWS = {
    "clean": {},
    "bernoulli": {"loss_rate": 0.15},
    "jitter": {"jitter": 40e-6},
    "loss+jitter": {"loss_rate": 0.1, "jitter": 25e-6},
    "taildrop": {"queue_limit": 4000},
    "loss+drop": {"loss_rate": 0.2, "queue_limit": 3000},
    "gilbert_elliott": {"burst_loss": (0.05, 0.3, 0.01), "seed": 77},
}

#: Mid-run instants the link workload is sampled at: the four slice ends
#: the workload always used, plus seeded random ones (the fold-horizon
#: rule is exercised hardest between events, not at them).
_FIXED_PROBES = (0.001, 0.0025, 0.004, 0.02)
_RANDOM_PROBES = 24


def table_lines(stdout: str):
    """The runner's rendered tables: stdout up to the first post-run
    report line, minus the wall-clock "(1.2s)" lines."""
    lines = []
    for line in stdout.splitlines():
        if line.startswith("run record written"):
            break
        if not (line.startswith("  (") and line.endswith("s)")):
            lines.append(line)
    return lines


def normalize(value):
    """Round-trip through JSON: tuples become lists, keys strings."""
    return json.loads(json.dumps(value))


def load_golden() -> dict:
    with GOLDEN.open(encoding="utf-8") as handle:
        return json.load(handle)


class EventLog:
    """A tracer stand-in that rebuilds the four rows per hop the scalar
    path reported — ``enqueue``, ``tx_start``, ``tx_end``, ``deliver`` —
    from the itinerary a delivered packet carries (``Packet.hops``),
    grouped by packet (the order *within* a packet is the contract).

    A link only needs *a* tracer to be present to write hop records; the
    receiver hands each arriving packet to :meth:`arrived`.  A packet
    that never arrives shows its itinerary to nobody, so it has no rows
    here: compare against :func:`arrived_only` of a golden.
    """

    def __init__(self) -> None:
        self.by_packet: dict = {}

    def arrived(self, packet, now, propagation_delay=0.0) -> None:
        """``packet`` reached its receiver at ``now``.  Earlier hops end
        ``propagation_delay`` after serialization (jitter-free links);
        the last one ends now, whatever the link added."""
        path = []
        hop = packet.hops
        while hop is not None:
            path.append(hop)
            hop = hop[4]
        trace_id = packet.trace_id
        rows = self.by_packet.setdefault(packet.packet_id, [])
        for link, ready, start, finish, _earlier in reversed(path):
            rows.append([trace_id, "enqueue", link, ready])
            rows.append([trace_id, "tx_start", link, start])
            rows.append([trace_id, "tx_end", link, finish])
            rows.append([trace_id, "deliver", link, finish + propagation_delay])
        rows[-1][3] = now


def arrived_only(golden: dict) -> dict:
    """``golden`` without the tracer rows of packets lost on the way
    (the scalar path reported those as they happened; see EventLog)."""
    return dict(
        golden,
        events={
            packet_id: rows
            for packet_id, rows in golden["events"].items()
            if rows[-1][1] == "deliver"
        },
    )


def capture_digest(path, list_frames: bool = True) -> dict:
    """What a ``.slimcap`` file (or a bundle's ``ring.slimcap`` bytes)
    holds: a digest of its exact bytes plus the frame-level story, so a
    mismatch is readable.  Whole sessions are long; for those the digest
    is the contract and ``frames`` is just the count."""
    data = path if isinstance(path, bytes) else Path(path).read_bytes()
    records = [
        [r.kind_name, r.time, r.src, r.dst, r.datagram.seq, r.datagram.index]
        for r in SlimcapReader.from_bytes(data).records()
        if r.datagram is not None
    ]
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "nbytes": len(data),
        "frames": records if list_frames else len(records),
    }


def ring_bytes(bundle) -> bytes:
    """A ``.slimpm`` bundle's wire capture, as stored."""
    with zipfile.ZipFile(bundle) as archive:
        return archive.read("ring.slimcap")


def registry_snapshot(registry):
    """Every instrument, minus what the host clock wrote: ``span.*``
    histograms time the server driver in wall seconds, so only their
    observation count is simulated behaviour."""
    return _without_wall_clock(json.loads(render_json(registry)))


def _without_wall_clock(snapshot):
    return [
        {key: inst[key] for key in ("kind", "name", "labels", "count")}
        if inst["name"].startswith("span.")
        else inst
        for inst in snapshot
    ]


def _stats_tuple(stats):
    return [
        stats.packets_sent,
        stats.bytes_sent,
        stats.packets_dropped,
        stats.packets_lost,
        stats.queue_delay_total,
        stats.busy_time,
    ]


# ---------------------------------------------------------------------------
# One link under a seeded bursty workload
# ---------------------------------------------------------------------------


def link_workload(
    *,
    loss_rate=0.0,
    jitter=0.0,
    burst_loss=None,
    queue_limit=None,
    seed=123,
    use_burst=False,
    armed_dir=None,
):
    """One lossy/jittery link under a seeded bursty workload.

    With ``armed_dir`` the link carries Datagram payloads with trace
    ids and is watched by all three observers: an :class:`EventLog`
    tracer, a file capture tap and an enabled registry.
    """
    sim = Simulator()
    rng = np.random.default_rng(seed)
    delivered = []
    armed = armed_dir is not None
    log = EventLog() if armed else None
    registry = MetricsRegistry() if armed else None
    if burst_loss is not None:
        burst_loss = GilbertElliottLoss(
            burst_loss[0], burst_loss[1], loss_good=burst_loss[2]
        )

    def on_deliver(p):
        tag = p.payload.seq if armed else p.payload
        delivered.append([sim.now, tag, p.nbytes])
        if armed:
            log.arrived(p, sim.now)

    observers = {"registry": registry, "tracer": log} if armed else {}
    with use_run(**observers):
        link = Link(
            sim,
            rate_bps=10e6,
            propagation_delay=20e-6,
            deliver=on_deliver,
            queue_limit_bytes=queue_limit,
            loss_rate=loss_rate,
            jitter=jitter,
            burst_loss=burst_loss,
            rng=rng
            if (loss_rate or jitter or burst_loss is not None)
            else None,
            name="oracle",
        )
    writer = None
    if armed:
        writer = SlimcapWriter(Path(armed_dir) / "link.slimcap")
        link.capture = writer
    plan = np.random.default_rng(seed + 1)
    sizes = plan.integers(64, 1500, size=120)
    gaps = plan.integers(0, 3, size=120) * 150e-6
    accepted = []
    cursor = [0]

    def make_packet(index):
        nbytes = int(sizes[index % 120])
        if not armed:
            return Packet(src="a", dst="b", nbytes=nbytes, payload=index)
        return Packet(
            src="a",
            dst="b",
            nbytes=nbytes,
            payload=Datagram(
                seq=index, index=0, count=1, payload=bytes([index % 251]) * 8
            ),
            trace_id=1000 + index,
            packet_id=index,
        )

    def send_some():
        i = cursor[0]
        if i >= 120:
            return
        n = int(plan.integers(1, 5))  # a small train at one instant
        train = [make_packet(i + k) for k in range(n)]
        if use_burst and len(train) > 1:
            accepted.extend(link.send_burst(train))
        else:
            for p in train:
                accepted.append(link.send(p))
        cursor[0] = i + n
        sim.schedule(float(gaps[i % 120]) + 1e-6, send_some)

    sim.schedule(0.0, send_some)
    instants = sorted(
        set(_FIXED_PROBES)
        | set(
            float(t)
            for t in np.random.default_rng(seed + 2).uniform(
                0.0, 0.02, size=_RANDOM_PROBES
            )
        )
    )
    probes = []
    for instant in instants:
        sim.run_until(instant)
        probes.append(
            [
                instant,
                link.queue_depth,
                link.queued_bytes,
                round(link.utilization(), 12),
                _stats_tuple(link.stats),
            ]
        )
    sim.run()
    result = {
        "delivered": delivered,
        "accepted": accepted,
        "stats": _stats_tuple(link.stats),
        "rng": rng.bit_generator.state if link.rng is not None else None,
        "probes": probes,
    }
    if armed:
        writer.close()
        result["events"] = log.by_packet
        result["capture"] = capture_digest(writer.path)
        result["registry"] = registry_snapshot(registry)
    return normalize(result)


# ---------------------------------------------------------------------------
# A three-endpoint switched star with crossing traffic
# ---------------------------------------------------------------------------


def star_workload(*, seed=5, loss_rate=0.0, use_burst=False, armed_dir=None):
    sim = Simulator()
    armed = armed_dir is not None
    log = EventLog() if armed else None
    registry = MetricsRegistry() if armed else None
    writer = (
        SlimcapWriter(Path(armed_dir) / "star.slimcap") if armed else None
    )
    events = []

    def rx(name):
        def receive(p):
            events.append([round(sim.now, 12), name, p.nbytes, p.flow])
            if armed:
                log.arrived(p, sim.now, network.propagation_delay)

        return receive

    observers = (
        {"registry": registry, "tracer": log, "capture": writer}
        if armed
        else {}
    )
    with use_run(**observers):
        network = Network(sim, default_rate_bps=100e6)
        for name in ("a", "b", "c"):
            network.attach(
                Endpoint(name, on_receive=rx(name)),
                loss_rate=loss_rate,
                rng=np.random.default_rng(seed + ord(name))
                if loss_rate
                else None,
            )
    plan = np.random.default_rng(seed + 99)
    names = ("a", "b", "c")
    serial = [0]

    def make_packet(src, dst, flow):
        nbytes = int(plan.integers(64, 1400))
        if not armed:
            return Packet(src=src, dst=dst, nbytes=nbytes, flow=flow)
        serial[0] += 1
        n = serial[0]
        return Packet(
            src=src,
            dst=dst,
            nbytes=nbytes,
            flow=flow,
            payload=Datagram(seq=n, index=0, count=1, payload=b"\x5a" * 4),
            trace_id=5000 + n,
            packet_id=n,
        )

    def emit(i):
        def cb():
            src = names[i % 3]
            dst = names[(i + 1 + int(plan.integers(0, 2))) % 3]
            if dst == src:
                dst = names[(i + 2) % 3]
            train = [
                make_packet(src, dst, f"f{i}")
                for _ in range(int(plan.integers(1, 4)))
            ]
            if use_burst:
                network.send_burst(train)
            else:
                for p in train:
                    network.send(p)

        return cb

    for i in range(60):
        sim.schedule(float(plan.integers(0, 40)) * 1e-4, emit(i))
    sim.run()
    result = {
        "log": events,
        "counts": [
            [
                network.endpoint(n).packets_received,
                network.endpoint(n).bytes_received,
            ]
            for n in names
        ],
        "forwarded": network.switch.packets_forwarded,
        "link_stats": {
            f"{kind}:{n}": _stats_tuple(getattr(network, kind)(n).stats)
            for n in names
            for kind in ("uplink", "downlink")
        },
    }
    if armed:
        writer.close()
        result["events"] = log.by_packet
        result["capture"] = capture_digest(writer.path)
        result["registry"] = registry_snapshot(registry)
    return normalize(result)


def ingress_workload():
    """A train handed to the switch one ``ingress`` per packet.

    Two output ports fed from one instant.  The sizes are chosen so no
    two ports ever finish a packet at the same instant: the scalar
    implementation ordered such cross-link delivery ties by when
    serialization *started*, the admission path orders them by
    admission, so only a tie-free train has a scalar golden.
    """
    sim = Simulator()
    network = Network(sim, default_rate_bps=100e6)
    events = []
    for name in ("a", "b"):
        network.attach(
            Endpoint(
                name,
                on_receive=lambda p, n=name: events.append(
                    [round(sim.now, 12), n, p.nbytes]
                ),
            )
        )
    switch = network.switch
    train = [
        Packet(
            src="x",
            dst="a" if i % 3 else "b",
            nbytes=200 + 17 * i + (i * i) % 11,
        )
        for i in range(12)
    ]

    def inject():
        for p in train:
            switch.ingress(p)

    sim.schedule(0.001, inject)
    sim.run()
    return normalize({"log": events, "forwarded": switch.packets_forwarded})


# ---------------------------------------------------------------------------
# Experiment fingerprints
# ---------------------------------------------------------------------------


def lossy_session_fingerprint():
    from repro.experiments.lossy_fabric import run_lossy_session

    channel = run_lossy_session(0.05, updates=6, seed=3)
    uplink = channel.network.uplink("server")
    downlink = channel.network.downlink("console")
    pixels = channel.console.framebuffer.pixels.tobytes()
    return normalize(
        {
            "pixels_sha256": hashlib.sha256(pixels).hexdigest(),
            "recoveries": channel.recoveries,
            "refreshes": channel.refreshes,
            "converged": channel.converged,
            "uplink": _stats_tuple(uplink.stats),
            "downlink": _stats_tuple(downlink.stats),
            "console_packets": channel.network.endpoint(
                "console"
            ).packets_received,
            "wire_bytes": channel.server_channel.stats.wire_bytes,
            "ended_at": channel.sim.now,
        }
    )


def yardstick_fingerprint():
    from repro.experiments.lossy_fabric import yardstick_on_lossy_fabric

    rtt, probe_loss = yardstick_on_lossy_fabric(0.1, sim_seconds=4.0, seed=11)
    return normalize({"rtt": rtt, "loss": probe_loss})


def fig8_fingerprint():
    from repro.experiments.fig8 import bandwidth_table

    return normalize(bandwidth_table(n_users=2, duration=20.0, seed=9))


def armed(fn, scratch):
    """Run ``fn`` watched by a real tracer, a file capture and an enabled
    registry; returns its result plus what each observer saw."""
    tracer = TraceCollector()
    writer = SlimcapWriter(Path(scratch) / "armed.slimcap")
    registry = MetricsRegistry()
    with use_run(registry=registry, tracer=tracer, capture=writer):
        result = fn()
    writer.close()
    return normalize(
        {
            "result": result,
            "capture": capture_digest(writer.path),
            "traces": [
                [list(t.key), t.opcode, t.end_to_end, t.stages]
                for t in tracer.completed_messages()
            ],
            "registry": registry_snapshot(registry),
        }
    )


# ---------------------------------------------------------------------------
# The runner and the examples, as a user invokes them
# ---------------------------------------------------------------------------


#: The one place ``--metrics`` totals are NOT the parent's.  A
#: queue-depth observation made at an exact tie — a packet arriving at
#: the very instant another starts serializing — depended, on the scalar
#: path, on which of the two events happened to be pushed on the heap
#: first; the admission path has one rule (departures before arrivals).
#: ``lossy_fabric`` hits such ties on two uplinks (54-byte NACK trains
#: spaced by exactly their own serialization time; 3 of 2248 and 13 of
#: 4643 observations came out one deeper on the scalar path), so for
#: exactly those two instruments only the fields a tie cannot move are
#: pinned.  Every other histogram, these names on every other link
#: included, is pinned in full.
_TIE_MOVED = {
    "lossy_fabric": {
        ("net.link.queue_depth", "console->switch"),
        ("net.link.queue_depth", "server->switch"),
    },
}
_TIE_PROOF_FIELDS = ("kind", "name", "labels", "count", "min", "max")

#: Counters of the packet-layer gap tracker that ``Endpoint`` no longer
#: carries (the console channel's tracker is the one recovery uses).
_REMOVED_PREFIX = "net.transport."


def runner_outputs(scratch, experiment="table4"):
    """``python -m repro.experiments`` with default flags plus every
    record on: the rendered tables, and the ``--record`` bundle's
    telemetry, capture and series run totals."""
    import contextlib
    import io

    from repro.experiments.__main__ import main

    scratch = Path(scratch)
    window = 0.05
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(
            [
                "--record",
                "--timeseries-window", str(window),
                "--postmortem-dir", str(scratch / "pm"),
                experiment,
            ]
        )
    tables = table_lines(out.getvalue())
    record = load_bundle(scratch / "pm" / f"{experiment}.slimpm")
    tie_moved = _TIE_MOVED.get(experiment, ())
    metrics = []
    for inst in _without_wall_clock(record.metrics):
        if inst["name"].startswith(_REMOVED_PREFIX):
            continue
        if (inst["name"], inst["labels"].get("link")) in tie_moved:
            inst = {k: inst[k] for k in _TIE_PROOF_FIELDS}
        metrics.append(inst)
    # Run totals: per-window deltas summed back up.  Which window a
    # delta lands in follows the sampler's event cadence and is free to
    # move; the totals and the window grid are not.
    labels = []
    totals: dict = {}
    off_grid = 0
    for series in record.timeseries:
        if series.get("type") == "run":
            labels.append(series["label"])
        if series.get("type") != "window":
            continue
        # Every window starts on the grid (only a run's last one may
        # end off it, at the run's final instant).
        cells = series["t0"] / window
        off_grid += abs(cells - round(cells)) > 1e-6
        bucket = totals.setdefault(str(series["run"]), {})
        for key, delta in series.get("counters", {}).items():
            if not key.startswith(_REMOVED_PREFIX):
                bucket[key] = bucket.get(key, 0) + delta
        for key, hist in series.get("histograms", {}).items():
            bucket[key + "#count"] = (
                bucket.get(key + "#count", 0) + hist["count"]
            )
    for bucket in totals.values():
        for key, value in bucket.items():
            if isinstance(value, float):
                # Re-adding deltas reassociates a float sum.
                bucket[key] = float(f"{value:.9g}")
    return normalize(
        {
            "status": status,
            "tables": tables,
            "metrics": metrics,
            "capture": capture_digest(ring_bytes(record.path), list_frames=False),
            "timeseries_runs": labels,
            "timeseries_totals": totals,
            "timeseries_windows_off_grid": off_grid,
        }
    )


def example_captures(scratch):
    """The wire captures the examples write (the quickstart's in its
    ``--record`` bundle)."""
    import contextlib
    import importlib.util
    import io

    examples = Path(__file__).resolve().parent.parent / "examples"

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"oracle_example_{name}", examples / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    scratch = Path(scratch)
    digests = {}
    with contextlib.redirect_stdout(io.StringIO()):
        load("quickstart").main(["--record", str(scratch)])
    digests["quickstart"] = capture_digest(
        ring_bytes(scratch / "quickstart.slimpm"),
        list_frames=False,
    )
    lossy = load("lossy_display")
    for rate in lossy.LOSS_RATES:
        path = scratch / f"loss_{int(rate * 100)}.slimcap"
        lossy.run_session(rate, path)
        digests[f"lossy_display/{rate}"] = capture_digest(
            path, list_frames=False
        )
    return normalize(digests)


def compute_all(scratch) -> dict:
    """Every golden, by name."""

    def sub(name):
        path = Path(scratch) / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    out = {}
    for row, kwargs in LINK_ROWS.items():
        out[f"link/{row}"] = link_workload(**kwargs)
        out[f"link_armed/{row}"] = link_workload(
            armed_dir=sub(f"link-{row.replace('+', '_')}"), **kwargs
        )
    for row, loss in (("clean", 0.0), ("lossy", 0.1)):
        out[f"star/{row}"] = star_workload(loss_rate=loss)
        out[f"star_armed/{row}"] = star_workload(
            loss_rate=loss, armed_dir=sub(f"star-{row}")
        )
    out["ingress"] = ingress_workload()
    for name, fn in (
        ("lossy_session", lossy_session_fingerprint),
        ("yardstick", yardstick_fingerprint),
    ):
        out[name] = fn()
        out[f"{name}_armed"] = armed(fn, sub(f"armed-{name}"))
    out["fig8"] = fig8_fingerprint()
    for experiment in ("table4", "lossy_fabric"):
        out[f"runner/{experiment}"] = runner_outputs(
            sub(f"runner-{experiment}"), experiment
        )
    out["examples"] = example_captures(sub("examples"))
    return out
