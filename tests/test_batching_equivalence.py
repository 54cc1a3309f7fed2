"""Seeded equivalence locks for the engine and the fabric.

* the engine's firing order (including same-timestamp ties) is checked
  against an independent stable-sort oracle, not against the engine
  itself, so cohort draining cannot quietly redefine the contract;
* the fabric's one admission path must reproduce the outputs of the
  scalar link implementation it replaced — frozen in
  ``tests/golden/fabric_oracle.json`` (see ``tests/fabric_oracle.py``) —
  exactly: delivery traces, RNG stream consumption, folded link
  statistics and introspection at random mid-run instants, under
  Bernoulli loss, Gilbert–Elliott burst loss, jitter and queue-limit
  drops, bare and with every observer attached;
* fixed-seed experiment tables, ``.slimcap`` bytes, stage partitions and
  registry snapshots stay identical to what that implementation
  produced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.engine import Simulator

from tests import fabric_oracle as oracle


@pytest.fixture(scope="module")
def golden():
    return oracle.load_golden()


# ---------------------------------------------------------------------------
# Engine ordering vs an independent oracle
# ---------------------------------------------------------------------------


class _OracleEngine:
    """A deliberately naive reference engine: stable sort on (when, seq).

    Ten lines of obviously-correct semantics the real engine must match
    event for event, whatever cohort tricks it plays internally.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._events = []
        self._seq = 0

    def schedule(self, delay, callback):
        self._events.append((self.now + delay, self._seq, callback))
        self._seq += 1

    def run(self):
        while self._events:
            self._events.sort(key=lambda e: (e[0], e[1]))
            when, _, callback = self._events.pop(0)
            self.now = when
            callback()


def _drive(engine, order, rng_seed: int) -> None:
    """A deterministic cascading workload with many same-time ties."""
    rng = np.random.default_rng(rng_seed)
    delays = rng.integers(0, 5, size=200) * 0.001  # coarse grid => ties
    fanout = rng.integers(0, 3, size=200)

    def fire(tag: int):
        def cb():
            order.append((engine.now, tag))
            for child in range(int(fanout[tag % 200])):
                nxt = (tag * 7 + child * 13 + 1) % 200
                if tag < 600:  # bounded cascade
                    engine.schedule(float(delays[nxt]), fire(tag + 200))

        return cb

    for tag in range(40):
        engine.schedule(float(delays[tag]), fire(tag))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_engine_order_matches_stable_sort_oracle(seed):
    real_order, oracle_order = [], []
    sim = Simulator()
    _drive(sim, real_order, seed)
    sim.run()
    oracle = _OracleEngine()
    _drive(oracle, oracle_order, seed)
    oracle.run()
    assert real_order == oracle_order
    assert len(real_order) > 40  # the cascade actually cascaded


def test_stop_mid_cohort_leaves_rest_queued():
    """stop() between same-instant events, in the loop that drains them
    as one cohort: the rest stay queued and fire on the next run()."""
    sim = Simulator()
    order = []

    def mk(t):
        return lambda: order.append(t)

    def stopper():
        order.append("stop")
        sim.stop()

    for callback in (mk("a"), stopper, mk("b"), mk("c")):
        sim.schedule(0.01, callback)
    sim.run(max_events=100)
    assert order == ["a", "stop"]
    assert (sim.events_processed, sim.pending) == (2, 2)
    sim.run(max_events=100)
    assert order == ["a", "stop", "b", "c"]


def test_monitor_cadence_with_batches():
    """Monitor fires on every crossing of the `every` boundary even when
    cohorts bump the counter by more than one."""
    sim = Simulator()
    ticks = []

    def monitor(s):
        ticks.append(s.events_processed)

    monitor.every = 10
    sim.add_monitor(monitor)
    for k in range(5):
        for _ in range(4):  # 20 events, four to an instant
            sim.schedule(0.0001 * (k + 1), lambda: None)
    for i in range(15):
        sim.schedule(0.002 + i * 0.001, lambda: None)  # 15 singletons
    sim.run(max_events=100)
    assert sim.events_processed == 35
    # Counter path: 4, 8, 12, 16, 20, then 21..35 — one check per
    # cohort, so the boundary crossings fire at 12, 20, and 30.
    assert ticks == [12, 20, 30]


# ---------------------------------------------------------------------------
# The admission path vs the frozen scalar oracle
# ---------------------------------------------------------------------------

_LINK_IDS = ["clean", "bernoulli", "jitter", "loss+jitter", "taildrop", "loss+drop"]


def _assert_matches(actual, expected):
    """``==`` with a readable failure: name the first field that moved."""
    if actual == expected:
        return
    for key in expected:
        assert actual.get(key) == expected[key], f"field {key!r} diverged"
    assert actual == expected


@pytest.mark.parametrize("row", _LINK_IDS)
def test_fast_transit_matches_scalar(row, golden):
    _assert_matches(
        oracle.link_workload(**oracle.LINK_ROWS[row]), golden[f"link/{row}"]
    )


def test_fast_transit_matches_scalar_gilbert_elliott(golden):
    _assert_matches(
        oracle.link_workload(**oracle.LINK_ROWS["gilbert_elliott"]),
        golden["link/gilbert_elliott"],
    )


@pytest.mark.parametrize("row", ["clean", "bernoulli", "loss+jitter"])
def test_send_burst_matches_scalar_sends(row, golden):
    """send_burst consumes the RNG stream in per-packet order: a bursty
    workload produces the same trace whether trains go through
    send_burst or one send() per packet."""
    _assert_matches(
        oracle.link_workload(use_burst=True, **oracle.LINK_ROWS[row]),
        golden[f"link/{row}"],
    )


@pytest.mark.parametrize(
    "loss_rate", [0.0, 0.1], ids=["clean", "lossy"]
)
def test_switched_star_fast_matches_scalar(loss_rate, golden):
    row = "lossy" if loss_rate else "clean"
    _assert_matches(
        oracle.star_workload(loss_rate=loss_rate), golden[f"star/{row}"]
    )


def test_network_send_burst_matches_scalar_sends(golden):
    _assert_matches(oracle.star_workload(use_burst=True), golden["star/clean"])


def test_switch_ingress_matches_scalar(golden):
    """A train handed to ``ingress`` one packet at a time, two output
    ports fed from one instant: the tie order of the deliveries."""
    _assert_matches(oracle.ingress_workload(), golden["ingress"])


# ---------------------------------------------------------------------------
# ... with every observer attached
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("row", _LINK_IDS + ["gilbert_elliott"])
def test_armed_link_matches_scalar(row, golden, tmp_path):
    """Tracer + capture tap + enabled registry on one link: per-packet
    event order and timestamps, ``.slimcap`` bytes and the registry
    snapshot are the scalar path's — and so is everything the bare run
    checks, i.e. observing changed nothing.  Hop records ride the
    packet, so the tracer rows of packets that never arrive are dropped
    from the golden side."""
    _assert_matches(
        oracle.link_workload(armed_dir=tmp_path, **oracle.LINK_ROWS[row]),
        oracle.arrived_only(golden[f"link_armed/{row}"]),
    )


@pytest.mark.parametrize("row", ["clean", "lossy"])
def test_armed_star_matches_scalar(row, golden, tmp_path):
    _assert_matches(
        oracle.star_workload(
            loss_rate=0.1 if row == "lossy" else 0.0, armed_dir=tmp_path
        ),
        oracle.arrived_only(golden[f"star_armed/{row}"]),
    )


# ---------------------------------------------------------------------------
# Fixed-seed experiment tables stay byte-identical
# ---------------------------------------------------------------------------


def test_lossy_session_table_byte_identical(golden):
    _assert_matches(oracle.lossy_session_fingerprint(), golden["lossy_session"])


def test_lossy_yardstick_table_byte_identical(golden):
    _assert_matches(oracle.yardstick_fingerprint(), golden["yardstick"])


def test_fig8_table_byte_identical(golden):
    _assert_matches(oracle.fig8_fingerprint(), golden["fig8"])


@pytest.mark.parametrize(
    "name, fingerprint",
    [
        ("lossy_session", oracle.lossy_session_fingerprint),
        ("yardstick", oracle.yardstick_fingerprint),
    ],
    ids=["lossy_session", "yardstick"],
)
def test_armed_experiment_matches_scalar(name, fingerprint, golden, tmp_path):
    """A real TraceCollector, a file capture and an enabled registry:
    tables, capture bytes, ``completed_messages()`` stage dicts and the
    registry snapshot all equal the scalar path's."""
    _assert_matches(
        oracle.armed(fingerprint, tmp_path), golden[f"{name}_armed"]
    )


@pytest.mark.parametrize("experiment", ["table4", "lossy_fabric"])
def test_runner_outputs_match_scalar(experiment, golden, tmp_path):
    """``python -m repro.experiments`` with default flags plus every
    file output: tables, ``--metrics-json``, ``--capture`` bytes, and
    the ``--timeseries`` run totals and last window edge."""
    _assert_matches(
        oracle.runner_outputs(tmp_path, experiment),
        golden[f"runner/{experiment}"],
    )


def test_example_captures_match_scalar(golden, tmp_path):
    _assert_matches(oracle.example_captures(tmp_path), golden["examples"])
