"""The simulator's exact work counters, pinned.

How many engine events a packet, an update or a recovery costs is a
design variable, so a change that moves one of these rows is either a
regression or a claim: edit the row in the PR that makes it and say why
(RESULTS.md keeps the history).  On the three rigs whose traffic ends
at hook-less endpoints, what is left is the senders' own ticks (plus
the yardstick's probes): the hop into a switch port nobody hears goes on
that port's record and the arrival is a fold credit, so such a packet
costs no event.  With an event for the hop they read 8008 / 2250 / 4616;
with one for the arrival as well, 12008 and 3798.  ``yardstick_load``'s
generators offer their bursts to the fabric, which keeps those bound for
the unheard sink on record too: its 378 events are the probes and the
generators' interval ticks, and the 324 ``bursts`` it counts are the
events it had at the parent of that change (702).  ``inbound_knee`` is
the other side: its server *hears*, behind a backlogged port, so every
delivery is an event (7083) and a hop into the port is one only when no
delivery already due there admits it in time — 16281 with an event per
hop, at the parent of the change that put such hops on record.
"""

import pytest

from repro.obs import FlightRecorder
from repro.runcontext import use_run

from tests import work_rigs

WORK_COUNTERS = {
    "switch_forward": {"sim_events": 4008, "packets": 4000},
    "yardstick_load": {
        "sim_events": 378, "packets": 1642, "bursts": 324, "rtt_samples": 47,
    },
    "switch_burst": {"sim_events": 520, "packets": 4096},
    "inbound_knee": {
        "sim_events": 9556, "packets": 8826, "drops": 1743, "deliveries": 7083,
    },
    "e2e_session": {
        "sim_events": 134, "updates": 10, "commands": 14, "bytes": 29238,
    },
    "channel_lossy": {"sim_events": 239, "nacks": 19, "recoveries": 7},
    "wan_matrix": {"sim_events": 5108, "static_drops": 1525},
}


@pytest.mark.parametrize("rig", WORK_COUNTERS)
def test_work_counters_are_exact_and_arming_the_recorder_moves_none(rig):
    run = getattr(work_rigs, rig)
    bare = run()
    expected = WORK_COUNTERS[rig]
    assert {name: bare[name] for name in expected} == expected, rig
    with use_run(recorder=FlightRecorder(out_dir=None, label=rig)):
        armed = run()
    assert armed == bare, f"{rig}: the armed flight recorder changed the work"
