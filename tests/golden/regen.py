"""Write a golden file from the code in this checkout.

``fabric_oracle.json`` was produced by this script (and
``tests/fabric_oracle.py``) copied onto b855e66, the last commit that
still had the scalar link implementation, with that path forced:

    SLIM_SCALAR_FABRIC=1 PYTHONPATH=src python tests/golden/regen.py fabric

``observer_outputs.json`` was produced the same way (with
``tests/observer_oracle.py``) on 7cd9ba1, the last commit whose
observers derived stage partitions and serialised ring frames eagerly:

    PYTHONPATH=src python tests/golden/regen.py observers

``runner_all_flags.json`` was produced the same way (with
``tests/runner_oracle.py``) on b2a5892, the last commit that armed its
observers through five ambient seams and a chain of wrapped monitors:

    PYTHONPATH=src python tests/golden/regen.py runner

``pixel_pipeline.json`` was produced the same way (with
``tests/pixel_oracle.py``) on 88aa103, the last commit that sampled,
seeded, clipped and priced every update through numpy scalars:

    PYTHONPATH=src python tests/golden/regen.py pixels

``fig11_short.txt`` is not written by this script: it is the table
``fig11`` printed at 5c5945e, through the pipe CI diffs it with
(``.github/workflows/ci.yml``, the timing line stripped):

    python -m repro.experiments fig11 --duration 6 | grep -v '^  ([0-9.]*s)$'

``fig8_default.txt``, default-flag ``fig8`` pinned the same way on
88aa103, is retired: CI now diffs the whole default-flag ``--markdown``
report against RESULTS.md, whose ``fig8`` section holds every cell and
note it pinned.

Six entries are younger than their files.  PR 22 (on 7ed2e30) gave the
time-series collection the one registry baseline and the flight recorder
the SLO engine's grader, and made the yardstick observe a lost round;
the entries that had pinned the misattributed series were re-blessed,
alone, with the ``ENTRY`` form below — no simulated field (tables,
capture, trace events, every other instrument) moved in any of them:

    PYTHONPATH=src python tests/golden/regen.py fabric \
        runner/table4 runner/lossy_fabric yardstick_armed
    PYTHONPATH=src python tests/golden/regen.py runner all_flags/lossy_fabric

* ``runner/table4``: ``timeseries_totals`` (each run's windows held both
  runs' counts: ``console.decode.count{opcode=BITMAP}`` 2 → 1).
* ``runner/lossy_fabric``: ``timeseries_totals`` (every run summed to
  the process total) and the ``net.yardstick.rtt_seconds`` instrument in
  ``metrics`` (1294 → 1363 rounds: 69 lost ones now observed).
* ``yardstick_armed``: the same instrument in ``registry`` (21 → 22).
* ``all_flags/lossy_fabric``: ``timeseries``, ``slo``, ``stdout`` (SLO
  report, recorder triggers, the yardstick histogram), ``metrics`` (that
  histogram) and the three bundles' members; ``capture`` and
  ``trace_events`` did not move.

Two more moved with PR 23 (on 3b74ef5), which has the engine call the
time-series sampler at the first event past a window's edge instead of
only every 512 events, so windows close on their own spans:

    PYTHONPATH=src python tests/golden/regen.py runner \
        all_flags/lossy_fabric sharded/fleet_scale

* ``all_flags/lossy_fabric``: ``timeseries``, ``slo``, ``stdout`` (the
  SLO report, the recorder's triggers, the dashboard block) and the
  three bundles' members (``manifest.json``, ``slo.jsonl``,
  ``timeseries.jsonl``, ``traces.jsonl``; ``ring.slimcap`` of the first
  two, frozen at other instants); ``metrics``, ``capture``,
  ``trace_events`` and the third bundle's ``ring.slimcap`` did not move.
* ``sharded/fleet_scale``: ``timeseries`` (37 → 146 records: 119 merged
  one-minute windows where there were 10) and the two ``stdout`` lines
  that count them; the table and the bundle list did not move.

Three more moved when ``fleet_scale`` left the conservative-lookahead
backend for ``sweep`` and cross-shard trace stitching was deleted (on
1b12af2).  Each value was checked against one recomputed on 1b12af2
with only that key popped, or that label or line replaced:

    PYTHONPATH=src python tests/golden/regen.py runner \
        all_flags/lossy_fabric sharded/fleet_scale
    PYTHONPATH=src python tests/golden/regen.py observers bundle/lossy_fabric

* ``all_flags/lossy_fabric``: the three bundles' ``manifest.json``
  (``counts.stitched`` is gone); nothing else moved.
* ``bundle/lossy_fabric``: ``counts`` without its ``stitched: 0``.
* ``sharded/fleet_scale``: the ``stdout`` note line (it counts slices,
  not shard processes, and prints no worker count) and ``timeseries``
  (the merged run is labelled ``run-1``, not ``run-2``: no control-plane
  simulator takes ``run-1`` first); the table, the 146 records and the
  bundle list did not move.

One more moved when ``fleet_scale``'s title stopped calling its
workgroup subtrees sharded (on f92d5ac).  The value was checked against
one recomputed on f92d5ac with only the two title strings replaced:

    PYTHONPATH=src python tests/golden/regen.py runner sharded/fleet_scale

* ``sharded/fleet_scale``: ``stdout`` (the ``== fleet_scale: ... ==``
  title line); ``timeseries`` and the bundle list did not move.

Twelve more moved when ``PaintOp`` lost its ``bits_per_pixel`` field
(on 8e0bf95), which every op's ``repr`` printed as
``, bits_per_pixel=16``.  Each new value equals the one recomputed on
8e0bf95 with that text stripped from every op ``repr``; no draw moved:

    PYTHONPATH=src python tests/golden/regen.py pixels \
        ops/FrameMaker/12345 ops/FrameMaker/1999 ops/FrameMaker/7 \
        ops/Netscape/12345 ops/Netscape/1999 ops/Netscape/7 \
        ops/PIM/12345 ops/PIM/1999 ops/PIM/7 \
        ops/Photoshop/12345 ops/Photoshop/1999 ops/Photoshop/7

* ``ops/*``: the op-stream digest; ``synthesis``, ``study/*`` and
  ``session/*`` did not move.

One more moved when the ``tier_residency`` SLO left the default set
with the tier ladder it graded (on b8fd62a).  The value equals the one
recomputed on b8fd62a with only ``TIER_RESIDENCY`` dropped from
``INTERACTIVITY_SLOS``:

    PYTHONPATH=src python tests/golden/regen.py runner all_flags/lossy_fabric

* ``all_flags/lossy_fabric``: ``slo`` (its header's spec list) and the
  three bundles' ``manifest.json`` (``specs``) and ``slo.jsonl`` (the
  same header); ``stdout``, ``metrics``, ``timeseries``, ``capture``,
  ``trace_events`` and every other bundle member did not move.

One more moved when the sharing grids began mapping their cells through
``sweep``, which now forks only a run that observes nothing but the
flight recorder (on 110bf6c).  ``--timeseries`` is an observer a fork
cannot ship back, so the four slices run in place.  The new value
equals the one recomputed on 110bf6c; on the parent the same command
printed the same table:

    PYTHONPATH=src python tests/golden/regen.py runner sharded/fleet_scale

* ``sharded/fleet_scale``: ``timeseries`` (146 → 506 records: each
  slice's simulator is sampled into a run of its own, ``run-1`` …
  ``run-4`` beside ``fleet/windows``, where one merged ``run-1`` was)
  and the ``stdout`` line that counts them; the table, the notes and
  the bundle list did not move.

One more moved when each simulator began tracing in a keyspace of its
own (on 6b17dd5).  Cells that ran in turn under one tracer had
overwritten each other's traces in flight, keyed by ``(src, dst,
seq)`` alone, and absorbing a forked cell kept only one trace per key:

    PYTHONPATH=src python tests/golden/regen.py observers bundle/lossy_fabric

* ``bundle/lossy_fabric``: ``traces_sha256`` and ``counts.traces``
  (656 → 670: the bundle holds all 158 open partials the five loss
  cells leave, 0 + 1 + 3 + 10 + 144, where it held 144); ``ring_sha256``
  and every other count did not move.

One more moved with it: a time-series window cites the traces in
flight in its own simulator's keyspace, where it cited the first eight
open ids of every simulator of the run (``run-8``'s yardstick spikes
cited eight display traces ``run-7`` left open).  Outside the
``traces [...]`` of the SLO event lines, the simulated stdout equals
the parent's:

    PYTHONPATH=src python tests/golden/regen.py runner all_flags/lossy_fabric

* ``all_flags/lossy_fabric``: ``stdout`` (the SLO events' trace ids),
  ``slo``, ``timeseries`` and the three bundles' ``manifest.json``,
  ``slo.jsonl`` and ``timeseries.jsonl``, and ``traces.jsonl`` of the
  second and third (their partials); ``capture``, ``metrics``,
  ``trace_events`` and every ``ring.slimcap`` did not move.

Three more moved when the last serialised "shard" names went, each
recomputed on a75fac9 with only those names dropped or renamed: the
manifest's always-empty
``counts.shards`` list, which no reader used, and the golden key
``sharded/fleet_scale``, renamed ``sampled/fleet_scale`` in place
(with ``SAMPLED_FLAGS`` and ``sampled()`` in ``tests/runner_oracle.py``):

    PYTHONPATH=src python tests/golden/regen.py runner \
        all_flags/lossy_fabric sampled/fleet_scale
    PYTHONPATH=src python tests/golden/regen.py observers bundle/lossy_fabric

* ``all_flags/lossy_fabric``: the three bundles' ``manifest.json``;
  nothing else moved.
* ``bundle/lossy_fabric``: ``counts`` without its ``shards: []``.
* ``sampled/fleet_scale``: the value of ``sharded/fleet_scale``,
  recomputed equal under its new name.

Running an oracle with no ``ENTRY`` on a later commit re-blesses the whole
file from the one remaining path; do that only for a deliberate, reviewed
change of simulated behaviour.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent))

from tests import (  # noqa: E402
    fabric_oracle,
    observer_oracle,
    pixel_oracle,
    runner_oracle,
)

ORACLES = {
    "fabric": fabric_oracle,
    "observers": observer_oracle,
    "runner": runner_oracle,
    "pixels": pixel_oracle,
}


def main(argv) -> None:
    if not argv or argv[0] not in ORACLES:
        raise SystemExit(f"usage: regen.py {{{'|'.join(ORACLES)}}} [ENTRY...]")
    oracle = ORACLES[argv[0]]
    with tempfile.TemporaryDirectory() as scratch:
        goldens = oracle.compute_all(scratch)
    entries = argv[1:]
    if entries:
        # Only the named entries are re-blessed; the rest stay as read.
        fresh = goldens
        goldens = oracle.load_golden()
        goldens.update({name: fresh[name] for name in entries})
    # One golden per line: compact, and a changed golden is one diff line.
    lines = [
        f"{json.dumps(name)}: {json.dumps(goldens[name], sort_keys=True)}"
        for name in sorted(goldens)
    ]
    oracle.GOLDEN.write_text(
        "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8"
    )
    print(f"{len(entries) or len(goldens)} goldens written to {oracle.GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:])
