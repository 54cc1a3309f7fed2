"""What a reader of the observers sees is frozen, byte for byte.

The hot path only records — hop records on the packet, stamps on the
trace, datagrams in the ring — and every derived output is computed
when read.  These compare those reads against
``tests/golden/observer_outputs.json`` (see ``tests/observer_oracle.py``),
written by the last commit that derived all of them eagerly.
"""

from __future__ import annotations

import pytest

from tests import observer_oracle as oracle


@pytest.fixture(scope="module")
def golden():
    return oracle.load_golden()


@pytest.mark.parametrize(
    "row, loss_rate, updates, seed",
    [("clean", 0.0, 8, 3), ("lossy", 0.08, 10, 7)],
    ids=["clean", "lossy"],
)
def test_trace_reads_are_byte_identical(row, loss_rate, updates, seed, golden):
    """``to_dict()`` of every message, ``breakdown()`` of every update
    and the ``stage_percentiles`` table."""
    actual = oracle.traced_session(loss_rate, updates=updates, seed=seed)
    expected = golden[f"session/{row}"]
    for index, (ours, theirs) in enumerate(
        zip(actual["messages"], expected["messages"])
    ):
        assert ours == theirs, f"message {index} reads differently"
    assert actual == expected


def test_runner_capture_and_trace_events_are_byte_identical(golden, tmp_path):
    assert oracle.runner_files(tmp_path) == golden["runner/lossy_fabric"]


def test_frozen_bundle_is_byte_identical(golden, tmp_path):
    """``ring.slimcap`` and ``traces.jsonl`` of a bundle frozen by the
    runner at a seeded instant, and the manifest's ring counts."""
    assert oracle.frozen_bundle(tmp_path) == golden["bundle/lossy_fabric"]
