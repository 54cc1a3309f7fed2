"""Draws, pixels and floats before the wire are frozen, byte for byte.

Compares ``tests/pixel_oracle.py`` on this checkout against
``tests/golden/pixel_pipeline.json``, written on the last commit whose
update sampling, synthesis, framebuffer primitives and cost model were
the numpy-scalar formulations.  A change to any of them that moves one
draw, one pixel or the last bit of one service time fails here by name.
"""

from __future__ import annotations

from tests import pixel_oracle as oracle


def test_pixel_pipeline_is_byte_identical():
    actual = oracle.compute_all()
    expected = oracle.load_golden()
    assert sorted(actual) == sorted(expected)
    moved = [name for name in sorted(expected) if actual[name] != expected[name]]
    assert not moved, f"moved against the golden: {moved}"
