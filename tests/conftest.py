"""Shared fixtures for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from repro.framebuffer import FrameBuffer, Painter

# The longer budget CI gives the generated properties that leave
# ``max_examples`` to the profile: ``pytest --hypothesis-profile ci``.
settings.register_profile("ci", max_examples=500, deadline=None)


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def fb():
    """A small framebuffer most protocol tests share."""
    return FrameBuffer(128, 96)


@pytest.fixture
def painter(fb):
    return Painter(fb)


@pytest.fixture
def big_fb():
    """A display-sized framebuffer for geometry-heavy tests."""
    return FrameBuffer(1280, 1024)
