"""Shared fixtures for the test suite."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from repro.framebuffer import FrameBuffer, Painter
from repro.runcontext import current_run

# The longer budget CI gives the generated properties that leave
# ``max_examples`` to the profile: ``pytest --hypothesis-profile ci``.
settings.register_profile("ci", max_examples=500, deadline=None)


@pytest.fixture(autouse=True)
def no_run_left_installed():
    """The run context is the only way an observer reaches a component,
    so a leaked one (a ``use_run`` never exited, a field assigned in
    place outside a worker process) would arm every later test: fail
    the test that did it, by name."""
    installed = current_run()
    fields = replace(installed)
    yield
    assert current_run() is installed, "a use_run(...) was left installed"
    assert installed == fields, "the installed run context was assigned to"


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
