"""The benchmark's seams resolve.

``bench/layers.py`` names, by dotted path, the entry points the traced
benchmark child wraps; a path that no longer resolves makes that child
exit 3 — and nothing else, since no other run imports the table.
``bench/`` is frozen outside benchmark PRs, so a rename under ``src/``
has to fail here, by name, in tier-1.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    """A benchmark module by path, read only (``bench/`` is no package)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_LAYERS = _load("layers")
_TRACING = _load("tracing")


def _resolve(path: str):
    """What the traced child would wrap at ``path``, found the way it
    finds it (``tracing.resolve`` raises ``WrapTargetGone`` by name)."""
    _owner, _attr, target = _TRACING.resolve(path)
    return target


@pytest.mark.parametrize(
    "path",
    [path for _layer, path in _LAYERS.TARGETS + _LAYERS.FACTORY_TARGETS],
)
def test_every_wrapped_path_resolves_to_a_callable(path):
    assert callable(_resolve(path)), path


def test_the_factory_seam_returns_the_event_path_callback():
    """``_burst_sender(burst_bytes)`` returns the callable that sends
    the burst: the traced child times that callable, not the factory."""
    from repro.loadgen.generator import NetworkLoadGenerator
    from repro.netsim import Endpoint, Network, Simulator
    from repro.workloads.session import ResourceProfile

    sim = Simulator()
    network = Network(sim, default_rate_bps=100e6)
    network.attach(Endpoint("server"))
    sink = network.attach(Endpoint("sink"))
    profile = ResourceProfile(
        application="App", user="u", interval=1.0, cpu=[0.1],
        net_bytes=[4000], memory_mb=1.0,
    )
    generator = NetworkLoadGenerator(sim, network, "server", "sink", profile)
    (path,) = [path for _layer, path in _LAYERS.FACTORY_TARGETS]
    assert _resolve(path) is NetworkLoadGenerator._burst_sender
    send = generator._burst_sender(3100)
    assert sink.packets_received == 0
    send()
    sim.run()
    assert (sink.packets_received, sink.bytes_received) == (3, 3100)
