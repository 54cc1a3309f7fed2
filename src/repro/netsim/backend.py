"""``LocalBackend``: the name the benchmark harness imports the engine by."""

from repro.netsim.engine import Simulator

__all__ = ["LocalBackend"]

#: The single-process discrete-event engine, under its older name.
LocalBackend = Simulator
