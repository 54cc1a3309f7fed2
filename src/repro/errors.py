"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers embedding the library can catch one type.  Subsystems raise the
narrower types below; nothing in this package raises bare ``Exception``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ProtocolError(ReproError):
    """Malformed or inconsistent SLIM protocol data."""


class WireFormatError(ProtocolError):
    """Bytes on the wire could not be parsed as a SLIM message."""


class GeometryError(ReproError):
    """A rectangle or region argument is out of bounds or degenerate."""


class SimulationError(ReproError):
    """The discrete-event simulator was used inconsistently."""


class SchedulerError(SimulationError):
    """Invalid configuration or state in the CPU scheduler simulation."""


class BandwidthError(ReproError):
    """Invalid bandwidth request or allocation state."""


class WorkloadError(ReproError):
    """A workload model was configured with invalid parameters."""
