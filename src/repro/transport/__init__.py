"""The reliable display channel: SLIM's loss recovery as a subsystem.

The SLIM protocol runs over unreliable datagrams; the paper's
"application-specific error recovery scheme" (Section 2.2) is
implemented here as a first-class transport:

* :mod:`repro.transport.server` — sequencing, the bounded seq->region
  :class:`~repro.transport.damage.DamageMap`, stateless re-encode of
  damaged regions, full-screen refresh fallback, periodic status SYNC;
* :mod:`repro.transport.console` — completion tracking, reorder-tolerant
  gap suspicion, in-band NACK packets over the reverse path, NACK retry
  on status exchange;
* :mod:`repro.transport.channel` — :class:`DisplayChannel`, the
  end-to-end wiring used by tests, examples, and the lossy-fabric
  experiment.
"""

from repro.transport.channel import DisplayChannel
from repro.transport.console import (
    ConsoleChannel,
    ConsoleChannelStats,
    PendingRecovery,
)
from repro.transport.damage import DamageMap
from repro.transport.server import (
    DEFAULT_STATUS_INTERVAL,
    RECOVERY_TILE,
    ServerChannel,
    ServerChannelStats,
)

__all__ = [
    "DisplayChannel",
    "ConsoleChannel",
    "ConsoleChannelStats",
    "PendingRecovery",
    "DamageMap",
    "ServerChannel",
    "ServerChannelStats",
    "DEFAULT_STATUS_INTERVAL",
    "RECOVERY_TILE",
]
