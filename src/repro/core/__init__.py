"""The SLIM protocol — the paper's primary contribution.

This subpackage implements the complete protocol stack described in
Section 2 of the paper:

* :mod:`repro.core.commands` — the five display commands of Table 1 plus
  the input/audio/status message types.
* :mod:`repro.core.wire` — a binary wire format with sequencing and
  MTU fragmentation (the Sun Ray 1 sends SLIM over UDP/IP).
* :mod:`repro.core.encoder` — the server-side translation from rendering
  operations / pixel damage into command streams.
* :mod:`repro.core.decoder` — the console-side application of commands to
  a framebuffer.
* :mod:`repro.core.costs` — the Table 5 console processing-cost model.
* :mod:`repro.core.bandwidth` — the console bandwidth allocator
  (Section 7).
* :mod:`repro.core.video` — the SLIM video library (Section 2.2).
"""

from repro.core.commands import (
    BitmapCommand,
    Command,
    CopyCommand,
    CscsCommand,
    DisplayCommand,
    FillCommand,
    KeyEvent,
    MouseEvent,
    AudioData,
    StatusKind,
    StatusMessage,
    SetCommand,
)
from repro.core.wire import WireCodec, Datagram, MTU_PAYLOAD
from repro.core.encoder import SlimEncoder, EncoderConfig
from repro.core.decoder import SlimDecoder
from repro.core.costs import ConsoleCostModel, CostEntry, SUN_RAY_1_COSTS
from repro.core.bandwidth import BandwidthAllocator

__all__ = [
    "Command",
    "DisplayCommand",
    "SetCommand",
    "BitmapCommand",
    "FillCommand",
    "CopyCommand",
    "CscsCommand",
    "KeyEvent",
    "MouseEvent",
    "AudioData",
    "StatusKind",
    "StatusMessage",
    "WireCodec",
    "Datagram",
    "MTU_PAYLOAD",
    "SlimEncoder",
    "EncoderConfig",
    "SlimDecoder",
    "ConsoleCostModel",
    "CostEntry",
    "SUN_RAY_1_COSTS",
    "BandwidthAllocator",
]
