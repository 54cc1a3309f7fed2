"""Shared unit constants and helpers.

All simulated time in this package is expressed as ``float`` seconds, all
sizes as integer bytes, and all rates as bits per second unless a name says
otherwise.  These constants exist so that experiment code reads like the
paper ("a 100Mbps switched IF", "550us response time") instead of raw
powers of ten.
"""

from __future__ import annotations

# --- time ---------------------------------------------------------------
NANOSECOND = 1e-9
MICROSECOND = 1e-6
MILLISECOND = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0

# --- size (bytes) -------------------------------------------------------
KB = 1000
MB = 1000 * 1000
KIB = 1024
MIB = 1024 * 1024

# --- rates (bits per second) --------------------------------------------
KBPS = 1e3
MBPS = 1e6
GBPS = 1e9

#: Link speeds used throughout the paper's experiments.
ETHERNET_10 = 10 * MBPS
ETHERNET_100 = 100 * MBPS
ETHERNET_1G = 1 * GBPS

#: The paper's human-perception latency window (Shneiderman):  delays in
#: the 50-150ms range begin to be noticeable.
PERCEPTION_LOW = 50 * MILLISECOND
PERCEPTION_HIGH = 150 * MILLISECOND

#: Display geometry used in the user studies (Section 5.2).
DISPLAY_WIDTH = 1280
DISPLAY_HEIGHT = 1024
DISPLAY_PIXELS = DISPLAY_WIDTH * DISPLAY_HEIGHT

#: Bytes occupied by one raw 24-bit pixel on the wire (packed form).
BYTES_PER_PIXEL_WIRE = 3
#: Bytes occupied by one pixel in a 32-bit framebuffer word.
BYTES_PER_PIXEL_FB = 4


def bits(nbytes: float) -> float:
    """Convert a byte count to bits."""
    return nbytes * 8


def transmission_delay(nbytes: float, rate_bps: float) -> float:
    """Serialization delay, in seconds, of ``nbytes`` over ``rate_bps``."""
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return bits(nbytes) / rate_bps
