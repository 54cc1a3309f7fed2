"""Scale knobs for the tier-2 benchmark suite.

The benchmarks default to a reduced size so a full pass completes in
minutes; set ``REPRO_FULL_SCALE=1`` for the paper's 50-user, ten-minute
configuration.
"""

import os

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "") not in ("", "0")
N_USERS = 50 if FULL_SCALE else 8
DURATION = 600.0 if FULL_SCALE else 300.0
SIM_SECONDS = 120.0 if FULL_SCALE else 45.0
