"""Shared configuration for the benchmark harness.

Every paper table/figure has one benchmark that regenerates it.  Each
bench stores the reproduced rows in ``benchmark.extra_info`` so the
pytest-benchmark output doubles as the reproduction record
(EXPERIMENTS.md is written from these numbers).  Scale knobs live in
``benchmarks/scale.py``.
"""

import pytest

from scale import DURATION, N_USERS


@pytest.fixture(scope="session")
def study_config():
    return {"n_users": N_USERS, "duration": DURATION}
