"""Write a golden file from the code in this checkout.

``fabric_oracle.json`` was produced by this script (and
``tests/fabric_oracle.py``) copied onto b855e66, the last commit that
still had the scalar link implementation, with that path forced:

    SLIM_SCALAR_FABRIC=1 PYTHONPATH=src python tests/golden/regen.py fabric

``observer_outputs.json`` was produced the same way (with
``tests/observer_oracle.py``) on 7cd9ba1, the last commit whose
observers derived stage partitions and serialised ring frames eagerly:

    PYTHONPATH=src python tests/golden/regen.py observers

``runner_all_flags.json`` was produced the same way (with
``tests/runner_oracle.py``) on b2a5892, the last commit that armed its
observers through five ambient seams and a chain of wrapped monitors:

    PYTHONPATH=src python tests/golden/regen.py runner

``pixel_pipeline.json`` was produced the same way (with
``tests/pixel_oracle.py``) on 88aa103, the last commit that sampled,
seeded, clipped and priced every update through numpy scalars:

    PYTHONPATH=src python tests/golden/regen.py pixels

``fig8_default.txt`` and ``fig11_short.txt`` are not written by this
script: each is the table its experiment printed with default flags at
the parent of the PR that added it (88aa103 and 5c5945e), through the
pipe CI diffs it with (``.github/workflows/ci.yml``, the timing line
stripped):

    python -m repro.experiments fig8 | grep -v '^  ([0-9.]*s)$'
    python -m repro.experiments fig11 --duration 6 | grep -v '^  ([0-9.]*s)$'

Running any of them on a later commit re-blesses the goldens from the one
remaining path; do that only for a deliberate, reviewed change of
simulated behaviour.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent))

from tests import (  # noqa: E402
    fabric_oracle,
    observer_oracle,
    pixel_oracle,
    runner_oracle,
)

ORACLES = {
    "fabric": fabric_oracle,
    "observers": observer_oracle,
    "runner": runner_oracle,
    "pixels": pixel_oracle,
}


def main(argv) -> None:
    if len(argv) != 1 or argv[0] not in ORACLES:
        raise SystemExit(f"usage: regen.py {{{'|'.join(ORACLES)}}}")
    oracle = ORACLES[argv[0]]
    with tempfile.TemporaryDirectory() as scratch:
        goldens = oracle.compute_all(scratch)
    # One golden per line: compact, and a changed golden is one diff line.
    lines = [
        f"{json.dumps(name)}: {json.dumps(goldens[name], sort_keys=True)}"
        for name in sorted(goldens)
    ]
    oracle.GOLDEN.write_text(
        "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8"
    )
    print(f"{len(goldens)} goldens written to {oracle.GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:])
