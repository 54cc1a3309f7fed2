"""Write ``fabric_oracle.json`` from the fabric in this checkout.

The committed file was produced by this script (and
``tests/fabric_oracle.py``) copied onto b855e66, the last commit that
still had the scalar link implementation, with that path forced:

    SLIM_SCALAR_FABRIC=1 PYTHONPATH=src python tests/golden/regen.py

Running it on a later commit re-blesses the goldens from the one
remaining path; do that only for a deliberate, reviewed change of
simulated behaviour.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent))

from tests import fabric_oracle  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        goldens = fabric_oracle.compute_all(scratch)
    # One golden per line: compact, and a changed golden is one diff line.
    lines = [
        f"{json.dumps(name)}: {json.dumps(goldens[name], sort_keys=True)}"
        for name in sorted(goldens)
    ]
    fabric_oracle.GOLDEN.write_text(
        "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8"
    )
    print(f"{len(goldens)} goldens written to {fabric_oracle.GOLDEN}")


if __name__ == "__main__":
    main()
