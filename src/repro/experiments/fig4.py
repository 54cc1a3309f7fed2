"""Figure 4: efficiency of the SLIM protocol display commands.

For each application, compares uncompressed pixel data (3 bytes per
changed pixel) against the bytes the SLIM protocol actually shipped,
broken down by command type.  Headline observations:

* compression factor ~2 for Photoshop (SET-dominated) and >=10 for all
  other applications;
* FILL alone removes 40-75 % of the raw bytes across applications;
* PIM and Frame Maker benefit most from BITMAP and COPY (bicolor text
  and scrolling);
* CSCS is not used by these benchmark applications.

Known miss: Photoshop compresses by about 3.5x here, not the paper's
~2x.  No content mix we found hits the paper's 2x jointly with its
Figure 5 byte CDFs, which come from the same study.  The invariant kept
is that Photoshop compresses far worse than every other application,
because literal SET bytes dominate its traffic.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    experiment,
)
from repro.experiments import userstudy


def command_breakdown(
    n_users: int = userstudy.DEFAULT_N_USERS,
    duration: float = userstudy.DEFAULT_DURATION,
    seed: int = userstudy.DEFAULT_SEED,
) -> Dict[str, Dict[str, object]]:
    """Per-app: raw bytes, SLIM payload bytes by opcode, compression."""
    out: Dict[str, Dict[str, object]] = {}
    for name, (traces, _profiles) in userstudy.all_studies(
        n_users=n_users, duration=duration, seed=seed
    ).items():
        raw = 0
        payload_by: Dict[str, int] = {}
        pixels_by: Dict[str, int] = {}
        for trace in traces:
            raw += sum(u.pixels for u in trace.updates) * 3
            bytes_by, px_by = trace.opcode_totals()
            for op, nbytes in bytes_by.items():
                payload_by[op] = payload_by.get(op, 0) + nbytes
            for op, npx in px_by.items():
                pixels_by[op] = pixels_by.get(op, 0) + npx
        slim_total = sum(payload_by.values())
        out[name] = {
            "raw_bytes": raw,
            "slim_bytes": slim_total,
            "payload_by_opcode": payload_by,
            "pixels_by_opcode": pixels_by,
            "compression": raw / slim_total if slim_total else float("inf"),
        }
    return out


@experiment("fig4", title="Efficiency of SLIM protocol display commands", section="4.2")
def run(config: ExperimentConfig) -> ExperimentResult:
    n_users = config.n_users
    data = command_breakdown(n_users=n_users or userstudy.DEFAULT_N_USERS)
    rows = []
    for name, entry in data.items():
        pixels_by = entry["pixels_by_opcode"]
        total_px = sum(pixels_by.values())
        payload_by = entry["payload_by_opcode"]
        rows.append(
            {
                "application": name,
                "raw MB": round(entry["raw_bytes"] / 1e6, 2),
                "SLIM MB": round(entry["slim_bytes"] / 1e6, 2),
                "compression": round(entry["compression"], 1),
                "FILL px%": round(pixels_by.get("FILL", 0) / total_px * 100, 1),
                "BITMAP px%": round(pixels_by.get("BITMAP", 0) / total_px * 100, 1),
                "COPY px%": round(pixels_by.get("COPY", 0) / total_px * 100, 1),
                "SET px%": round(pixels_by.get("SET", 0) / total_px * 100, 1),
                "SET B%": round(
                    payload_by.get("SET", 0) / entry["slim_bytes"] * 100, 1
                ),
            }
        )
    return ExperimentResult(
        experiment_id="fig4",
        title="Efficiency of SLIM protocol display commands",
        rows=rows,
        notes=[
            "paper: factor ~2 compression for Photoshop, >=10 for the "
            "others; FILL removes 40-75% of raw bytes; CSCS unused here",
        ],
    )

