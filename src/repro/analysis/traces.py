"""Timestamped protocol traces and their persistence.

The instrumented SLIM driver records one :class:`InputRecord` per
keystroke/mouse click and one :class:`UpdateRecord` per display update.
A :class:`SessionTrace` bundles a user session's records and implements
the paper's post-processing: the event<-update attribution heuristic of
Section 5.2 ("all pixel changes that occur between two input events are
considered to be induced by the first event"), per-event byte counts
(Figure 5), compression breakdowns (Figure 4), and average bandwidth
(Figure 8).

Traces serialise to JSON-lines so expensive user-study simulations can be
run once and post-processed many times — the same economy the paper's
methodology was designed around.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.errors import ReproError


# The records are immutable by convention, not ``frozen``: a study logs
# one of each per input event, and a frozen dataclass pays
# ``object.__setattr__`` per field.  They still compare and hash by value.
@dataclass(unsafe_hash=True)
class InputRecord:
    """One user input event (keystroke or mouse click)."""

    time: float
    kind: str  # "key" or "click"


@dataclass(unsafe_hash=True)
class UpdateRecord:
    """One display update as logged by the instrumented SLIM driver.

    Attributes:
        time: When the update was generated.
        pixels: Pixels affected (sum over the update's commands).
        wire_bytes: Total SLIM bytes on the wire, all headers included.
        payload_bytes_by_opcode: Per-command-type body bytes (Figure 4).
        pixels_by_opcode: Per-command-type pixels affected.
        commands_by_opcode: Per-command-type command counts.
        service_time: Console decode time charged for the update
            (Figure 7), seconds.
        x_bytes: Bytes the same update costs under the X protocol
            (Figure 8 comparison), when computed.
        raw_bytes: Bytes under the raw-pixel protocol.
    """

    time: float
    pixels: int
    wire_bytes: int
    payload_bytes_by_opcode: Dict[str, int]
    pixels_by_opcode: Dict[str, int]
    commands_by_opcode: Dict[str, int]
    service_time: float = 0.0
    x_bytes: int = 0
    raw_bytes: int = 0


@dataclass
class SessionTrace:
    """All records from one user session of one application."""

    application: str
    user: str
    duration: float
    inputs: List[InputRecord] = field(default_factory=list)
    updates: List[UpdateRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ReproError("session duration must be positive")

    # -- Figure 2: input event frequency ------------------------------------
    def input_frequencies(self) -> List[float]:
        """Instantaneous event frequency: 1 / gap to the previous event."""
        times = [r.time for r in self.inputs]
        return [
            1.0 / (b - a)
            for a, b in zip(times, times[1:])
            if b > a
        ]

    # -- Figure 3/5: attribution heuristic ------------------------------------
    def updates_per_event(self) -> List[List[UpdateRecord]]:
        """Group updates by inducing input event (Section 5.2 heuristic).

        All updates between event *i* and event *i+1* are attributed to
        event *i*.  Updates before the first event are attributed to a
        synthetic session-start event, matching the paper's treatment of
        application startup painting.
        """
        if not self.inputs:
            return [list(self.updates)] if self.updates else []
        event_times = [r.time for r in self.inputs]
        groups: List[List[UpdateRecord]] = [[] for _ in range(len(event_times) + 1)]
        for update in self.updates:
            # Index of the most recent event at or before the update.
            lo, hi = 0, len(event_times)
            while lo < hi:
                mid = (lo + hi) // 2
                if event_times[mid] <= update.time:
                    lo = mid + 1
                else:
                    hi = mid
            groups[lo].append(update)
        # groups[0] holds pre-first-event updates.
        return groups

    def pixels_per_event(self) -> List[int]:
        """Pixels changed per input event (Figure 3's samples)."""
        return [
            sum(u.pixels for u in group)
            for group in self.updates_per_event()
        ]

    def bytes_per_event(self) -> List[int]:
        """SLIM wire bytes per input event (Figure 5's samples)."""
        return [
            sum(u.wire_bytes for u in group)
            for group in self.updates_per_event()
        ]

    # -- Figure 4: compression breakdown ----------------------------------------
    def opcode_totals(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """(payload bytes by opcode, pixels by opcode) over the session."""
        bytes_by: Dict[str, int] = {}
        pixels_by: Dict[str, int] = {}
        for update in self.updates:
            for op, nbytes in update.payload_bytes_by_opcode.items():
                bytes_by[op] = bytes_by.get(op, 0) + nbytes
            for op, npx in update.pixels_by_opcode.items():
                pixels_by[op] = pixels_by.get(op, 0) + npx
        return bytes_by, pixels_by

    def compression_factor(self) -> float:
        """Raw pixel bytes / SLIM payload bytes (Figure 4's message)."""
        raw = sum(u.pixels for u in self.updates) * 3
        slim = sum(
            sum(u.payload_bytes_by_opcode.values()) for u in self.updates
        )
        if slim == 0:
            return float("inf") if raw > 0 else 1.0
        return raw / slim

    # -- Figure 8: bandwidths ------------------------------------------------------
    def mean_bandwidth_bps(self) -> float:
        """Average SLIM bandwidth over the session, bits/second."""
        total = sum(u.wire_bytes for u in self.updates)
        return total * 8 / self.duration

    def mean_x_bandwidth_bps(self) -> float:
        """Average X-protocol bandwidth, when the driver recorded it."""
        return sum(u.x_bytes for u in self.updates) * 8 / self.duration

    def mean_raw_bandwidth_bps(self) -> float:
        """Average raw-pixel bandwidth."""
        return sum(u.raw_bytes for u in self.updates) * 8 / self.duration

    # -- Figure 7 --------------------------------------------------------------------
    def service_times(self) -> List[float]:
        """Console service time per display update, seconds."""
        return [u.service_time for u in self.updates]


# --- persistence -----------------------------------------------------------------


def save_traces(traces: Sequence[SessionTrace], path: Path) -> None:
    """Write traces as JSON lines (one session per line)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for trace in traces:
            record = {
                "application": trace.application,
                "user": trace.user,
                "duration": trace.duration,
                "inputs": [asdict(r) for r in trace.inputs],
                "updates": [asdict(u) for u in trace.updates],
            }
            handle.write(json.dumps(record) + "\n")


#: The JSON type of a record field, by its annotation (a string: this
#: module postpones annotations).  Lists are the caller's to check.
_JSON_TYPES = {"float": (int, float), "int": int, "str": str}


def _holds(annotation: str, value: object) -> bool:
    """Whether a JSON ``value`` fits a record field annotated so."""
    if isinstance(value, bool):
        return False
    if annotation == "Dict[str, int]":
        return isinstance(value, dict) and all(
            isinstance(k, str) and _holds("int", v) for k, v in value.items()
        )
    return isinstance(value, _JSON_TYPES.get(annotation, object))


def _refuse_constant(constant: str) -> None:
    raise ValueError(f"bare {constant} is not strict JSON")


def _fields_of(cls: type, record: object, where: str) -> Dict[str, object]:
    """``record`` as the keyword arguments of dataclass ``cls``: an
    object with every field that has no default, no other key, and a
    value of each field's type."""
    if not isinstance(record, dict):
        raise ReproError(f"{where}: a {cls.__name__} that is not an object")
    declared = {f.name: f for f in fields(cls)}
    for name in sorted(declared.keys() | record.keys()):
        if name not in declared:
            raise ReproError(f"{where}: {cls.__name__} has unknown field {name!r}")
        spec = declared[name]
        if name not in record:
            if spec.default is MISSING and spec.default_factory is MISSING:
                raise ReproError(f"{where}: {cls.__name__} lacks {name!r}")
        elif not _holds(spec.type, record[name]):
            raise ReproError(
                f"{where}: {cls.__name__} field {name!r} is not a {spec.type}: "
                f"{record[name]!r:.40}"
            )
    return record


def load_traces(path: Path) -> List[SessionTrace]:
    """Read traces written by :func:`save_traces`; a line that is not a
    session with exactly its fields (and its records theirs) raises
    :class:`ReproError` naming the line."""
    path = Path(path)
    traces: List[SessionTrace] = []
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path} line {number}"
            try:
                record = json.loads(line, parse_constant=_refuse_constant)
            except ValueError as exc:
                raise ReproError(f"{where}: not JSON ({exc})") from exc
            session = dict(_fields_of(SessionTrace, record, where))
            for key, cls in (("inputs", InputRecord), ("updates", UpdateRecord)):
                items = session.get(key, [])
                if not isinstance(items, list):
                    raise ReproError(f"{where}: {key} is not a list")
                session[key] = [cls(**_fields_of(cls, item, where)) for item in items]
            try:
                traces.append(SessionTrace(**session))
            except ReproError as exc:
                raise ReproError(f"{where}: {exc}") from exc
    return traces
