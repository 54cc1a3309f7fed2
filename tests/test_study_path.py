"""What the user study builds per update keeps its values.

A study update's paint ops are a slotted class, its records are plain
dataclasses, each of its commands is priced once and the driver and
encoder resolve their metric handles once.  None of that may move what
a reader sees:

* the slotted ``PaintOp``'s ``==``, ``hash``, ``repr`` and validation
  are those of the frozen dataclass it replaced, kept here verbatim as
  the oracle, over drawn ops of every kind;
* ``save_traces`` of a two-user study of each application writes the
  bytes it wrote on 7784413, the last commit with frozen records and
  two pricing passes per command;
* ``--metrics-json`` of ``fig8`` and ``table4`` (now the ``--record``
  bundle's ``metrics.json``) is what it was on
  7784413, apart from the wall-clock ``span.*`` histograms, which keep
  only their counts, and from each histogram's ``quantiles`` and
  ``buckets``, which moved when quantiles came to be read from bucket
  counts (on a3cfb70; with those two fields dropped, both digests are
  those of its parent).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.analysis.traces import save_traces
from repro.errors import GeometryError
from repro.framebuffer.painter import PaintKind
from repro.framebuffer.painter import PaintOp as SlottedPaintOp
from repro.framebuffer.regions import Rect
from repro.obs import load_bundle
from repro.workloads.apps import BENCHMARK_APPS
from repro.workloads.session import run_user_study
from tests.fabric_oracle import _without_wall_clock
from tests.runner_oracle import _json_sha256, run_cli


# ---------------------------------------------------------------------------
# (i) the slotted PaintOp == the frozen dataclass it replaced
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PaintOp:
    """``PaintOp`` as it was at 7784413 (named alike, for its ``repr``)."""

    kind: PaintKind
    rect: Rect
    color: Tuple[int, int, int] = (0, 0, 0)
    fg: Tuple[int, int, int] = (0, 0, 0)
    bg: Tuple[int, int, int] = (255, 255, 255)
    src: Optional[Rect] = None
    seed: int = 0
    glyph_density: float = 0.12
    char_count: int = 0
    uniform_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.rect.empty:
            raise GeometryError(f"paint op on empty rect {self.rect}")
        if self.kind is PaintKind.COPY:
            if self.src is None:
                raise GeometryError("COPY op requires a source rect")
            if (self.src.w, self.src.h) != (self.rect.w, self.rect.h):
                raise GeometryError(
                    f"COPY source {self.src} and destination {self.rect} "
                    "sizes differ"
                )
        if not 0.0 <= self.glyph_density <= 1.0:
            raise GeometryError("glyph_density must be within [0, 1]")
        if not 0.0 <= self.uniform_fraction <= 1.0:
            raise GeometryError("uniform_fraction must be within [0, 1]")


_colors = st.tuples(*[st.integers(0, 255)] * 3)
_sizes = st.integers(0, 40)


@st.composite
def _op_fields(draw):
    """Constructor arguments of any kind, valid or not: some fields
    left at their defaults, a COPY's source of its size, another size
    or none, fractions a little outside [0, 1]."""
    w, h = draw(_sizes), draw(_sizes)
    rect = Rect(draw(st.integers(0, 60)), draw(st.integers(0, 60)), w, h)
    src = draw(
        st.one_of(
            st.none(),
            st.builds(Rect, st.integers(0, 60), st.integers(0, 60), st.just(w), st.just(h)),
            st.builds(Rect, st.integers(0, 60), st.integers(0, 60), _sizes, _sizes),
        )
    )
    optional = {
        "color": _colors,
        "fg": _colors,
        "bg": _colors,
        "src": st.just(src),
        "seed": st.integers(0, 2**32),
        "glyph_density": st.floats(-0.25, 1.25),
        "char_count": st.integers(0, 500),
        "uniform_fraction": st.floats(-0.25, 1.25),
    }
    fields = {"kind": draw(st.sampled_from(PaintKind)), "rect": rect}
    for name, values in optional.items():
        if draw(st.booleans()):
            fields[name] = draw(values)
    return fields


def _build(cls, fields):
    try:
        return cls(**fields)
    except GeometryError as exc:
        return exc


@seed(1999)
@settings(deadline=None)
@given(first=_op_fields(), second=st.one_of(_op_fields(), st.none()))
def test_slotted_paint_op_has_the_frozen_dataclass_values(first, second):
    """Equal where the oracle is equal, the same hash and ``repr``, and
    the same error on the same bad arguments (``second`` None: a copy
    of ``first``, so equal ops are drawn too)."""
    second = dict(first) if second is None else second
    ours = [_build(SlottedPaintOp, f) for f in (first, second)]
    theirs = [_build(PaintOp, f) for f in (first, second)]
    for mine, oracle in zip(ours, theirs):
        if isinstance(oracle, GeometryError):
            assert isinstance(mine, GeometryError)
            assert str(mine) == str(oracle)
            continue
        assert repr(mine) == repr(oracle)
        assert hash(mine) == hash(oracle)
        assert mine.pixels_changed == oracle.rect.area
        assert not hasattr(mine, "__dict__")
        values = [getattr(mine, name) for name in SlottedPaintOp._fields]
        assert SlottedPaintOp(*values) == mine
    if not any(isinstance(op, GeometryError) for op in theirs):
        assert (ours[0] == ours[1]) is (theirs[0] == theirs[1])
        assert (ours[0] != ours[1]) is (theirs[0] != theirs[1])
        assert ours[0] != theirs[0]  # equal by value within one class only


# ---------------------------------------------------------------------------
# (ii) a study's saved traces and (iii) its telemetry, as on 7784413
# ---------------------------------------------------------------------------
#: sha-256 of ``save_traces`` of ``run_user_study(app, n_users=2,
#: duration=120.0)``, written on 7784413.
SAVED_TRACES = {
    "Photoshop": "a86419be0d7f4bea24d76fb671fb25058a7b4a67d1185128da6416b731d46fb5",
    "Netscape": "41e90d1a76c19181871489d9e76d0ec82929334b833acc2c28f04f58dbe48cc4",
    "FrameMaker": "1b8ab623ceb9b178562ede967383173fd1b6211b816da8e4bebf4ce8e457f260",
    "PIM": "28cd3d5aae472454daaf4ffb065d867838893507bdc01faae129acf8fe9c137a",
}

#: ``_json_sha256`` of ``--metrics-json`` with ``span.*`` cut to counts,
#: written on a3cfb70; it is the ``--record`` bundle's ``metrics.json``.
METRICS_JSON = {
    "fig8": "ea4d5200049d343b194f6dd8f5b884ff2257aaf6ae3332fd07508f4f488cfdad",
    "table4": "0581232b970193cf8338afbd2e7047bf0aa0b485d478aeb88846a6c27dffdc18",
}


def saved_traces_digest(app, path) -> str:
    traces, _profiles = run_user_study(app, n_users=2, duration=120.0)
    save_traces(traces, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def metrics_json_digest(experiment, scratch) -> str:
    run_cli(["--record", "--postmortem-dir", "D", experiment], scratch)
    metrics = load_bundle(Path(scratch) / "D" / f"{experiment}.slimpm").metrics
    return _json_sha256(_without_wall_clock(metrics))


@pytest.mark.parametrize("name", sorted(SAVED_TRACES))
def test_saved_traces_are_byte_identical(name, tmp_path):
    digest = saved_traces_digest(BENCHMARK_APPS[name], tmp_path / "traces.jsonl")
    assert digest == SAVED_TRACES[name]


@pytest.mark.parametrize("experiment", sorted(METRICS_JSON))
def test_metrics_json_is_unchanged_apart_from_wall_clock(experiment, tmp_path):
    assert metrics_json_digest(experiment, tmp_path) == METRICS_JSON[experiment]
