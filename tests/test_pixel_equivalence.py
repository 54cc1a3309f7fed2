"""Tables and memos before the wire equal the formulations they replaced.

An update is sampled, seeded, clipped and priced from tables computed
once; each table stands in for a numpy-scalar or per-call formulation
that is kept *here*, verbatim, as the oracle:

* ``sample_update`` against ``rng.choice(p=)`` / ``np.clip`` /
  ``rng.uniform`` on drawn archetypes, display sizes and seeds — the
  same ops and the same next draw;
* the re-seated shared generator against ``default_rng(seed)`` over
  drawn interleavings of seeds, and the glyph synthesiser against its
  clamp-and-repeat formulation;
* the framebuffer mutators against a per-pixel model, for rectangles
  on, partly off and wholly off screen and empty;
* ``MicroOpModel.service_time`` ``==`` the derivation evaluated per
  command.

Two of these are properties of the installed numpy, not of this code
(``choice`` is ``searchsorted`` of one uniform draw; ``PCG64(seed)``
starts where ``default_rng(seed)`` does): they are compared against the
numpy call itself, so a numpy that changes either fails here by name.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.console.microops import MicroOpCosts, MicroOpModel
from repro.core import commands as cmd
from repro.core.commands import Opcode
from repro.errors import GeometryError
from repro.framebuffer import painter
from repro.framebuffer.framebuffer import FrameBuffer
from repro.framebuffer.painter import PaintKind, PaintOp, synth_glyph_bitmap
from repro.framebuffer.regions import Rect
from repro.units import NANOSECOND
from repro.workloads.display_model import (
    FILL_COLORS,
    GLYPH_AREA,
    DisplayModel,
    SizeClass,
    UpdateArchetype,
)


# ---------------------------------------------------------------------------
# (i) sample_update == the numpy-scalar formulation
# ---------------------------------------------------------------------------
class ScalarDisplayModel:
    """``DisplayModel`` as it sampled before its tables (88aa103)."""

    def __init__(self, archetype, display_w, display_h) -> None:
        self.archetype = archetype
        self.display_w = display_w
        self.display_h = display_h
        self.display_area = display_w * display_h
        self._weights = [c.weight for c in archetype.classes]

    def sample_class(self, rng):
        idx = int(rng.choice(len(self._weights), p=self._weights))
        return self.archetype.classes[idx]

    def sample_update(self, rng, seed=0) -> List[PaintOp]:
        cls = self.sample_class(rng)
        area = float(rng.lognormal(np.log(cls.median_area), cls.sigma))
        total_area = int(np.clip(area, 16.0, self.display_area))
        shares = np.asarray(cls.shares, dtype=np.float64)
        conc = self.archetype.content_concentration
        jittered = rng.dirichlet(shares * conc + 1e-3)
        ops: List[PaintOp] = []
        kinds = (PaintKind.FILL, PaintKind.TEXT, PaintKind.COPY, PaintKind.IMAGE)
        for kind, share in zip(kinds, jittered):
            op_area = int(total_area * share)
            if op_area < 16:
                continue
            ops.append(self._make_op(kind, op_area, rng, seed, cls))
        if not ops:
            ops.append(self._make_op(PaintKind.TEXT, max(16, total_area), rng, seed, cls))
        return ops

    def _place_rect(self, area, rng, min_h=1) -> Rect:
        area = max(16, min(area, self.display_area))
        aspect = float(rng.uniform(1.0, 4.0))
        w = int(np.sqrt(area * aspect))
        w = max(4, min(w, self.display_w))
        h = max(min_h, min(area // w, self.display_h))
        w = max(4, min(area // h, self.display_w))
        x = int(rng.integers(0, self.display_w - w + 1))
        y = int(rng.integers(0, self.display_h - h + 1))
        return Rect(x, y, w, h)

    def _make_op(self, kind, area, rng, seed, cls) -> PaintOp:
        if kind is PaintKind.FILL:
            rect = self._place_rect(area, rng)
            color = FILL_COLORS[int(rng.integers(0, len(FILL_COLORS)))]
            return PaintOp(PaintKind.FILL, rect, color=color, seed=seed)
        if kind is PaintKind.TEXT:
            rect = self._place_rect(area, rng, min_h=13)
            return PaintOp(
                PaintKind.TEXT,
                rect,
                fg=(0, 0, 0),
                bg=(255, 255, 255),
                seed=seed,
                char_count=max(1, rect.area // GLYPH_AREA),
                glyph_density=float(rng.uniform(0.08, 0.16)),
            )
        if kind is PaintKind.COPY:
            rect = self._place_rect(area, rng)
            max_dy = min(64, self.display_h - rect.h)
            dy = int(rng.integers(1, max(2, max_dy + 1)))
            src_y = rect.y + dy if rect.y2 + dy <= self.display_h else rect.y - dy
            src_y = int(np.clip(src_y, 0, self.display_h - rect.h))
            src = Rect(rect.x, src_y, rect.w, rect.h)
            return PaintOp(PaintKind.COPY, rect, src=src, seed=seed)
        rect = self._place_rect(area, rng)
        return PaintOp(
            PaintKind.IMAGE, rect, seed=seed, uniform_fraction=cls.image_uniform_fraction
        )


def _normalised(values):
    total = sum(values)
    return tuple(value / total for value in values)


@st.composite
def _archetypes(draw):
    n = draw(st.integers(1, 6))
    weights = _normalised(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    classes = []
    for index, weight in enumerate(weights):
        # A class may give a kind no pixels at all.
        shares = draw(
            st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
                lambda raw: sum(raw) > 0.05
            )
        )
        classes.append(
            SizeClass(
                name=f"class{index}",
                weight=weight,
                median_area=draw(st.floats(1.0, 2e6)),
                sigma=draw(st.floats(0.05, 2.5)),
                shares=_normalised(shares),
                image_uniform_fraction=draw(st.floats(0.0, 1.0)),
            )
        )
    return UpdateArchetype(
        classes=tuple(classes), content_concentration=draw(st.floats(0.4, 50.0))
    )


@seed(1999)
@settings(deadline=None)
@given(
    archetype=_archetypes(),
    display_w=st.integers(16, 2048),
    display_h=st.integers(16, 1536),
    rng_seed=st.integers(0, 2**63),
    updates=st.integers(1, 8),
)
def test_sample_update_draws_what_the_numpy_scalars_drew(
    archetype, display_w, display_h, rng_seed, updates
):
    tables = DisplayModel(archetype, display_w, display_h)
    scalars = ScalarDisplayModel(archetype, display_w, display_h)
    ours_rng = np.random.default_rng(rng_seed)
    theirs_rng = np.random.default_rng(rng_seed)
    for index in range(updates):
        ours = tables.sample_update(ours_rng, seed=index)
        theirs = scalars.sample_update(theirs_rng, seed=index)
        assert ours == theirs
        # Same Python types too: a numpy scalar in a field reads
        # differently in a trace and hashes differently in a golden.
        assert repr(ours) == repr(theirs)
    assert tables.sample_class(ours_rng) is scalars.sample_class(theirs_rng)
    assert ours_rng.random() == theirs_rng.random()


# ---------------------------------------------------------------------------
# (ii) the re-seated generator == default_rng(seed); glyphs == clamp-and-repeat
# ---------------------------------------------------------------------------
def _draws(rng, n):
    """The kinds of draw synthesis makes (the uint8 one leaves half a
    32-bit word buffered in the bit generator), then one of each of the
    others."""
    return (
        rng.integers(0, 256, size=n, dtype=np.uint8).tobytes(),
        rng.integers(-6, 7, size=n, dtype=np.int16).tobytes(),
        rng.integers(0, 1000, size=(n, 2)).tobytes(),
        rng.random(),
    )


@seed(1999)
@settings(deadline=None)
@given(
    pool=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4, unique=True),
    picks=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 9)), min_size=1, max_size=12),
)
def test_reseated_generator_starts_where_default_rng_does(pool, picks):
    """A A, A B A, ...: whatever was drawn since, a seed starts over."""
    painter._seed_state.cache_clear()
    used = set()
    for index, n in picks:
        rng_seed = pool[index % len(pool)]
        used.add(rng_seed)
        assert _draws(painter._seeded_rng(rng_seed), n) == _draws(
            np.random.default_rng(rng_seed), n
        )
    info = painter._seed_state.cache_info()
    assert info.misses == len(used)
    assert info.hits == len(picks) - len(used)


def clamp_and_repeat_glyphs(rect: Rect, seed: int, density: float) -> np.ndarray:
    """``synth_glyph_bitmap`` as it was at 88aa103."""
    rng = np.random.default_rng(seed)
    bitmap = np.zeros((rect.h, rect.w), dtype=bool)
    if density <= 0:
        return bitmap
    run_len = 3
    per_row_runs = max(1, int(rect.w * density / run_len))
    ink_rows = np.flatnonzero(np.arange(rect.h) % 13 < 10)
    if ink_rows.size == 0:
        return bitmap
    starts = rng.integers(
        0, max(1, rect.w - run_len), size=(ink_rows.size, per_row_runs)
    )
    cols = starts[:, :, None] + np.arange(run_len)
    np.minimum(cols, rect.w - 1, out=cols)
    rows = np.repeat(ink_rows, per_row_runs * run_len)
    bitmap[rows, cols.ravel()] = True
    return bitmap


@seed(1999)
@settings(deadline=None)
@given(
    w=st.one_of(st.integers(1, 8), st.integers(1, 300)),
    h=st.one_of(st.integers(1, 14), st.integers(1, 120)),
    rng_seed=st.integers(0, 1000),
    density=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
def test_glyph_runs_land_where_clamp_and_repeat_put_them(w, h, rng_seed, density):
    rect = Rect(3, 5, w, h)
    ours = synth_glyph_bitmap(rect, rng_seed, density)
    theirs = clamp_and_repeat_glyphs(rect, rng_seed, density)
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()
    assert ours.flags.writeable


# ---------------------------------------------------------------------------
# (iii) framebuffer mutators == a per-pixel model
# ---------------------------------------------------------------------------
FB_W, FB_H = 24, 16


class PixelModel:
    """The mutators' contract, one pixel at a time."""

    def __init__(self) -> None:
        self.pixels = [[(0, 0, 0)] * FB_W for _ in range(FB_H)]
        self.damage: List[Rect] = []

    @staticmethod
    def clip(rect: Rect) -> Rect:
        x, y = max(rect.x, 0), max(rect.y, 0)
        x2, y2 = min(rect.x + rect.w, FB_W), min(rect.y + rect.h, FB_H)
        if x2 <= x or y2 <= y:
            return Rect(x, y, 0, 0)
        return Rect(x, y, x2 - x, y2 - y)

    def _paint(self, rect: Rect, value_at) -> Rect:
        clipped = self.clip(rect)
        for y in range(clipped.y, clipped.y + clipped.h):
            for x in range(clipped.x, clipped.x + clipped.w):
                self.pixels[y][x] = value_at(x - rect.x, y - rect.y)
        if clipped.w and clipped.h:
            self.damage.append(clipped)
        return clipped

    def fill(self, rect, color):
        return self._paint(rect, lambda dx, dy: tuple(color))

    def blit(self, rect, data):
        return self._paint(rect, lambda dx, dy: tuple(int(v) for v in data[dy, dx]))

    def expand_bitmap(self, rect, bitmap, fg, bg):
        return self._paint(
            rect, lambda dx, dy: tuple(fg) if bitmap[dy, dx] else tuple(bg)
        )

    def copy_within(self, src, dst_x, dst_y):
        dst = Rect(dst_x, dst_y, src.w, src.h)
        if src.w == 0 or src.h == 0:
            return dst  # nothing moves, wherever it was not moved to
        if self.clip(src) != src or self.clip(dst) != dst:
            raise GeometryError("outside")
        before = [row[:] for row in self.pixels]
        return self._paint(dst, lambda dx, dy: before[src.y + dy][src.x + dx])


def _rects(max_w=FB_W + 10, max_h=FB_H + 10):
    return st.builds(
        Rect,
        st.integers(-12, FB_W + 6),
        st.integers(-12, FB_H + 6),
        st.integers(0, max_w),
        st.integers(0, max_h),
    )


_colors = st.tuples(*[st.integers(0, 255)] * 3)


@st.composite
def _mutations(draw):
    kind = draw(st.sampled_from(["fill", "blit", "expand_bitmap", "copy_within"]))
    rect = draw(_rects())
    content = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "fill":
        return kind, (rect, draw(_colors))
    if kind == "blit":
        return kind, (rect, content.integers(0, 256, (rect.h, rect.w, 3), dtype=np.uint8))
    if kind == "expand_bitmap":
        bitmap = content.random((rect.h, rect.w)) < 0.4
        if draw(st.booleans()):
            # Any nonzero byte is ink.
            bitmap = bitmap * content.integers(1, 256, bitmap.shape, dtype=np.uint8)
        fg, bg = draw(_colors), draw(_colors)
        shared = draw(st.sampled_from([(), (1,), (0, 1, 2)]))
        bg = tuple(fg[c] if c in shared else bg[c] for c in range(3))
        return kind, (rect, bitmap, fg, bg)
    # Mostly legal copies (both rects on screen), sometimes not.
    if draw(st.integers(0, 3)):
        rect = PixelModel.clip(rect)
        dst_x = draw(st.integers(0, FB_W - rect.w))
        dst_y = draw(st.integers(0, FB_H - rect.h))
    else:
        dst_x, dst_y = draw(st.integers(-4, FB_W)), draw(st.integers(-4, FB_H))
    return kind, (rect, dst_x, dst_y)


@seed(1999)
@settings(deadline=None)
@given(script=st.lists(_mutations(), min_size=1, max_size=12))
def test_framebuffer_mutators_match_the_per_pixel_model(script):
    fb = FrameBuffer(FB_W, FB_H)
    model = PixelModel()
    for kind, args in script:
        try:
            expected = getattr(model, kind)(*args)
        except GeometryError:
            with pytest.raises(GeometryError):
                getattr(fb, kind)(*args)
            continue
        assert getattr(fb, kind)(*args) == expected
        assert fb.pixels.tolist() == [[list(p) for p in row] for row in model.pixels]
    assert fb.drain_damage() == model.damage


# ---------------------------------------------------------------------------
# (iv) service_time == the derivation, per command
# ---------------------------------------------------------------------------
def derived_service_time(model: MicroOpModel, command) -> float:
    """``MicroOpModel.service_time`` as it was at 88aa103."""
    opcode = command.opcode
    if isinstance(command, cmd.CscsCommand):
        pixels = command.source_pixels
        rows = command.src_h
        per_pixel = model.derived_per_pixel_ns(opcode, command.bits_per_pixel)
    else:
        pixels = command.pixels
        rows = command.rect.h
        per_pixel = model.derived_per_pixel_ns(opcode)
    startup = model.derived_startup_ns(opcode)
    row_term = 0.0
    if opcode in (Opcode.SET, Opcode.BITMAP, Opcode.FILL, Opcode.COPY):
        row_term = model.costs.row_overhead_ns * rows
    total_ns = startup + per_pixel * pixels + row_term
    return total_ns * NANOSECOND


_cost_values = st.floats(0.0, 1e5, allow_nan=False)
_costs = st.one_of(
    st.just(MicroOpCosts()),
    st.builds(
        MicroOpCosts,
        **{name: _cost_values for name in MicroOpCosts.__dataclass_fields__},
    ),
)


@seed(1999)
@settings(deadline=None)
@given(
    costs=_costs,
    rect=st.builds(
        Rect,
        st.integers(0, 1280),
        st.integers(0, 1024),
        st.integers(1, 1280),
        st.integers(1, 1024),
    ),
    bits=st.sampled_from(sorted(cmd.CSCS_LADDER)),
    src=st.tuples(st.integers(1, 640), st.integers(1, 480)),
)
def test_service_time_is_the_derivation_to_the_bit(costs, rect, bits, src):
    model = MicroOpModel(costs)
    commands = [
        cmd.SetCommand(rect=rect),
        cmd.BitmapCommand(rect=rect),
        cmd.FillCommand(rect=rect, color=(1, 2, 3)),
        cmd.CopyCommand(rect=rect, src_x=3, src_y=4),
        cmd.CscsCommand(rect=rect, bits_per_pixel=bits),
        # Scaled on the console: fewer source pixels than display pixels.
        cmd.CscsCommand(rect=rect, src_w=src[0], src_h=src[1], bits_per_pixel=bits),
    ]
    assert {command.opcode for command in commands} == {
        Opcode.SET, Opcode.BITMAP, Opcode.FILL, Opcode.COPY, Opcode.CSCS
    }  # fmt: skip
    for command in commands:
        assert model.service_time(command) == derived_service_time(model, command)
