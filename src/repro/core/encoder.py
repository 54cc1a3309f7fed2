"""Server-side SLIM encoding: rendering operations -> display commands.

This is where the protocol's bandwidth savings happen (Figure 4): the
encoder exploits the redundancy in application pixel output by selecting
the cheapest adequate command — FILL for solid regions, BITMAP for bicolor
(text) regions, COPY for moves, SET for everything else.  CSCS frames are
not built here: video reaches the console through the SLIM video library
(:mod:`repro.core.video`), which bypasses the driver path.

Two entry points:

* :meth:`SlimEncoder.encode_op` — the device-driver path ("applications
  can be ported by simply changing the device drivers" — Section 2.2):
  the driver sees the high-level paint op and can translate it directly.
* :meth:`SlimEncoder.encode_damage` — the pixel-diff path used by the
  VNC-style comparator and by fidelity tests: only the framebuffer
  contents are available, and the encoder rediscovers structure by
  analysing tiles.

Both paths run materialized (real payloads, used by fidelity tests and the
examples) or accounting-only (sizes computed from op metadata, used by the
long statistical experiments).  Command-selection ablations (Section 5 of
DESIGN.md) switch individual commands off via :class:`EncoderConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.core import commands as cmd
from repro.framebuffer.framebuffer import FrameBuffer
from repro.framebuffer.painter import COPY, FILL, IMAGE, TEXT, PaintOp
from repro.framebuffer.regions import Rect, tile_rect
from repro.telemetry.metrics import Counter, get_registry


@dataclass(frozen=True)
class EncoderConfig:
    """Tunable encoder policy.

    Attributes:
        use_fill: Detect/emit FILL commands (off -> SET).
        use_bitmap: Detect/emit BITMAP commands (off -> SET).
        use_copy: Emit COPY for move ops (off -> SET of the destination).
        tile_w: Analysis tile width for the pixel-diff path.
        tile_h: Analysis tile height for the pixel-diff path.
    """

    use_fill: bool = True
    use_bitmap: bool = True
    use_copy: bool = True
    tile_w: int = 64
    tile_h: int = 64


class SlimEncoder:
    """Translates paint operations / pixel damage into SLIM commands.

    Args:
        config: Encoder policy; defaults replicate the Sun Ray 1 driver.
        materialize: When True, commands carry real payloads read from (or
            synthesised consistently with) the server framebuffer.  When
            False, commands carry geometry only; wire sizes are identical.
    """

    def __init__(
        self,
        config: Optional[EncoderConfig] = None,
        materialize: bool = True,
    ) -> None:
        self.config = config or EncoderConfig()
        self.materialize = materialize
        self._metrics = get_registry()
        #: ``(encoder.commands, encoder.pixels)`` counters by opcode.
        self._m_by_opcode: Dict[cmd.Opcode, Tuple[Counter, Counter]] = {}

    # ------------------------------------------------------------------
    # Device-driver path: the op itself tells us the structure.
    # ------------------------------------------------------------------
    def encode_op(
        self,
        op: PaintOp,
        framebuffer: Optional[FrameBuffer] = None,
    ) -> List[cmd.DisplayCommand]:
        """Encode one paint op.

        ``framebuffer`` is the *post-paint* server framebuffer; it is
        required when materializing and ignored otherwise.
        """
        kind = op.kind
        if self.materialize and framebuffer is None and kind is not COPY:
            raise ProtocolError("materializing encoder needs the framebuffer")
        if kind is FILL:
            out = self._encode_fill(op, framebuffer)
        elif kind is TEXT:
            out = self._encode_text(op, framebuffer)
        elif kind is IMAGE:
            out = self._encode_image(op, framebuffer)
        elif kind is COPY:
            out = self._encode_copy(op, framebuffer)
        else:
            raise ProtocolError(f"unknown paint kind {op.kind!r}")
        if self._metrics.enabled:
            self._count_commands(out)
        return out

    def _count_commands(self, commands: List[cmd.DisplayCommand]) -> None:
        """Per-opcode emission counters (commands + affected pixels)."""
        counters = self._m_by_opcode
        for command in commands:
            opcode = command.opcode
            pair = counters.get(opcode)
            if pair is None:
                # Resolved at an opcode's first command, not at
                # construction: the registry lists only opcodes emitted,
                # in the order they first were.
                name = opcode.name
                pair = counters[opcode] = (
                    self._metrics.counter("encoder.commands", opcode=name),
                    self._metrics.counter("encoder.pixels", opcode=name),
                )
            pair[0].inc()
            pair[1].inc(command.pixels)

    def encode_ops(
        self,
        ops,
        framebuffer: Optional[FrameBuffer] = None,
    ) -> List[cmd.DisplayCommand]:
        """Encode a sequence of paint ops in order."""
        out: List[cmd.DisplayCommand] = []
        encode = self.encode_op
        for op in ops:
            out.extend(encode(op, framebuffer))
        return out

    # -- per-kind handlers ------------------------------------------------
    def _encode_fill(
        self, op: PaintOp, fb: Optional[FrameBuffer]
    ) -> List[cmd.DisplayCommand]:
        if self.config.use_fill:
            return [cmd.FillCommand(rect=op.rect, color=op.color)]
        return [self._set_for_rect(op.rect, fb, flat_color=op.color)]

    def _encode_text(
        self, op: PaintOp, fb: Optional[FrameBuffer]
    ) -> List[cmd.DisplayCommand]:
        if not self.config.use_bitmap:
            return [self._set_for_rect(op.rect, fb)]
        bitmap = None
        if self.materialize:
            assert fb is not None
            rows, cols = op.rect.intersect(fb.bounds).slices()
            block = fb.pixels[rows, cols]  # view; the comparison copies
            bitmap = (
                (block[:, :, 0] == op.fg[0])
                & (block[:, :, 1] == op.fg[1])
                & (block[:, :, 2] == op.fg[2])
            )
        return [cmd.BitmapCommand(rect=op.rect, fg=op.fg, bg=op.bg, bitmap=bitmap)]

    def _encode_image(
        self, op: PaintOp, fb: Optional[FrameBuffer]
    ) -> List[cmd.DisplayCommand]:
        if self.materialize:
            assert fb is not None
            # The driver rendered this image, so it knows where the flat
            # band is; split there so tile analysis sees homogeneous
            # regions, then let the pixel path confirm the structure.
            regions = [op.rect]
            flat_rows = int(op.rect.h * op.uniform_fraction)
            if flat_rows > 0 and flat_rows < op.rect.h:
                regions = [
                    Rect(op.rect.x, op.rect.y, op.rect.w, op.rect.h - flat_rows),
                    Rect(op.rect.x, op.rect.y2 - flat_rows, op.rect.w, flat_rows),
                ]
            return self.encode_damage(fb, regions)
        # Accounting-only: the op metadata records how much of the region
        # is flat; the encoder would recover that fraction as FILLs.
        out: List[cmd.DisplayCommand] = []
        flat_rows = 0
        if self.config.use_fill and op.uniform_fraction > 0:
            flat_rows = int(op.rect.h * op.uniform_fraction)
            if flat_rows > 0:
                out.append(
                    cmd.FillCommand(
                        rect=Rect(op.rect.x, op.rect.y2 - flat_rows, op.rect.w, flat_rows),
                        color=(238, 238, 238),
                    )
                )
        busy_h = op.rect.h - flat_rows
        if busy_h > 0:
            out.append(cmd.SetCommand(rect=Rect(op.rect.x, op.rect.y, op.rect.w, busy_h)))
        return out

    def _encode_copy(
        self, op: PaintOp, fb: Optional[FrameBuffer]
    ) -> List[cmd.DisplayCommand]:
        assert op.src is not None
        if self.config.use_copy:
            return [
                cmd.CopyCommand(rect=op.rect, src_x=op.src.x, src_y=op.src.y)
            ]
        return [self._set_for_rect(op.rect, fb)]

    def _set_for_rect(
        self,
        rect: Rect,
        fb: Optional[FrameBuffer],
        flat_color: Optional[Tuple[int, int, int]] = None,
    ) -> cmd.SetCommand:
        data = None
        if self.materialize:
            if fb is not None:
                data = fb.read(rect)
            elif flat_color is not None:
                data = np.full((rect.h, rect.w, 3), flat_color, dtype=np.uint8)
            else:
                raise ProtocolError("materializing SET fallback needs pixels")
        return cmd.SetCommand(rect=rect, data=data)

    # ------------------------------------------------------------------
    # Pixel-diff path: rediscover structure by analysing tiles.
    # ------------------------------------------------------------------
    def encode_damage(
        self, framebuffer: FrameBuffer, rects: List[Rect]
    ) -> List[cmd.DisplayCommand]:
        """Encode damaged regions from pixels alone (always materialized).

        Each damage rect is tiled; per tile the encoder probes for a
        uniform color (FILL) then a bicolor pattern (BITMAP) before
        falling back to SET.  Adjacent same-color FILL tiles within a
        damage rect row are merged to amortise command startup cost.

        All tiles of a damage rect are classified in one vectorized
        numpy pass (see :meth:`_classify_tiles`); the emitted command
        stream is byte-identical to :meth:`encode_damage_scalar`, the
        per-tile reference implementation the equivalence tests compare
        against.
        """
        out: List[cmd.DisplayCommand] = []
        for rect in rects:
            clipped = rect.intersect(framebuffer.bounds)
            if clipped.empty:
                continue
            self._encode_rect_vectorized(framebuffer, clipped, out)
        return out

    # Tile classes produced by _classify_tiles.
    _TILE_SET = 0
    _TILE_FILL = 1
    _TILE_BITMAP = 2

    def _classify_tiles(self, packed: np.ndarray, ys: np.ndarray, xs: np.ndarray):
        """Classify every tile of a damage rect in one vectorized pass.

        ``packed`` holds one uint32 per pixel (r<<16|g<<8|b); ``ys``/``xs``
        are the tile start offsets within the rect.  Per tile the packed
        minimum equals the maximum iff the tile is uniform (FILL), and a
        tile is bicolor (BITMAP) iff every pixel equals the packed min or
        the packed max — the two distinct colors of a bicolor tile *are*
        its extremes, so this membership test is exact, and it matches
        the scalar reference's ``color_census(limit=2)`` ordering
        (census colors sort ascending by packed value, so bg=min, fg=max).
        """
        mins = np.minimum.reduceat(np.minimum.reduceat(packed, ys, axis=0), xs, axis=1)
        maxs = np.maximum.reduceat(np.maximum.reduceat(packed, ys, axis=0), xs, axis=1)
        uniform = mins == maxs
        classes = np.zeros(mins.shape, dtype=np.uint8)
        if self.config.use_fill:
            classes[uniform] = self._TILE_FILL
        if self.config.use_bitmap and not uniform.all():
            heights = np.diff(np.append(ys, packed.shape[0]))
            widths = np.diff(np.append(xs, packed.shape[1]))
            min_full = np.repeat(np.repeat(mins, heights, axis=0), widths, axis=1)
            max_full = np.repeat(np.repeat(maxs, heights, axis=0), widths, axis=1)
            member = (packed == min_full) | (packed == max_full)
            bicolor = np.logical_and.reduceat(
                np.logical_and.reduceat(member, ys, axis=0), xs, axis=1
            )
            classes[bicolor & ~uniform] = self._TILE_BITMAP
        return classes, mins, maxs

    @staticmethod
    def _unpack_color(packed_value: int) -> Tuple[int, int, int]:
        value = int(packed_value)
        return ((value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF)

    def _encode_rect_vectorized(
        self, fb: FrameBuffer, clipped: Rect, out: List[cmd.DisplayCommand]
    ) -> None:
        rows, cols = clipped.slices()
        block = fb.pixels[rows, cols]  # view, no copy
        packed = (
            block[:, :, 0].astype(np.uint32) << 16
            | block[:, :, 1].astype(np.uint32) << 8
            | block[:, :, 2].astype(np.uint32)
        )
        ys = np.arange(0, clipped.h, self.config.tile_h)
        xs = np.arange(0, clipped.w, self.config.tile_w)
        classes, mins, maxs = self._classify_tiles(packed, ys, xs)
        # The per-tile loop reads Python ints, not numpy scalars.
        classes, mins, maxs = classes.tolist(), mins.tolist(), maxs.tolist()
        y_edges = ys.tolist() + [clipped.h]
        x_edges = xs.tolist() + [clipped.w]
        pending_fill: Optional[cmd.FillCommand] = None
        for ty in range(len(ys)):
            y0, y1 = y_edges[ty], y_edges[ty + 1]
            for tx in range(len(xs)):
                x0, x1 = x_edges[tx], x_edges[tx + 1]
                tile = Rect(clipped.x + x0, clipped.y + y0, x1 - x0, y1 - y0)
                klass = classes[ty][tx]
                if klass == self._TILE_FILL:
                    command = cmd.FillCommand(
                        rect=tile, color=self._unpack_color(mins[ty][tx])
                    )
                    merged = self._try_merge_fill(pending_fill, command)
                    if merged is not None:
                        pending_fill = merged
                        continue
                    if pending_fill is not None:
                        out.append(pending_fill)
                    pending_fill = command
                    continue
                if pending_fill is not None:
                    out.append(pending_fill)
                    pending_fill = None
                if klass == self._TILE_BITMAP:
                    fg_packed = maxs[ty][tx]
                    out.append(
                        cmd.BitmapCommand(
                            rect=tile,
                            fg=self._unpack_color(fg_packed),
                            bg=self._unpack_color(mins[ty][tx]),
                            bitmap=packed[y0:y1, x0:x1] == fg_packed,
                        )
                    )
                else:
                    out.append(
                        cmd.SetCommand(rect=tile, data=block[y0:y1, x0:x1].copy())
                    )
        if pending_fill is not None:
            out.append(pending_fill)

    def encode_damage_scalar(
        self, framebuffer: FrameBuffer, rects: List[Rect]
    ) -> List[cmd.DisplayCommand]:
        """Per-tile reference implementation of :meth:`encode_damage`.

        Kept as the semantic oracle: the equivalence tests assert the
        vectorized path emits this exact command stream.
        """
        out: List[cmd.DisplayCommand] = []
        for rect in rects:
            clipped = rect.intersect(framebuffer.bounds)
            if clipped.empty:
                continue
            tiles = tile_rect(clipped, self.config.tile_w, self.config.tile_h)
            pending_fill: Optional[cmd.FillCommand] = None
            for tile in tiles:
                command = self._encode_tile(framebuffer, tile)
                if isinstance(command, cmd.FillCommand):
                    merged = self._try_merge_fill(pending_fill, command)
                    if merged is not None:
                        pending_fill = merged
                        continue
                    if pending_fill is not None:
                        out.append(pending_fill)
                    pending_fill = command
                    continue
                if pending_fill is not None:
                    out.append(pending_fill)
                    pending_fill = None
                out.append(command)
            if pending_fill is not None:
                out.append(pending_fill)
        return out

    def _encode_tile(self, fb: FrameBuffer, tile: Rect) -> cmd.DisplayCommand:
        if self.config.use_fill:
            uniform = fb.is_uniform(tile)
            if uniform is not None:
                return cmd.FillCommand(rect=tile, color=uniform)
        if self.config.use_bitmap:
            census = fb.color_census(tile, limit=2)
            if len(census) == 2:
                bg, fg = census  # arbitrary assignment; both encode the same
                block = fb.read(tile)
                bitmap = (block == np.asarray(fg, dtype=np.uint8)).all(axis=2)
                return cmd.BitmapCommand(rect=tile, fg=fg, bg=bg, bitmap=bitmap)
        return cmd.SetCommand(rect=tile, data=fb.read(tile))

    @staticmethod
    def _try_merge_fill(
        pending: Optional[cmd.FillCommand], new: cmd.FillCommand
    ) -> Optional[cmd.FillCommand]:
        """Merge horizontally adjacent same-color fills; None if impossible."""
        if pending is None or pending.color != new.color:
            return None
        a, b = pending.rect, new.rect
        if a.y == b.y and a.h == b.h and a.x2 == b.x:
            return cmd.FillCommand(rect=Rect(a.x, a.y, a.w + b.w, a.h), color=new.color)
        return None
