"""Seeded fuzz/property tests for the wire codec and the damage encoder.

These tests pin the codec's observable behaviour so the hot-path
rewrites (zero-copy encode, batched bit packing, vectorized tile
classification) cannot drift semantically: every assertion here passed
against the scalar reference implementations before the rewrite and
must keep passing after it.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import commands as cmd
from repro.core import wire
from repro.core.commands import Opcode
from repro.core.encoder import EncoderConfig, SlimEncoder
from repro.core.wire import (
    Datagram,
    WireCodec,
    decode_body,
    decode_message,
    encode_body,
    encode_message,
    pack_bits,
    unpack_bits,
)
from repro.errors import ProtocolError
from repro.framebuffer.framebuffer import FrameBuffer
from repro.framebuffer.painter import PaintKind, PaintOp, Painter
from repro.framebuffer.regions import Rect

SEEDS = [3, 11, 2024]


def _random_rect(rng, max_w=80, max_h=60) -> Rect:
    return Rect(
        int(rng.integers(0, 200)),
        int(rng.integers(0, 200)),
        int(rng.integers(1, max_w + 1)),
        int(rng.integers(1, max_h + 1)),
    )


def _random_color(rng):
    return tuple(int(v) for v in rng.integers(0, 256, size=3))


def _random_command(rng) -> cmd.Command:
    """One random message drawn from every opcode the codec speaks."""
    kind = int(rng.integers(0, 11))
    if kind == 0:
        rect = _random_rect(rng, 48, 40)
        data = rng.integers(0, 256, size=(rect.h, rect.w, 3), dtype=np.uint8)
        return cmd.SetCommand(rect=rect, data=data)
    if kind == 1:
        rect = _random_rect(rng, 70, 40)  # odd widths exercise row padding
        bitmap = rng.random((rect.h, rect.w)) < float(rng.random())
        return cmd.BitmapCommand(
            rect=rect, fg=_random_color(rng), bg=_random_color(rng), bitmap=bitmap
        )
    if kind == 2:
        return cmd.FillCommand(rect=_random_rect(rng), color=_random_color(rng))
    if kind == 3:
        rect = _random_rect(rng)
        return cmd.CopyCommand(
            rect=rect, src_x=int(rng.integers(0, 300)), src_y=int(rng.integers(0, 300))
        )
    if kind == 4:
        depth = int(rng.choice([16, 12, 8, 5]))
        src_w, src_h = int(rng.integers(2, 40)), int(rng.integers(2, 30))
        payload = bytes(
            rng.integers(
                0, 256, size=cmd.cscs_plane_bytes(src_w, src_h, depth), dtype=np.uint8
            )
        )
        return cmd.CscsCommand(
            rect=_random_rect(rng),
            src_w=src_w,
            src_h=src_h,
            bits_per_pixel=depth,
            payload=payload,
        )
    if kind == 5:
        return cmd.KeyEvent(code=int(rng.integers(0, 1 << 16)), pressed=bool(rng.integers(2)))
    if kind == 6:
        return cmd.MouseEvent(
            x=int(rng.integers(0, 1 << 16)),
            y=int(rng.integers(0, 1 << 16)),
            buttons=int(rng.integers(0, 8)),
        )
    if kind == 7:
        return cmd.AudioData(nbytes=int(rng.integers(0, 4000)))
    if kind == 8:
        return cmd.StatusMessage(
            kind=int(rng.integers(0, 5)), value=int(rng.integers(0, 1 << 32))
        )
    if kind == 9:
        return cmd.BandwidthRequest(
            client_id=int(rng.integers(0, 1 << 32)),
            bits_per_second=float(rng.integers(0, 1 << 20)) * 1000.0,
        )
    return cmd.BandwidthGrant(
        client_id=int(rng.integers(0, 1 << 32)),
        bits_per_second=float(rng.integers(0, 1 << 20)) * 1000.0,
    )


def _assert_commands_equal(a: cmd.Command, b: cmd.Command) -> None:
    assert type(a) is type(b)
    assert a.opcode == b.opcode
    if isinstance(a, cmd.SetCommand):
        assert a.rect == b.rect
        if a.data is None:
            assert not b.data.any()
        else:
            assert np.array_equal(a.data, b.data)
    elif isinstance(a, cmd.BitmapCommand):
        assert (a.rect, a.fg, a.bg) == (b.rect, b.fg, b.bg)
        if a.bitmap is None:
            assert not b.bitmap.any()
        else:
            assert np.array_equal(a.bitmap, b.bitmap)
    elif isinstance(a, cmd.CscsCommand):
        assert (a.rect, a.src_w, a.src_h, a.bits_per_pixel) == (
            b.rect,
            b.src_w,
            b.src_h,
            b.bits_per_pixel,
        )
        if a.payload is None:
            assert not any(bytes(b.payload))
        else:
            assert bytes(a.payload) == bytes(b.payload)
    elif isinstance(a, cmd.AudioData):
        assert a.nbytes == b.nbytes
    else:
        assert a == b


class TestBodyRoundtripFuzz:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_opcode_roundtrips(self, seed):
        rng = np.random.default_rng(seed)
        seen = set()
        for _ in range(120):
            original = _random_command(rng)
            seen.add(original.opcode)
            body = encode_body(original)
            assert len(body) == original.payload_nbytes()
            decoded = decode_body(original.opcode, bytes(body))
            _assert_commands_equal(original, decoded)
        assert seen == set(Opcode), "fuzzer failed to cover every opcode"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_message_roundtrips(self, seed):
        rng = np.random.default_rng(seed)
        for index in range(60):
            original = _random_command(rng)
            blob = encode_message(original, seq=index)
            assert len(blob) == wire.HEADER_BYTES + original.payload_nbytes()
            decoded, seq = decode_message(blob)
            assert seq == index
            _assert_commands_equal(original, decoded)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fragment_reassembly_out_of_order(self, seed):
        rng = np.random.default_rng(seed)
        tx, rx = WireCodec(), WireCodec()
        for _ in range(40):
            original = _random_command(rng)
            frags = tx.fragment(original)
            order = rng.permutation(len(frags))
            results = [rx.accept(frags[i]) for i in order]
            completed = [r for r in results if r is not None]
            assert len(completed) == 1
            decoded, seq = completed[0]
            assert seq == frags[0].seq
            _assert_commands_equal(original, decoded)
        assert rx.pending_messages() == 0

    def test_accounting_only_payloads_are_zero_filled(self):
        messages = [
            cmd.SetCommand(rect=Rect(1, 2, 9, 7)),
            cmd.BitmapCommand(rect=Rect(0, 0, 13, 5), fg=(1, 2, 3), bg=(4, 5, 6)),
            cmd.CscsCommand(rect=Rect(0, 0, 16, 8), bits_per_pixel=8),
            cmd.AudioData(nbytes=33),
        ]
        for message in messages:
            body = encode_body(message)
            assert len(body) == message.payload_nbytes()
            decoded = decode_body(message.opcode, bytes(body))
            _assert_commands_equal(message, decoded)


class TestBitPackingEdgeCases:
    def test_count_zero_roundtrip(self):
        for bits in range(1, 9):
            packed = pack_bits(np.zeros(0, dtype=np.uint8), bits)
            assert packed == b""
            out = unpack_bits(b"", 0, bits)
            assert out.shape == (0,)
            assert out.dtype == np.uint8

    def test_bits_eight_is_passthrough(self, rng):
        values = rng.integers(0, 256, size=257, dtype=np.uint8)
        packed = pack_bits(values, 8)
        assert packed == values.tobytes()
        out = unpack_bits(packed, 257, 8)
        assert out.dtype == np.uint8
        assert np.array_equal(out, values)

    def test_unpack_ignores_trailing_bytes(self, rng):
        values = rng.integers(0, 8, size=21, dtype=np.uint8)
        packed = pack_bits(values, 3) + b"\xff\xff"
        assert np.array_equal(unpack_bits(packed, 21, 3), values)

    def test_multidimensional_input_flattens(self, rng):
        values = rng.integers(0, 4, size=(6, 7), dtype=np.uint8)
        packed = pack_bits(values, 2)
        assert np.array_equal(unpack_bits(packed, 42, 2), values.ravel())


def _paint_corpus(fb: FrameBuffer, rng: np.random.Generator, rounds: int) -> None:
    """Deposit a mixed workload (flat, text, noise) onto ``fb``."""
    painter = Painter(fb)
    for index in range(rounds):
        choice = int(rng.integers(0, 4))
        rect = Rect(
            int(rng.integers(0, fb.width - 32)),
            int(rng.integers(0, fb.height - 32)),
            int(rng.integers(8, 96)),
            int(rng.integers(8, 96)),
        ).intersect(fb.bounds)
        if rect.empty:
            continue
        if choice == 0:
            fb.fill(rect, _random_color(rng))
        elif choice == 1:
            painter.apply(
                PaintOp(
                    PaintKind.TEXT,
                    rect,
                    fg=_random_color(rng),
                    bg=_random_color(rng),
                    seed=index,
                )
            )
        elif choice == 2:
            fb.blit(
                rect, rng.integers(0, 256, size=(rect.h, rect.w, 3), dtype=np.uint8)
            )
        else:
            # Two-color checkerboard: exercises the bicolor probe on
            # tiles the text synthesiser never produces.
            block = np.zeros((rect.h, rect.w, 3), dtype=np.uint8)
            block[::2, ::2] = _random_color(rng)
            fb.blit(rect, block)
    fb.drain_damage()


class TestEncodeDamageEquivalence:
    """The vectorized pixel-diff path must emit the scalar reference's
    exact command stream (same order, same payloads) on a seeded corpus."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("tile", [16, 24, 64])
    def test_vectorized_matches_scalar_reference(self, seed, tile):
        rng = np.random.default_rng(seed)
        fb = FrameBuffer(200, 150)
        _paint_corpus(fb, rng, rounds=24)
        encoder = SlimEncoder(config=EncoderConfig(tile_w=tile, tile_h=tile))
        damage = [
            fb.bounds,
            Rect(3, 5, 150, 100),
            Rect(190, 140, 50, 50),  # clipped at both edges
            Rect(0, 0, tile - 1, tile + 1),  # off-grid tile sizes
        ]
        fast = encoder.encode_damage(fb, damage)
        reference = encoder.encode_damage_scalar(fb, damage)
        assert len(fast) == len(reference)
        for a, b in zip(fast, reference):
            _assert_commands_equal(b, a)

    @pytest.mark.parametrize("use_fill,use_bitmap", [(False, True), (True, False), (False, False)])
    def test_equivalence_under_ablation(self, use_fill, use_bitmap):
        rng = np.random.default_rng(99)
        fb = FrameBuffer(128, 96)
        _paint_corpus(fb, rng, rounds=12)
        encoder = SlimEncoder(
            config=EncoderConfig(use_fill=use_fill, use_bitmap=use_bitmap, tile_w=32, tile_h=32)
        )
        fast = encoder.encode_damage(fb, [fb.bounds])
        reference = encoder.encode_damage_scalar(fb, [fb.bounds])
        assert len(fast) == len(reference)
        for a, b in zip(fast, reference):
            _assert_commands_equal(b, a)


# -- corrupt input: decoded or refused, in bounded memory --------------------

#: What a receiver may allocate while it reads corrupt datagrams: this
#: multiple of the bytes it was handed (a BITMAP body unpacks to one
#: byte per bit) plus this many bytes (objects per datagram, numpy's
#: first calls).
ALLOC_PER_INPUT_BYTE = 16
ALLOC_CONSTANT = 64 * 1024

#: One mutation of the datagram stream: (how, which datagram, where,
#: what).  ``flip`` xors a byte, ``set`` overwrites one, ``cut``
#: truncates the datagram there, ``junk`` appends bytes, ``dup`` sends
#: it twice and ``swap`` trades it with its neighbour.
_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(("flip", "set", "cut", "junk", "dup", "swap")),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
        st.integers(1, 255),
    ),
    max_size=6,
)

#: A stream: the datagrams of 1-4 drawn messages (by ``_random_command``
#: seed), mutated, plus datagrams of drawn bytes.
_DATAGRAM_STREAMS = st.fixed_dictionaries(
    {
        "messages": st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        "mutations": _MUTATIONS,
        "noise": st.lists(st.binary(max_size=48), max_size=3),
    }
)


def _mutated_stream(drawn):
    tx = WireCodec()
    stream = [
        bytearray(datagram.to_bytes())
        for message_seed in drawn["messages"]
        for datagram in tx.fragment(_random_command(np.random.default_rng(message_seed)))
    ]
    for how, which, where, value in drawn["mutations"]:
        which %= len(stream)
        data = stream[which]
        if how == "flip" and data:
            data[where % len(data)] ^= value
        elif how == "set" and data:
            data[where % len(data)] = value
        elif how == "cut":
            del data[where % (len(data) + 1) :]
        elif how == "junk":
            data.extend(bytes([value]) * (where % 64))
        elif how == "dup":
            stream.insert(which, bytearray(data))
        elif how == "swap" and which + 1 < len(stream):
            stream[which], stream[which + 1] = stream[which + 1], data
    return [bytes(data) for data in stream + drawn["noise"]]


@seed(1999)
@settings(deadline=None)
@given(drawn=_DATAGRAM_STREAMS)
def test_a_corrupt_datagram_decodes_or_is_refused_in_bounded_memory(drawn):
    """Every datagram a receiver reads, whatever its bytes, yields a
    command, yields nothing yet, or raises :class:`ProtocolError` — no
    other exception — and reading the whole stream allocates at most
    :data:`ALLOC_PER_INPUT_BYTE` times its bytes plus
    :data:`ALLOC_CONSTANT`: a header cannot make the receiver allocate
    what it claims rather than what it was sent."""
    stream = _mutated_stream(drawn)
    rx = WireCodec()
    outcomes = []
    tracemalloc.start()
    try:
        for data in stream:
            try:
                out = rx.accept(Datagram.from_bytes(data))
            except ProtocolError:
                outcomes.append("refused")
                continue
            if out is None:
                outcomes.append(None)
            else:
                command, seq = out
                assert isinstance(command, cmd.Command) and isinstance(seq, int)
                outcomes.append(command.opcode)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outcomes) == len(stream)
    budget = ALLOC_PER_INPUT_BYTE * sum(map(len, stream)) + ALLOC_CONSTANT
    assert peak <= budget, (peak, budget)
