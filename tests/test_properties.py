"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import commands as cmd
from repro.core import cscs_codec
from repro.core.bandwidth import BandwidthAllocator
from repro.core.commands import cscs_plane_bytes
from repro.core.decoder import SlimDecoder
from repro.core.encoder import SlimEncoder
from repro.core.wire import (
    WireCodec,
    decode_message,
    encode_message,
    pack_bits,
    unpack_bits,
)
from repro.framebuffer import FrameBuffer, Rect
from repro.framebuffer.regions import tile_rect, union_bounds
from repro.framebuffer.yuv import CSCS_LADDER, bilinear_scale
from repro.analysis.cdf import Cdf

rects = st.builds(
    Rect,
    x=st.integers(0, 200),
    y=st.integers(0, 200),
    w=st.integers(0, 100),
    h=st.integers(0, 100),
)

nonempty_rects = st.builds(
    Rect,
    x=st.integers(0, 200),
    y=st.integers(0, 200),
    w=st.integers(1, 100),
    h=st.integers(1, 100),
)


class TestRectProperties:
    @given(a=rects, b=rects)
    def test_intersection_commutative(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(a=rects, b=rects)
    def test_intersection_contained_in_both(self, a, b):
        overlap = a.intersect(b)
        if not overlap.empty:
            assert a.contains_rect(overlap)
            assert b.contains_rect(overlap)

    @given(a=rects, b=rects)
    def test_union_bounds_contains_both(self, a, b):
        box = union_bounds([a, b])
        if box is None:
            assert a.empty and b.empty
        else:
            assert box.contains_rect(a)
            assert box.contains_rect(b)

    @given(rect=nonempty_rects, tw=st.integers(1, 40), th=st.integers(1, 40))
    def test_tiles_partition_the_rect(self, rect, tw, th):
        tiles = tile_rect(rect, tw, th)
        # Every pixel of the rect is covered by exactly one tile.
        coverage = np.zeros((rect.y2, rect.x2), dtype=np.int32)
        for t in tiles:
            assert rect.contains_rect(t)
            coverage[t.slices()] += 1
        assert (coverage[rect.slices()] == 1).all()


class TestBitPackingProperties:
    @given(
        bits=st.integers(1, 8),
        data=st.lists(st.integers(0, 255), min_size=0, max_size=300),
    )
    def test_pack_unpack_roundtrip(self, bits, data):
        values = np.array([v % (1 << bits) for v in data], dtype=np.uint8)
        packed = pack_bits(values, bits)
        assert len(packed) == (len(values) * bits + 7) // 8
        out = unpack_bits(packed, len(values), bits)
        assert np.array_equal(out, values)


class TestWireProperties:
    @given(
        x=st.integers(0, 1000),
        y=st.integers(0, 1000),
        w=st.integers(1, 64),
        h=st.integers(1, 64),
        r=st.integers(0, 255),
        g=st.integers(0, 255),
        b=st.integers(0, 255),
        seq=st.integers(0, 2**32 - 1),
    )
    def test_fill_roundtrip_any_geometry(self, x, y, w, h, r, g, b, seq):
        message = cmd.FillCommand(rect=Rect(x, y, w, h), color=(r, g, b))
        decoded, out_seq = decode_message(encode_message(message, seq))
        assert decoded == message
        assert out_seq == seq

    @settings(max_examples=25, deadline=None)
    @given(w=st.integers(1, 48), h=st.integers(1, 48), seed=st.integers(0, 100))
    def test_set_roundtrip_random_pixels(self, w, h, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        message = cmd.SetCommand(rect=Rect(0, 0, w, h), data=data)
        decoded, _ = decode_message(encode_message(message, 0))
        assert np.array_equal(decoded.data, data)

    @settings(max_examples=25, deadline=None)
    @given(
        w=st.integers(1, 200),
        h=st.integers(1, 80),
        seed=st.integers(0, 1000),
    )
    def test_fragmentation_reassembles_any_size(self, w, h, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        message = cmd.SetCommand(rect=Rect(0, 0, w, h), data=data)
        tx, rx = WireCodec(), WireCodec()
        frags = tx.fragment(message)
        order = rng.permutation(len(frags))
        result = None
        for index in order:
            out = rx.accept(frags[index])
            if out is not None:
                result = out
        assert result is not None
        assert np.array_equal(result[0].data, data)
        assert rx.pending_messages() == 0


class TestCscsProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        w=st.integers(1, 40),
        h=st.integers(1, 40),
        bpp=st.sampled_from(sorted(CSCS_LADDER)),
        seed=st.integers(0, 50),
    )
    def test_payload_size_model_exact(self, w, h, bpp, seed):
        rng = np.random.default_rng(seed)
        rgb = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        payload = cscs_codec.encode_frame(rgb, bpp)
        assert len(payload) == cscs_plane_bytes(w, h, bpp)
        decoded = cscs_codec.decode_frame(payload, w, h, bpp)
        assert decoded.shape == rgb.shape

    @settings(max_examples=20, deadline=None)
    @given(
        w=st.integers(2, 30),
        h=st.integers(2, 30),
        value=st.integers(0, 255),
        bpp=st.sampled_from(sorted(CSCS_LADDER)),
    )
    def test_uniform_frames_stay_near_uniform(self, w, h, value, bpp):
        rgb = np.full((h, w, 3), value, dtype=np.uint8)
        decoded = cscs_codec.decode_frame(cscs_codec.encode_frame(rgb, bpp), w, h, bpp)
        spread = decoded.astype(int).max(axis=(0, 1)) - decoded.astype(int).min(axis=(0, 1))
        assert (spread <= 2).all()


class TestEncoderDecoderProperty:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_pixel_diff_encoding_always_faithful(self, seed):
        """Any framebuffer content survives encode_damage -> decode."""
        rng = np.random.default_rng(seed)
        fb = FrameBuffer(96, 64)
        # Random mix of fills, bicolor blocks, and noise.
        for _ in range(int(rng.integers(1, 6))):
            kind = int(rng.integers(0, 3))
            x, y = int(rng.integers(0, 80)), int(rng.integers(0, 48))
            w, h = int(rng.integers(1, 17)), int(rng.integers(1, 17))
            if kind == 0:
                fb.fill(Rect(x, y, w, h), tuple(int(v) for v in rng.integers(0, 256, 3)))
            elif kind == 1:
                bitmap = rng.random((h, w)) < 0.5
                fb.expand_bitmap(Rect(x, y, w, h), bitmap, (0, 0, 0), (255, 255, 255))
            else:
                fb.blit(
                    Rect(x, y, w, h),
                    rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8),
                )
        commands = SlimEncoder().encode_damage(fb, [fb.bounds])
        replica = FrameBuffer(96, 64)
        SlimDecoder(replica).apply_all(commands)
        assert fb.equals(replica)


class TestAllocatorProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.floats(1e6, 1e9),
        requests=st.lists(st.floats(0, 2e8), min_size=1, max_size=12),
    )
    def test_invariants(self, capacity, requests):
        allocator = BandwidthAllocator(capacity)
        for client, rate in enumerate(requests):
            allocator.request(client, rate)
        total = 0.0
        for grant in allocator.grants():
            assert grant.granted_bps >= -1e-6
            assert grant.granted_bps <= grant.requested_bps + 1e-6
            total += grant.granted_bps
        assert total <= capacity + 1e-3
        # Work conservation: if anyone is unsatisfied, the capacity is
        # (almost) fully allocated.
        if any(not g.satisfied for g in allocator.grants()):
            assert total == pytest.approx(capacity, rel=1e-6)


class TestScalingProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        w=st.integers(1, 20),
        h=st.integers(1, 20),
        ow=st.integers(1, 40),
        oh=st.integers(1, 40),
        value=st.integers(0, 255),
    )
    def test_bilinear_preserves_constant_images(self, w, h, ow, oh, value):
        img = np.full((h, w, 3), value, dtype=np.uint8)
        out = bilinear_scale(img, ow, oh)
        assert out.shape == (oh, ow, 3)
        assert (out == value).all()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 100),
        ow=st.integers(1, 40),
        oh=st.integers(1, 40),
    )
    def test_bilinear_respects_range(self, seed, ow, oh):
        rng = np.random.default_rng(seed)
        img = rng.integers(50, 200, size=(10, 10, 3), dtype=np.uint8)
        out = bilinear_scale(img, ow, oh)
        assert out.min() >= 50
        assert out.max() <= 199


class TestCdfProperties:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_cdf_monotone_and_bounded(self, samples):
        cdf = Cdf(samples)
        lo = cdf.fraction_below(min(samples) - 1)
        mid = cdf.fraction_below(float(np.median(samples)))
        hi = cdf.fraction_below(max(samples) + 1)
        assert lo == 0.0
        assert hi == 1.0
        assert 0.0 <= mid <= 1.0
        assert cdf.fraction_below(0) + cdf.fraction_above(0) == pytest.approx(1.0)


class TestSchedulerProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        n_tasks=st.integers(1, 8),
        num_cpus=st.integers(1, 4),
        seed=st.integers(0, 100),
    )
    def test_work_conservation(self, n_tasks, num_cpus, seed):
        """CPU consumed never exceeds capacity, and all work completes
        when demand fits."""
        from repro.netsim.engine import Simulator
        from repro.server.scheduler import Scheduler, Task

        rng = np.random.default_rng(seed)

        class OneShot(Task):
            def __init__(self, name, burst):
                super().__init__(name)
                self.burst = burst
                self.done = False

            def start(self):
                self.scheduler.submit_burst(self, self.burst)

            def on_burst_complete(self, requested, elapsed):
                self.done = True

        sim = Simulator()
        scheduler = Scheduler(sim, num_cpus=num_cpus, quantum=0.01, context_switch=0.0)
        tasks = [
            OneShot(f"t{i}", float(rng.uniform(0.005, 0.1)))
            for i in range(n_tasks)
        ]
        for task in tasks:
            scheduler.spawn(task)
        sim.run()
        total_demand = sum(t.burst for t in tasks)
        consumed = sum(t.cpu_consumed for t in tasks)
        assert all(t.done for t in tasks)
        assert consumed == pytest.approx(total_demand, rel=1e-9)
        # Makespan bounds: at least demand/num_cpus, at most demand.
        assert sim.now >= total_demand / num_cpus - 1e-9
        assert sim.now <= total_demand + 0.011


class TestFlightRecorderTracerIsBounded:
    """``TraceCollector(retain=False)`` over arbitrarily long runs: a
    message lost in flight with nothing to supersede it (a status, an
    input event) never closes, so the open set must be bounded too."""

    @settings(max_examples=60, deadline=None)
    @given(
        max_recent=st.integers(1, 24),
        loss_rate=st.floats(0.0, 1.0),
        outage=st.integers(0, 120),
        seed=st.integers(0, 10_000),
    )
    def test_open_set_never_outgrows_max_recent(
        self, max_recent, loss_rate, outage, seed
    ):
        from repro.core.commands import StatusKind
        from repro.obs import TraceCollector

        tracer = TraceCollector(retain=False, max_recent=max_recent)
        reported = []
        tracer.completed_sink = reported.append
        rng = np.random.default_rng(seed)
        outage_at = max_recent  # a total outage, after some ordinary loss
        lost = []
        for seq in range(3 * max_recent + outage):
            key = ("console", "server", seq)
            message = cmd.StatusMessage(kind=StatusKind.FRONTIER, value=seq)
            tracer.message_sent(key, message, float(seq), wire_bytes=54)
            if outage_at <= seq < outage_at + outage or rng.random() < loss_rate:
                lost.append((key, message))
            else:
                tracer.reassembled(key, message, seq + 0.5)
            assert len(tracer.open_traces()) <= max_recent
            assert len(tracer.messages) <= max_recent
        # Pushed out means gone for good: a straggler arriving after its
        # trace left the open set completes nothing.
        still_open = {trace.key for trace in tracer.open_traces()}
        delivered = len(reported)
        for key, message in lost:
            tracer.reassembled(key, message, 1e6)
        late = reported[delivered:]
        assert {trace.key for trace in late} == still_open
        assert all(trace.completed for trace in reported)
        assert tracer.open_traces() == []
