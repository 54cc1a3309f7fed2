"""Unit tests for workload models (input, display, apps, sessions)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.framebuffer import PaintKind
from repro.workloads.apps import BENCHMARK_APPS, FRAMEMAKER, NETSCAPE, PHOTOSHOP, PIM
from repro.workloads.display_model import (
    DisplayModel,
    SizeClass,
    UpdateArchetype,
)
from repro.workloads.input_model import MIN_INTERVAL, InputModel
from repro.workloads.session import UserSession, run_user_study


class TestInputModel:
    def make(self, **kw):
        defaults = dict(burst_weight=0.4, working_weight=0.4)
        defaults.update(kw)
        return InputModel(**defaults)

    def test_weights_validated(self):
        with pytest.raises(WorkloadError):
            InputModel(burst_weight=0.7, working_weight=0.5)
        with pytest.raises(WorkloadError):
            InputModel(burst_weight=-0.1, working_weight=0.5)

    def test_intervals_respect_floor(self, rng):
        model = self.make()
        for _ in range(500):
            assert model.sample_interval(rng) >= MIN_INTERVAL

    def test_session_events_sorted_and_bounded(self, rng):
        model = self.make()
        events = model.sample_session(rng, duration=120.0)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0 < t < 120 for t in times)

    def test_session_invalid_duration(self, rng):
        with pytest.raises(WorkloadError):
            self.make().sample_session(rng, duration=0)

    def test_key_fraction(self, rng):
        model = self.make(key_fraction=1.0)
        events = model.sample_session(rng, duration=60.0)
        assert all(e.kind == "key" for e in events)

    def test_mean_rate_close_to_analytic(self, rng):
        model = self.make()
        events = model.sample_session(rng, duration=2000.0)
        empirical = len(events) / 2000.0
        assert empirical == pytest.approx(model.mean_event_rate(), rel=0.25)

    def test_pause_weight_derived(self):
        model = self.make(burst_weight=0.3, working_weight=0.3)
        assert model.pause_weight == pytest.approx(0.4)


class TestSizeClassValidation:
    def test_shares_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            SizeClass("x", 1.0, 100, 0.5, (0.5, 0.5, 0.5, 0.5))

    def test_weights_must_sum_to_one(self):
        good = SizeClass("x", 0.6, 100, 0.5, (0.25, 0.25, 0.25, 0.25))
        with pytest.raises(WorkloadError):
            UpdateArchetype(classes=(good,))

    def test_negative_weight(self):
        with pytest.raises(WorkloadError):
            SizeClass("x", -0.5, 100, 0.5, (1.0, 0.0, 0.0, 0.0))

    def test_empty_archetype(self):
        with pytest.raises(WorkloadError):
            UpdateArchetype(classes=())

    def test_concentration_keeps_an_alpha_of_a_tenth(self):
        # Below 0.4 every alpha of an even mix is under 0.1, where numpy's
        # Dirichlet stops being the gamma construction the model draws.
        even = SizeClass("x", 1.0, 100, 0.5, (0.25, 0.25, 0.25, 0.25))
        UpdateArchetype(classes=(even,), content_concentration=0.4)
        with pytest.raises(WorkloadError):
            UpdateArchetype(classes=(even,), content_concentration=0.39)


class TestDisplayModel:
    def test_updates_fit_the_display(self, rng):
        model = PHOTOSHOP.display_model()
        for i in range(200):
            for op in model.sample_update(rng, seed=i):
                assert model.display_w >= op.rect.x2
                assert model.display_h >= op.rect.y2
                if op.src is not None:
                    assert model.display_w >= op.src.x2
                    assert model.display_h >= op.src.y2

    def test_update_never_empty(self, rng):
        model = PIM.display_model()
        for i in range(200):
            assert model.sample_update(rng, seed=i)

    def test_content_mix_reflects_shares(self, rng):
        """A text-dominated archetype produces mostly TEXT pixels."""
        archetype = UpdateArchetype(
            classes=(
                SizeClass("t", 1.0, 20_000, 0.3, (0.05, 0.90, 0.03, 0.02)),
            )
        )
        model = DisplayModel(archetype)
        pixels = {kind: 0 for kind in PaintKind}
        for i in range(100):
            for op in model.sample_update(rng, seed=i):
                pixels[op.kind] += op.rect.area
        total = sum(pixels.values())
        assert pixels[PaintKind.TEXT] / total > 0.6

    def test_expected_set_share_analytic(self):
        archetype = UpdateArchetype(
            classes=(
                SizeClass("a", 1.0, 10_000, 0.5, (0.0, 0.0, 0.0, 1.0), 0.25),
            )
        )
        assert archetype.expected_set_share() == pytest.approx(0.75)

    def test_mean_area_analytic(self):
        archetype = UpdateArchetype(
            classes=(SizeClass("a", 1.0, 10_000, 0.5, (1.0, 0.0, 0.0, 0.0)),)
        )
        expected = 10_000 * np.exp(0.5**2 / 2)
        assert archetype.expected_area() == pytest.approx(expected)


class TestAppProfiles:
    def test_all_four_benchmark_apps_present(self):
        assert set(BENCHMARK_APPS) == {"Photoshop", "Netscape", "FrameMaker", "PIM"}

    def test_cpu_means_match_paper(self):
        assert PHOTOSHOP.cpu_mean == pytest.approx(0.14)
        assert NETSCAPE.cpu_mean == pytest.approx(0.13)
        assert FRAMEMAKER.cpu_mean == pytest.approx(0.08)
        assert PIM.cpu_mean == pytest.approx(0.03)

    def test_image_apps_have_higher_set_share(self):
        image_share = PHOTOSHOP.archetype.expected_set_share()
        text_share = PIM.archetype.expected_set_share()
        assert image_share > 5 * text_share


class TestUserSession:
    def test_outputs_consistent(self):
        session = UserSession(NETSCAPE, duration=120.0, seed=3)
        trace, profile = session.run()
        assert trace.application == "Netscape"
        assert len(trace.updates) == len(trace.inputs)
        assert len(profile.cpu) == 24  # 120s / 5s
        assert all(0 <= u <= 1 for u in profile.cpu)
        assert profile.memory_mb > 0

    def test_deterministic_given_seed(self):
        t1, p1 = UserSession(PIM, duration=60.0, seed=9).run()
        t2, p2 = UserSession(PIM, duration=60.0, seed=9).run()
        assert len(t1.inputs) == len(t2.inputs)
        assert p1.cpu == p2.cpu
        assert [u.wire_bytes for u in t1.updates] == [u.wire_bytes for u in t2.updates]

    def test_different_seeds_differ(self):
        t1, _ = UserSession(PIM, duration=60.0, seed=1).run()
        t2, _ = UserSession(PIM, duration=60.0, seed=2).run()
        assert [u.wire_bytes for u in t1.updates] != [u.wire_bytes for u in t2.updates]

    def test_invalid_duration(self):
        with pytest.raises(WorkloadError):
            UserSession(PIM, duration=-5)

    def test_profile_mean_near_target(self):
        means = []
        for seed in range(6):
            _t, profile = UserSession(NETSCAPE, duration=300.0, seed=seed).run()
            means.append(profile.mean_cpu())
        assert np.mean(means) == pytest.approx(NETSCAPE.cpu_mean, rel=0.5)

    def test_run_user_study_shapes(self):
        traces, profiles = run_user_study(PIM, n_users=3, duration=60.0, seed=1)
        assert len(traces) == len(profiles) == 3
        assert len({t.user for t in traces}) == 3

    def test_run_user_study_validates(self):
        with pytest.raises(WorkloadError):
            run_user_study(PIM, n_users=0)


class TestProfilePersistence:
    def test_roundtrip(self, tmp_path):
        from repro.workloads.session import load_profiles, save_profiles

        _traces, profiles = run_user_study(PIM, n_users=2, duration=60.0, seed=4)
        path = tmp_path / "profiles.jsonl"
        save_profiles(profiles, path)
        loaded = load_profiles(path)
        assert len(loaded) == 2
        assert loaded[0].cpu == profiles[0].cpu
        assert loaded[0].net_bytes == profiles[0].net_bytes
        assert loaded[0].mean_bandwidth_bps() == profiles[0].mean_bandwidth_bps()

    def test_blank_lines_skipped(self, tmp_path):
        from repro.workloads.session import load_profiles, save_profiles

        _traces, profiles = run_user_study(PIM, n_users=1, duration=60.0, seed=4)
        path = tmp_path / "profiles.jsonl"
        save_profiles(profiles, path)
        path.write_text(path.read_text() + "\n")
        assert len(load_profiles(path)) == 1
