"""Landmark tests: the paper's headline claims must reproduce.

These run the experiment machinery at reduced scale (fewer simulated
users, shorter simulations) and assert the *shape* results DESIGN.md
section 4 commits to.  ``python -m repro.experiments`` regenerates the
default-scale tables (RESULTS.md), and ``--users 50`` the paper's
50-user studies.
"""

import numpy as np
import pytest

from repro.analysis.stats import crossing
from repro.experiments import fig9, fig10, fig11, userstudy
from repro.experiments.fig2 import frequency_cdfs
from repro.experiments.fig3 import pixel_cdfs
from repro.experiments.fig4 import command_breakdown
from repro.experiments.fig5 import bytes_cdfs
from repro.experiments.fig6 import added_delay_cdfs
from repro.experiments.fig7 import service_time_cdfs
from repro.experiments.fig8 import bandwidth_table
from repro.experiments.ablations import (
    allocator_ablation,
    cscs_depth_ablation,
    encoder_ablation,
    mtu_ablation,
    priority_scheduler_ablation,
    push_pull_ablation,
    quantum_ablation,
)
from repro.experiments.fig9 import POOR_THRESHOLD, yardstick_latency
from repro.experiments.fig11 import POOR_RTT, yardstick_rtt
from repro.experiments.multimedia import (
    mpeg2_pipeline,
    ntsc_pipeline,
    quake_pipeline,
)
from repro.experiments.table4 import run_echo, EMACS_APP_SECONDS
from repro.workloads.apps import BENCHMARK_APPS, NETSCAPE, PIM
from repro.workloads.quake import QUAKE_FULL, QUAKE_QUARTER, QUAKE_THREE_QUARTER

# Small-but-sufficient study size shared (memoised) across these tests.
N = 6
DUR = 300.0

# The sharing sweeps over all four applications draw on a larger study
# (8 users of the default 600 s); the CPU sweeps simulate 45 s a point.
SWEEP_USERS = 8
SWEEP_SECONDS = 45.0


def studies():
    return userstudy.all_studies(n_users=N, duration=DUR)


class TestTable4:
    def test_echo_rtt_sub_millisecond(self):
        echo = run_echo()
        assert 300e-6 < echo.total_seconds < 900e-6

    def test_network_share_negligible(self):
        echo = run_echo()
        assert echo.network_seconds < 0.2 * echo.total_seconds

    def test_emacs_path_slower(self):
        emacs = run_echo(app_seconds=EMACS_APP_SECONDS)
        assert 3e-3 < emacs.total_seconds < 5e-3


class TestFig2Landmarks:
    @pytest.fixture(scope="class")
    def cdfs(self):
        return frequency_cdfs(n_users=N, duration=DUR)

    def test_under_one_percent_above_28hz(self, cdfs):
        for name, cdf in cdfs.items():
            assert cdf.fraction_above(28.0) < 0.01, name

    def test_roughly_70_percent_below_10hz(self, cdfs):
        for name, cdf in cdfs.items():
            assert 0.60 < cdf.fraction_below(10.0) < 0.92, name

    def test_image_apps_less_interactive(self, cdfs):
        def slow(name):
            return cdfs[name].fraction_below(1.0)  # >=1s gaps
        assert slow("Photoshop") > 1.5 * slow("FrameMaker")
        assert slow("Netscape") > 1.5 * slow("PIM")


class TestFig3Landmarks:
    @pytest.fixture(scope="class")
    def cdfs(self):
        return pixel_cdfs(n_users=N, duration=DUR)

    def test_half_of_events_small(self, cdfs):
        for name, cdf in cdfs.items():
            assert cdf.fraction_below(10_000) > 0.45, name

    def test_text_apps_rarely_big(self, cdfs):
        for name in ("FrameMaker", "PIM"):
            assert cdfs[name].fraction_above(10_000) < 0.25, name

    def test_image_apps_thirty_percent_above_50k(self, cdfs):
        for name in ("Photoshop", "Netscape"):
            assert 0.15 < cdfs[name].fraction_above(50_000) < 0.45, name

    def test_netscape_more_demanding_than_photoshop(self, cdfs):
        assert cdfs["Netscape"].fraction_above(50_000) > cdfs[
            "Photoshop"
        ].fraction_above(50_000)


class TestFig4Landmarks:
    @pytest.fixture(scope="class")
    def breakdown(self):
        return command_breakdown(n_users=N, duration=DUR)

    def test_photoshop_compresses_least(self, breakdown):
        comp = {name: entry["compression"] for name, entry in breakdown.items()}
        assert comp["Photoshop"] == min(comp.values())
        assert 1.5 < comp["Photoshop"] < 5.0

    def test_others_compress_tenfold(self, breakdown):
        for name in ("Netscape", "FrameMaker", "PIM"):
            assert breakdown[name]["compression"] >= 8.0, name

    def test_fill_removes_40_to_75_percent(self, breakdown):
        for name, entry in breakdown.items():
            pixels_by = entry["pixels_by_opcode"]
            share = pixels_by.get("FILL", 0) / sum(pixels_by.values())
            assert 0.30 < share < 0.75, name

    def test_photoshop_bytes_dominated_by_set(self, breakdown):
        payload = breakdown["Photoshop"]["payload_by_opcode"]
        assert payload["SET"] / sum(payload.values()) > 0.9

    def test_cscs_unused_by_gui_apps(self, breakdown):
        for entry in breakdown.values():
            assert "CSCS" not in entry["payload_by_opcode"]


class TestFig5Landmarks:
    @pytest.fixture(scope="class")
    def cdfs(self):
        return bytes_cdfs(n_users=N, duration=DUR)

    def test_image_apps_quarter_above_10kb(self, cdfs):
        for name in ("Photoshop", "Netscape"):
            assert 0.10 < cdfs[name].fraction_above(10_000) < 0.35, name

    def test_image_apps_small_tail_above_50kb(self, cdfs):
        for name in ("Photoshop", "Netscape"):
            assert cdfs[name].fraction_above(50_000) < 0.15, name

    def test_text_apps_tiny(self, cdfs):
        for name in ("FrameMaker", "PIM"):
            assert cdfs[name].fraction_above(1_000) < 0.25, name
            assert cdfs[name].fraction_above(10_000) < 0.03, name


class TestFig6Landmarks:
    @pytest.fixture(scope="class")
    def cdfs(self):
        return added_delay_cdfs(n_users=3)

    def test_10mbps_indistinguishable(self, cdfs):
        cdf = cdfs["10Mbps"]
        assert cdf.percentile(75) < 0.005
        assert cdf.fraction_above(0.005) < 0.15

    def test_1_2mbps_noticeable_but_acceptable(self, cdfs):
        assert 0.001 < cdfs["2Mbps"].median < 0.120
        assert cdfs["2Mbps"].fraction_above(0.100) < 0.55

    def test_modem_speeds_unacceptable(self, cdfs):
        for name in ("128Kbps", "56Kbps"):
            assert cdfs[name].fraction_above(0.100) > 0.8, name

    def test_monotone_in_bandwidth(self, cdfs):
        medians = [cdfs[n].median for n in ("10Mbps", "2Mbps", "1Mbps", "128Kbps", "56Kbps")]
        assert medians == sorted(medians)

    def test_56kbps_nearly_all_above_100ms(self):
        cdfs = added_delay_cdfs(n_users=4)
        assert cdfs["56Kbps"].fraction_above(0.100) > 0.9


class TestFig7Landmarks:
    @pytest.fixture(scope="class")
    def cdfs(self):
        return service_time_cdfs(n_users=N, duration=DUR)

    def test_service_time_below_perception(self, cdfs):
        for name, cdf in cdfs.items():
            assert cdf.fraction_below(0.050) > 0.80, name

    def test_only_large_updates_exceed_100ms(self, cdfs):
        for name, cdf in cdfs.items():
            assert cdf.fraction_above(0.100) < 0.05, name


class TestFig8Landmarks:
    @pytest.fixture(scope="class")
    def table(self):
        return bandwidth_table(n_users=N, duration=DUR)

    def test_slim_beats_x_on_image_apps(self, table):
        for name in ("Photoshop", "Netscape"):
            assert table[name]["x"] > 1.2 * table[name]["slim"], name

    def test_x_competitive_on_text_apps(self, table):
        for name in ("FrameMaker", "PIM"):
            assert table[name]["x"] < 1.5 * table[name]["slim"], name

    def test_order_of_magnitude_between_classes(self, table):
        image = min(table["Photoshop"]["slim"], table["Netscape"]["slim"])
        text = max(table["FrameMaker"]["slim"], table["PIM"]["slim"])
        assert image > 5 * text

    def test_raw_is_worst_everywhere(self, table):
        for name, bw in table.items():
            assert bw["raw"] > bw["slim"], name
            assert bw["raw"] > bw["x"], name


class TestFig9Landmarks:
    def test_unloaded_yardstick_near_zero(self):
        _t, profiles = userstudy.get_study(PIM, n_users=N, duration=DUR)
        added = yardstick_latency(profiles, n_users=0, sim_seconds=30.0)
        assert added < 0.005

    def test_crossings_ordered_by_app_weight(self):
        curves = {}
        for name, sweep in (("Netscape", (6, 12, 16)), ("PIM", (20, 32, 42))):
            app = BENCHMARK_APPS[name]
            curves[name] = crossing(
                [(n, fig9.latency_at(app, n, 45.0, N)) for n in sweep],
                POOR_THRESHOLD,
            )
        assert curves["Netscape"] is not None and curves["PIM"] is not None
        assert curves["PIM"] > 1.4 * curves["Netscape"]

    def test_netscape_crossing_near_paper(self):
        app = BENCHMARK_APPS["Netscape"]
        users = crossing(
            [(n, fig9.latency_at(app, n, 60.0, N)) for n in (8, 11, 14, 17)],
            POOR_THRESHOLD,
        )
        assert users is not None
        assert 9 <= users <= 18  # paper: 12-14

    def test_oversubscription_tolerated(self):
        """At the 100ms point the CPU demand exceeds the machine."""
        _t, profiles = userstudy.get_study(NETSCAPE, n_users=N, duration=DUR)
        demand = 13 * float(np.mean([p.mean_cpu() for p in profiles]))
        assert demand > 1.0

    def test_more_cpus_do_better_at_equal_load(self):
        _t, profiles = userstudy.get_study(NETSCAPE, n_users=N, duration=DUR)
        one = yardstick_latency(profiles, 8, num_cpus=1, sim_seconds=45.0)
        four = yardstick_latency(profiles, 32, num_cpus=4, sim_seconds=45.0)
        assert four < one

    def test_every_crossing_near_its_paper_band(self):
        crossings = {
            name: crossing(
                [
                    (n, fig9.latency_at(app, n, SWEEP_SECONDS, SWEEP_USERS))
                    for n in fig9.DEFAULT_SWEEPS[name]
                ],
                POOR_THRESHOLD,
            )
            for name, app in BENCHMARK_APPS.items()
        }
        for name, users in crossings.items():
            lo, hi = fig9.PAPER_RANGES[name]
            assert users is not None, name
            assert 0.5 * lo <= users <= 1.75 * hi, (name, users)
        assert crossings["PIM"] > crossings["FrameMaker"]
        assert crossings["FrameMaker"] > 0.9 * crossings["Netscape"]


class TestFig10Landmarks:
    def test_eight_cpus_never_worse_than_one(self):
        _t, profiles = userstudy.get_study(NETSCAPE, n_users=SWEEP_USERS)
        for per_cpu in fig10.DEFAULT_USERS_PER_CPU:
            one, eight = (
                yardstick_latency(
                    profiles, per_cpu * cpus, num_cpus=cpus, sim_seconds=SWEEP_SECONDS
                )
                for cpus in (1, 8)
            )
            assert eight < 1.1 * one, per_cpu


class TestFig11Landmarks:
    def test_unloaded_rtt_sub_millisecond(self):
        _t, profiles = userstudy.get_study(PIM, n_users=N, duration=DUR)
        rtt, loss = yardstick_rtt(profiles, n_users=0, sim_seconds=10.0)
        assert rtt < 0.001
        assert loss == 0.0

    def test_network_supports_order_of_magnitude_more_users(self):
        app = BENCHMARK_APPS["Netscape"]
        users = crossing(
            [(n, fig11.rtt_at(app, n, 25.0, N)) for n in (60, 110, 150)],
            POOR_RTT,
        )
        # CPU crossing is ~12; network must be >= ~5x that even in the
        # reduced-scale run.
        assert users is None or users > 60

    def test_text_apps_sustain_over_twice_the_image_apps(self):
        sweeps = {"Photoshop": (60, 100, 140), "Netscape": (60, 110, 150),
                  "FrameMaker": (200, 350, 470), "PIM": (200, 380, 500)}  # fmt: skip
        crossings = {
            name: crossing(
                [(n, fig11.rtt_at(app, n, 20.0, SWEEP_USERS)) for n in sweeps[name]],
                POOR_RTT,
            )
            for name, app in BENCHMARK_APPS.items()
        }
        image = [crossings[n] for n in ("Photoshop", "Netscape") if crossings[n] is not None]
        text = [crossings[n] for n in ("FrameMaker", "PIM") if crossings[n] is not None]
        assert image, crossings
        assert min(image) > 50  # vs ~12 users on the CPU
        if text:
            assert max(text) > 2 * min(image), crossings


class TestAblations:
    def test_every_disabled_command_inflates_the_encoding(self):
        rows = dict(encoder_ablation())
        for name, nbytes in rows.items():
            if name != "full":
                assert nbytes > rows["full"], name
        assert rows["SET only"] > 5 * rows["full"]

    def test_lower_cscs_depth_trades_quality_for_bytes_and_speed(self):
        rows = cscs_depth_ablation()
        for a, b in zip(rows, rows[1:]):
            assert a["KB/frame"] > b["KB/frame"]
            assert a["console max fps"] < b["console max fps"]
            assert a["PSNR dB"] >= b["PSNR dB"] - 0.5

    def test_allocator_protects_interactive_traffic(self):
        result = allocator_ablation()
        with_alloc = result["with allocator"]["interactive Mbps"]
        assert with_alloc > result["without"]["interactive Mbps"]
        assert with_alloc == 2.0  # fully satisfied

    def test_pull_ships_more_bytes_and_adds_latency(self):
        result = push_pull_ablation()
        slim, vnc = result["SLIM push"], result["VNC pull"]
        assert vnc["bytes/update"] > 2 * slim["bytes/update"]
        assert vnc["added latency ms"] > 10  # the polling penalty

    def test_quantum_moves_yardstick_latency(self):
        latencies = [latency for _quantum, latency in quantum_ablation()]
        assert max(latencies) > 1.2 * min(latencies)

    def test_priority_scheduler_guarantees_interactivity(self):
        result = priority_scheduler_ablation()
        assert result["priority"] < 0.5 * result["round-robin"]

    def test_header_overhead_falls_with_mtu(self):
        overheads = [overhead for _mtu, overhead in mtu_ablation()]
        assert overheads == sorted(overheads, reverse=True)


class TestMultimediaLandmarks:
    def test_mpeg_server_bound_near_20hz(self):
        result = mpeg2_pipeline()
        assert result.bottleneck == "server"
        assert 17 <= result.fps <= 24
        assert 30e6 < result.bandwidth_bps < 55e6

    def test_mpeg_interlace_raises_rate_and_halves_bandwidth(self):
        full = mpeg2_pipeline()
        half = mpeg2_pipeline(interlace=True)
        assert half.fps > full.fps
        assert half.bandwidth_bps < 0.75 * full.bandwidth_bps

    def test_ntsc_single_server_bound(self):
        result = ntsc_pipeline()
        assert result.bottleneck == "server"
        assert 14 <= result.fps <= 22

    def test_ntsc_parallel_console_bound(self):
        result = ntsc_pipeline(instances=4, half_size=True)
        assert result.bottleneck == "console"
        assert 22 <= result.fps <= 34

    def test_quake_full_res(self):
        result = quake_pipeline(QUAKE_FULL, scene_complexity=0.3)
        assert 16 <= result.fps <= 23
        assert result.bottleneck == "server"

    def test_quake_three_quarter_playable(self):
        result = quake_pipeline(QUAKE_THREE_QUARTER, scene_complexity=0.3)
        assert 26 <= result.fps <= 37

    def test_quake_parallel_console_bound(self):
        result = quake_pipeline(QUAKE_QUARTER, instances=4)
        assert result.bottleneck == "console"
        assert 30 <= result.fps <= 44

    def test_resolution_scaling_monotone(self):
        fps = [
            quake_pipeline(cfg, scene_complexity=0.5).fps
            for cfg in (QUAKE_FULL, QUAKE_THREE_QUARTER, QUAKE_QUARTER)
        ]
        assert fps == sorted(fps)


class TestWanMatrixLandmarks:
    def test_registered(self):
        import repro.experiments.wan_matrix  # noqa: F401  (registers)
        from repro.experiments.runner import EXPERIMENTS

        assert "wan_matrix" in EXPERIMENTS

    def test_lan_columns_byte_identical_to_fig8(self):
        """The control row: same memoised studies, bit-for-bit equal."""
        from repro.experiments.wan_matrix import workload_demands

        table = bandwidth_table(n_users=N, duration=DUR)
        demands = workload_demands(
            n_users=N, duration=DUR, workloads=list(BENCHMARK_APPS)
        )
        for name, bw in table.items():
            assert demands[name]["x"] == bw["x"], name
            assert demands[name]["slim"] == bw["slim"], name
            assert demands[name]["raw"] == bw["raw"], name

    def test_busy_second_demand_exceeds_session_mean(self):
        from repro.experiments.wan_matrix import workload_demands

        demands = workload_demands(
            n_users=N, duration=DUR, workloads=["Netscape", "ScrollHeavy"]
        )
        for name, bw in demands.items():
            assert bw["demand"] > bw["slim"], name

    def test_lan_cell_rtt_sub_millisecond(self):
        from repro.experiments.wan_matrix import CellProbe
        from repro.netsim.profiles import get_profile

        probe = CellProbe(get_profile("lan"), 1e6, seconds=5.0).run()
        assert probe.yardstick.mean_rtt() < 0.001
        assert probe.downlink.stats.packets_dropped == 0

    def test_cellular_overload_bufferbloats_and_drops(self):
        """The adversity cell: the paper's fixed allocation, offered
        twice the downlink, stands a queue and tail-drops."""
        from repro.experiments.wan_matrix import CellProbe
        from repro.netsim.profiles import get_profile

        profile = get_profile("cellular")
        demand = 2.0 * profile.down_rate_bps  # well past the downlink
        probe = CellProbe(profile, demand, seconds=8.0).run()
        assert probe.downlink.stats.packets_dropped > 100
        # inf (no round answered) counts as past the bound
        assert probe.yardstick.mean_rtt() > 0.4
        assert probe.delivered_bps() < profile.down_rate_bps


class TestLossyFabricProfileCells:
    def test_profile_probe_reports_finite_rtt(self):
        from repro.experiments.lossy_fabric import yardstick_on_profile

        rtt, loss = yardstick_on_profile("wifi", sim_seconds=10.0)
        assert 0.005 < rtt < 0.050
        assert 0.0 <= loss < 0.3


class TestScalabilityVerdicts:
    def test_section_5_4_classification(self):
        from repro.experiments.scalability import verdicts

        result = verdicts(n_users=3)
        assert result["10Mbps"] == "indistinguishable"
        assert result["2Mbps"] == "acceptable"
        # 1Mbps is the boundary case (see the experiment's notes).
        assert result["1Mbps"] in ("acceptable", "painful")
        assert result["128Kbps"] == "painful"
        assert result["56Kbps"] == "painful"
