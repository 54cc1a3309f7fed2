"""The percentile rule, the digest, and ``--compare`` classification."""

import pytest

import metrics as m


@pytest.mark.parametrize(
    "n, expected",
    [
        (1000, 95),
        (200, 95),   # exactly ten samples beyond p95
        (199, 90),
        (100, 90),   # exactly ten beyond p90
        (99, 75),
        (40, 75),
        (39, 50),
        (12, 50),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert m.tail_percentile(n) == expected


def test_percentile_interpolates():
    assert m.percentile([1, 2, 3, 4, 5], 50) == 3
    assert m.percentile([0, 10], 95) == 9.5
    assert m.percentile([7], 95) == 7


def test_digest_ignores_simulator_work_and_host_numbers():
    counts = {
        "netsim.packets_offered": 10,
        "netsim.queue_delay_mean_sim_ms": 1.23456789,
        "netsim.events_fired": 600,
        "netsim.events_per_packet": 6.0,
        "host.gc_collections": 3,
    }
    stats = m.simulated_statistics(counts)
    assert stats == {
        "netsim.packets_offered": 10,
        "netsim.queue_delay_mean_sim_ms": 1.23457,
    }
    faster = dict(counts, **{"netsim.events_fired": 300, "netsim.events_per_packet": 3.0})
    assert m.digest(m.simulated_statistics(faster)) == m.digest(stats)
    changed = dict(counts, **{"netsim.packets_offered": 11})
    assert m.digest(m.simulated_statistics(changed)) != m.digest(stats)
    assert m.differing(stats, m.simulated_statistics(changed)) == [
        "netsim.packets_offered: 10 != 11"
    ]


def _metric(samples):
    import statistics

    return {"value": statistics.median(samples), "samples": samples}


def test_compare_boundary_is_not_a_regression():
    base = _metric([10.0, 10.0, 10.0])
    at_bound = m.classify(base, _metric([11.0, 11.0, 11.0]), "lower", 0.10)
    assert at_bound["status"] == "within-bound"
    beyond = m.classify(base, _metric([11.01, 11.01, 11.01]), "lower", 0.10)
    assert beyond["status"] == "regression"


def test_compare_direction():
    base = _metric([100.0, 100.0, 100.0])
    slower = _metric([80.0, 80.0, 80.0])
    assert m.classify(base, slower, "higher", 0.10)["status"] == "regression"
    assert m.classify(base, slower, "lower", 0.10)["status"] == "within-bound"


def test_noisy_pairing_is_unresolved_not_unchanged():
    base = _metric([8.0, 10.0, 12.0, 9.0, 11.0])
    change = _metric([8.5, 10.2, 12.5, 9.1, 11.3])
    verdict = m.classify(base, change, "lower", 0.10)
    assert verdict["spread"] > 0.10
    assert verdict["status"] == "unresolved"


def test_noisy_but_separated_pairing_is_resolved():
    base = _metric([8.0, 10.0, 12.0, 9.0, 11.0])
    change = _metric([5.0, 6.0, 7.0, 5.5, 6.5])
    assert m.classify(base, change, "lower", 0.10)["status"] == "within-bound"


def test_ops_counts_failures_by_name():
    runs = [
        {"checks": [{"name": "a", "ok": True, "detail": ""}]},
        {"checks": [{"name": "b", "ok": False, "detail": "why"}]},
    ]
    assert m.ops(runs) == {"attempted": 2, "failed": 1, "failures": ["b: why"]}


def _run(wall, probe_ms, slices):
    return {
        "timing": {
            "setup_wall_s": wall / 10, "run_wall_s": wall, "run_cpu_s": wall,
            "probe_ms": probe_ms, "user_sim_s": 100.0,
        },
        "slices_ms": slices,
        "peak_rss_mb": 64.0,
    }


def test_reference_seconds_cancel_a_uniformly_slower_host():
    quiet = _run(8.0, m.PROBE_REFERENCE_MS, [40.0, 50.0, 60.0])
    # The same work on a host half as fast: every clock reading doubles,
    # the probe's too.
    slow = _run(16.0, 2 * m.PROBE_REFERENCE_MS, [80.0, 100.0, 120.0])
    a, b = m.end_to_end([quiet]), m.end_to_end([slow])
    for name in ("setup_s", "run_ref_s", "user_sim_s_per_ref_s", "slice_ref_ms_p50"):
        assert a[name]["value"] == pytest.approx(b[name]["value"]), name
    assert a["run_ref_s"]["value"] == pytest.approx(8.0)
    assert b["host_speed"]["value"] == pytest.approx(0.5)
    assert b["run_wall_s"]["value"] == 16.0
    assert b["slice_wall_ms_p50"]["value"] == 100.0
    assert a["user_sim_s_per_ref_s"]["value"] == pytest.approx(12.5)


def test_a_real_slowdown_still_shows_in_reference_seconds():
    before = _run(8.0, m.PROBE_REFERENCE_MS, [40.0, 50.0, 60.0])
    after = _run(10.0, m.PROBE_REFERENCE_MS, [50.0, 62.5, 75.0])
    verdict = m.classify(
        m.end_to_end([before])["run_ref_s"],
        m.end_to_end([after])["run_ref_s"],
        "lower",
        0.2,
    )
    assert verdict["status"] == "regression"


def test_host_speed_probe_keeps_clear_of_the_collector():
    import gc

    import workloads

    section = workloads._TimedSection(workloads.BenchRun("x", seed=1))
    gc.collect()  # counts back to zero: the next collection is 700 objects away
    before = [generation["collections"] for generation in gc.get_stats()]
    for _ in range(50):
        section._probe()
    assert [generation["collections"] for generation in gc.get_stats()] == before
    assert gc.get_count()[0] < 100  # nothing tracked is left behind either
    assert gc.isenabled()
    gc.disable()
    try:
        section._probe()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert len(section._probe_s) == 51 and min(section._probe_s) > 0
