"""``BENCHMARK.json`` against the contract and against what is printed."""

import json
import re
import subprocess
import sys
import time

import pytest

import metrics as m

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Printed and stored with the end-to-end metrics, but without a bound.
NOT_GATED = [
    "user_sim_s_per_ref_s", "host_speed", "setup_wall_s", "run_wall_s", "run_cpu_s",
    "user_sim_s_per_wall_s", "slice_wall_ms_p50", "slice_wall_ms_p95",
]


@pytest.fixture(scope="module")
def definitions():
    return m.load_definitions()


def test_shape(definitions):
    assert set(definitions) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert definitions["paths"] == ["bench"]
    assert definitions["command"] == ["python3", "bench/run.py"]
    assert 1 <= definitions["run_seconds"] <= 60
    assert 2 <= len(definitions["workloads"]) <= 8
    assert 1 <= len(definitions["end_to_end"]) <= 16
    assert 1 <= len(definitions["per_layer"]) <= 128
    # The driver's runs, each bounded by ``run_seconds`` plus the start
    # and the summary of ``run.py`` itself, inside its 57 minutes.
    runs = 4 + 22 * len(definitions["workloads"])
    assert runs * (definitions["run_seconds"] + 2) <= 3420


def test_names_units_and_bounds(definitions):
    names = []
    for workload in definitions["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in definitions["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in definitions["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in definitions["end_to_end"] + definitions["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    # The driver's contract: set-up time is bounded, with the widest bound.
    setup = [d for d in definitions["end_to_end"] if d["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(d["bound"] for d in definitions["end_to_end"])}
    ]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke --trace`` run, shared by the tests below."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(m.BENCH_DIR / "run.py"), "--smoke", "--trace"],
        cwd=m.ROOT, capture_output=True, text=True, timeout=170,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    path = re.search(r"results written to (\S+)", done.stdout).group(1)
    with open(m.ROOT / path, encoding="utf-8") as handle:
        return {"stdout": done.stdout, "document": json.load(handle), "elapsed": elapsed}


def test_smoke_is_quick(smoke):
    assert smoke["elapsed"] < 30


def test_every_defined_metric_is_printed_and_vice_versa(definitions, smoke):
    workloads = [w["name"] for w in definitions["workloads"]]
    assert list(smoke["document"]["workloads"]) == workloads
    end_to_end = [d["name"] for d in definitions["end_to_end"]]
    per_layer = [d["name"] for d in definitions["per_layer"]]
    for name, record in smoke["document"]["workloads"].items():
        assert list(record["end_to_end"]) == end_to_end + NOT_GATED, name
        assert list(record["per_layer"]) == per_layer, name
    printed = set(re.findall(r"^\s+([A-Za-z0-9_.-]+)\s+[-0-9.e+]+ ", smoke["stdout"], re.M))
    assert printed == set(end_to_end) | set(per_layer) | set(NOT_GATED) | {
        "ops_failed_frac"
    }


def test_no_op_fails_at_smoke_size(smoke):
    for name, record in smoke["document"]["workloads"].items():
        assert record["ops"]["failed"] == 0, record["ops"]["failures"]
        assert record["ops"]["attempted"] >= 1


def test_self_times_telescope_to_the_traced_wall_time(definitions, smoke):
    import layers

    for name, record in smoke["document"]["workloads"].items():
        per_layer = record["per_layer"]
        traced_wall = (
            per_layer["trace.overhead_ratio"]
            * record["end_to_end"]["run_wall_s"]["value"]
        )
        # The runner's shell runs outside the timed section: its self
        # time is a whole-process total and no part of this sum.
        attributed = sum(
            per_layer[f"{layer}.self_s"]
            for layer in layers.LAYERS
            if layer != "experiments"
        )
        assert attributed + per_layer["trace.unattributed_s"] == pytest.approx(
            traced_wall, rel=0.02
        ), name
        assert 0 <= per_layer["trace.unattributed_s"] <= 0.05 * traced_wall, name


def test_layers_that_do_no_work_record_none(smoke):
    workloads = smoke["document"]["workloads"]
    bare = workloads["fabric_knee_bare"]["per_layer"]
    assert bare["obs.hook_calls"] == 0
    assert bare["obs.self_s"] == 0
    for name in ("fabric_knee", "fabric_knee_bare"):
        for layer in ("framebuffer", "server", "core.encoder", "core.wire",
                      "transport", "console"):
            assert workloads[name]["per_layer"][f"{layer}.self_s"] == 0
    assert workloads["workgroup_session"]["per_layer"]["transport.recoveries"] == 0
    assert workloads["lossy_recovery"]["per_layer"]["transport.recoveries"] > 0
    assert workloads["fabric_knee"]["sha256"] == workloads["fabric_knee_bare"]["sha256"]
    # Both fabric paths tail-drop, and (the digests being equal) alike.
    assert workloads["fabric_knee"]["per_layer"]["netsim.packets_dropped"] > 0
    assert (
        workloads["fabric_knee"]["per_layer"]["netsim.events_per_packet"]
        > workloads["fabric_knee_bare"]["per_layer"]["netsim.events_per_packet"]
    )


#: Wrapped because they are public entry points of their layer, but not
#: on the path of any workload here.
NEVER_ENTERED = {
    # A console attached to a simulator decodes in its own timed finish
    # callback (``Console.enqueue`` -> ``SlimDecoder.apply``).
    "repro.console.console.Console.process",
    # No console queue overflows on these workloads.
    "repro.obs.causal.TraceCollector.command_dropped",
    # Traces reach a capture only when a post-mortem bundle is frozen.
    "repro.obs.capture.RingSlimcapWriter.trace",
}


def test_every_wrap_fires_on_some_workload(smoke):
    """A target that resolves can still be dead: a module that imported
    the function by name keeps calling the original."""
    import layers

    fired = set()
    for record in smoke["document"]["workloads"].values():
        fired.update(name for name, n in record["span_calls"].items() if n)
    targets = {path for _layer, path in layers.TARGETS + layers.FACTORY_TARGETS}
    assert targets - fired == NEVER_ENTERED
