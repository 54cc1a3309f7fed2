"""The run record: ``--record`` writes one ``.slimpm`` bundle of the
whole run, and every reader takes it through the one loader.

One seeded ``wan_matrix`` run is recorded once for the module: its
windows hold an occupied overflow bucket and two ``inf`` yardstick
gauges, which a strict JSON reader must still accept.
"""

import contextlib
import io
import json
import zipfile

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from repro.experiments.__main__ import main as runner_main
from repro.obs import load_bundle
from repro.obs.timeseries import TimeSeriesCollection
from repro.tools import postmortem


def _refuse(constant):
    raise ValueError(f"bare {constant} is not strict JSON")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    out = tmp_path_factory.mktemp("record")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = runner_main(
            ["--seed", "7", "--record", "--postmortem-dir", str(out), "wan_matrix"]
        )
    assert status == 0
    return out / "wan_matrix.slimpm", stdout.getvalue()


def test_the_run_is_one_bundle_beside_the_anomaly_bundles(recorded):
    path, stdout = recorded
    assert f"run record written to {path}" in stdout
    names = sorted(p.name for p in path.parent.iterdir())
    # The capture streamed beside it during the run is zipped and gone.
    assert names == [
        "wan_matrix-001.slimpm",
        "wan_matrix-002.slimpm",
        "wan_matrix-003.slimpm",
        "wan_matrix.slimpm",
    ]
    bundle = load_bundle(path)
    assert bundle.manifest["reason"]["kind"] == "record"
    assert len(bundle.manifest["triggers"]) >= 3
    counts = bundle.manifest["counts"]
    assert counts["windows"] == sum(
        1 for record in bundle.timeseries if record["type"] == "window"
    )
    assert counts["traces"] == len(bundle.traces)
    assert bundle.engine["marks"]
    assert list(bundle.ring.records()) == []


def test_every_member_is_strict_json(recorded):
    """No bare ``Infinity``: an occupied overflow bucket's bound and an
    ``inf`` gauge are the strings ``"inf"``, as in ``metrics.json``."""
    archive = zipfile.ZipFile(recorded[0])
    checked = 0
    for name in archive.namelist():
        raw = archive.read(name)
        if name.endswith(".jsonl"):
            for line in raw.decode("utf-8").splitlines():
                json.loads(line, parse_constant=_refuse)
        elif name.endswith(".json"):
            json.loads(raw, parse_constant=_refuse)
        else:
            continue
        checked += 1
    assert checked == 6
    assert b'"inf"' in archive.read("timeseries.jsonl")


def test_the_loader_reads_inf_back_as_a_float(recorded):
    collection = TimeSeriesCollection.from_records(load_bundle(recorded[0]).timeseries)
    gauges = {
        value
        for run in collection.runs
        for window in run.windows
        for key, value in window["gauges"].items()
        if key.startswith("wan.yardstick.rtt_ms{profile=cellular")
    }
    assert float("inf") in gauges
    overflow = [
        bucket
        for run in collection.runs
        for window in run.windows
        for hist in window["histograms"].values()
        for bucket in hist.get("buckets", ())
        if bucket[0] == float("inf")
    ]
    assert overflow


def test_metrics_json_is_the_registry_snapshot(recorded):
    metrics = load_bundle(recorded[0]).metrics
    names = {instrument["name"] for instrument in metrics}
    assert {"net.yardstick.rtt_seconds", "wan.yardstick.rtt_ms"} <= names


@pytest.mark.parametrize(
    "view",
    [["--summary"], ["--blame"], ["--latency"], ["--timeline"], ["--summary", "--json"]],
    ids=" ".join,
)
def test_every_postmortem_view_reads_the_record(recorded, view, capsys):
    assert postmortem.main([str(recorded[0]), *view]) == 0
    assert capsys.readouterr().out


# -- corruption of the one format -------------------------------------------


@pytest.fixture(scope="module")
def small_record(tmp_path_factory):
    """A short lossy display session written as a run record with every
    member: frames and losses, traces and a probe round, windows,
    verdict, telemetry.  The driver's wall-clock span reads a stopped
    clock, so the record is the same bytes every time and each drawn
    corruption hits the same one."""
    from types import SimpleNamespace
    from unittest import mock

    import numpy as np

    from repro.framebuffer import FrameBuffer, PaintKind, PaintOp, Rect
    from repro.obs import RunRecord, TimeSeriesCollection, TraceCollector
    from repro.runcontext import use_run
    from repro.telemetry import MetricsRegistry
    from repro.transport import DisplayChannel

    from repro.server import slimdriver

    record = RunRecord(tmp_path_factory.mktemp("small"), "session")
    collection = TimeSeriesCollection(window=0.01)
    stopped = SimpleNamespace(perf_counter=lambda: 0.0)
    with mock.patch.object(slimdriver, "_time", stopped), use_run(
        registry=MetricsRegistry(),
        tracer=TraceCollector(),
        capture=record.capture,
        collection=collection,
    ) as run:
        channel = DisplayChannel(FrameBuffer(96, 96), loss_rate=0.3, seed=3)
        driver = channel.make_driver(track_baselines=False)
        rng = np.random.default_rng(0)
        probe = run.tracer.begin_probe("rtt", channel.sim.now)
        for i in range(6):
            corner = [int(v) for v in rng.integers(0, 72, size=2)]
            op = PaintOp(PaintKind.FILL, Rect(*corner, 24, 24), color=(i * 40, 30, 40))
            driver.update(channel.sim.now, [op])
            channel.sim.run_until(channel.sim.now + 0.004)
        run.tracer.end_probe(probe, channel.sim.now)
        channel.run()
    path = record.write(run.tracer, collection, run.registry.snapshot())
    return path.read_bytes()


def _views(path, out):
    """Every reader of a bundle, as ``python -m`` runs it."""
    from repro.tools import replay

    for view in ("--summary", "--blame", "--latency", "--timeline"):
        yield postmortem.main, [path, view]
    yield postmortem.main, [path, "--summary", "--json"]
    yield postmortem.main, [path, "--chrome-trace", str(out / "chrome.json")]
    yield postmortem.main, [path, "--series"]
    yield postmortem.main, [path, "--series", "--heat"]
    yield postmortem.main, [path, "--slo", "--runs", "run"]
    yield replay.main, [path, "--bandwidth", "1Mbps"]


def _gate(argv):
    """Whether the view exits 1 as its answer: ``--series`` on a bundle
    with no runs, ``--slo`` on a violated verdict."""
    return "--series" in argv or "--slo" in argv


def _exit_status(main, argv):
    from repro.tools import run_cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            run_cli(lambda: main(argv))
        except SystemExit as done:
            return done.code, stderr.getvalue()
    raise AssertionError("run_cli returned without exiting")


#: Drawn for a key whose record is to lack it.
_DROP = "<drop>"


def _rewrite_records(data, name, which, edits):
    """``data`` with one record of JSON member ``name`` edited: each of
    ``edits`` sets one of the member's own keys (by name, or by index
    into the sorted keys its records hold) to a JSON value, or drops it.
    ``which`` is the record's index, or (in an example) a key naming the
    first record that holds it truthy."""
    source = zipfile.ZipFile(io.BytesIO(data))
    text = source.read(name).decode("utf-8")
    if name.endswith(".jsonl"):
        records = [json.loads(line) for line in text.splitlines()]
    else:
        document = json.loads(text)
        records = document if isinstance(document, list) else [document]
    keys = sorted({key for record in records for key in record})
    if isinstance(which, str):
        which = next(i for i, record in enumerate(records) if record.get(which))
    record = records[which % len(records)]
    for key, value in edits:
        key = key if isinstance(key, str) else keys[key % len(keys)]
        if value == _DROP:
            record.pop(key, None)
        else:
            record[key] = value
    if name.endswith(".jsonl"):
        member = "".join(json.dumps(record) + "\n" for record in records)
    else:
        member = json.dumps(records if isinstance(document, list) else records[0])
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w", zipfile.ZIP_DEFLATED) as archive:
        for other in source.namelist():
            archive.writestr(other, member if other == name else source.read(other))
    return out.getvalue()


def _corrupt(data, how):
    kind, where, what = how
    if kind == "truncate":
        return data[: where % len(data)]
    if kind == "flip":
        flipped = bytearray(data)
        for offset, bit in what:
            flipped[offset % len(data)] ^= 1 << bit
        return bytes(flipped)
    names = zipfile.ZipFile(io.BytesIO(data)).namelist()
    if kind == "records":
        # One JSON member (by name, or by index among them) rewritten
        # as well-formed records of its own keys.
        json_names = [n for n in names if n.endswith((".json", ".jsonl"))]
        name = where if isinstance(where, str) else json_names[where % len(json_names)]
        return _rewrite_records(data, name, *what)
    # Rewrite one member (by name, or by its index in the archive) to
    # drawn bytes.
    source = zipfile.ZipFile(io.BytesIO(data))
    target = where if isinstance(where, str) else names[where % len(names)]
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w", zipfile.ZIP_DEFLATED) as archive:
        for name in names:
            archive.writestr(name, what if name == target else source.read(name))
    return out.getvalue()


def _ring_of(*traces):
    """A wire ring holding nothing but ``traces``, as a bundle stores it."""
    from repro.obs import RingSlimcapWriter

    ring = RingSlimcapWriter()
    for trace in traces:
        ring.trace(trace)
    return ring.dump_bytes()


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

_CORRUPTIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0), st.just(None)),
    st.tuples(
        st.just("flip"),
        st.just(0),
        st.lists(
            st.tuples(st.integers(min_value=0), st.integers(0, 7)),
            min_size=1,
            max_size=8,
        ),
    ),
    st.tuples(st.just("rewrite"), st.integers(min_value=0), st.binary(max_size=64)),
    st.tuples(
        st.just("records"),
        st.integers(min_value=0),
        st.tuples(
            st.integers(min_value=0),
            st.lists(
                st.tuples(
                    st.integers(min_value=0), st.one_of(st.just(_DROP), _JSON)
                ),
                min_size=1,
                max_size=3,
            ),
        ),
    ),
)


@seed(1999)
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(how=_CORRUPTIONS)
@example(how=("rewrite", 0, b'{"format": "slimpm", "version": 999}'))
@example(how=("rewrite", 2, b"1\n"))
@example(how=("truncate", 16, None))
@example(how=("records", "traces.jsonl", ("completed", [("stages", _DROP)])))
@example(how=("records", "traces.jsonl", ("completed", [("update_start", _DROP)])))
@example(how=("records", "traces.jsonl", ("probe", [("duration", [1])])))
@example(how=("records", "manifest.json", (0, [("counts", [])])))
@example(how=("records", "manifest.json", (0, [("reason", "boom")])))
@example(how=("rewrite", "ring.slimcap", _ring_of({"recovery": True, "recovery_of": 3})))
def test_a_corrupted_record_is_read_or_refused_in_one_line(small_record, tmp_path, how):
    """Truncated at a drawn offset, drawn bits flipped, a drawn member
    (manifest, ring, traces, ...) rewritten to drawn bytes, or one
    record of a JSON member given drawn values for its own keys: every
    postmortem view and replay exit 0 (or 1, a view's answer), or exit
    2 with one line on stderr — never a traceback."""
    path = tmp_path / "corrupt.slimpm"
    path.write_bytes(_corrupt(small_record, how))
    for main, argv in _views(str(path), tmp_path):
        status, stderr = _exit_status(main, argv)
        assert status in ((0, 1, 2) if _gate(argv) else (0, 2)), (argv, status, stderr)
        if status == 2:
            assert len(stderr.strip().splitlines()) == 1, (argv, stderr)


def test_the_uncorrupted_record_reads_in_every_view(small_record, tmp_path):
    path = tmp_path / "whole.slimpm"
    path.write_bytes(small_record)
    for main, argv in _views(str(path), tmp_path):
        # The lossy session's one run blows the loss_recovery budget.
        expected = 1 if "--slo" in argv else 0
        assert _exit_status(main, argv)[0] == expected, argv
