"""The example scripts must run cleanly end to end.

Each example is executed in-process (imported as a module and its
``main`` called) so coverage tools see it and failures carry real
tracebacks.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=()):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # CLI-style examples take argv; pass it explicitly so an in-process
    # run never parses pytest's own sys.argv.
    if inspect.signature(module.main).parameters:
        module.main(list(argv))
    else:
        module.main()


def test_quickstart_example(capsys):
    run_example("quickstart")
    out = capsys.readouterr().out
    assert "pixels identical on both ends : True" in out


def test_quickstart_record_flag(capsys, tmp_path):
    from repro.obs import load_bundle

    run_example("quickstart", argv=["--record", str(tmp_path)])
    out = capsys.readouterr().out
    assert "run record" in out
    bundle = load_bundle(tmp_path / "quickstart.slimpm")
    opcodes = {m.opcode for m in bundle.ring.messages()}
    assert "SET" in opcodes and "StatusMessage" in opcodes
    assert bundle.metrics and bundle.timeseries and bundle.traces


def test_lossy_display_example(capsys):
    run_example("lossy_display")
    out = capsys.readouterr().out
    assert "every session converged pixel-exact" in out
    assert out.count("True") == 3  # one pixel-exact row per loss rate


def test_hotdesking_example(capsys):
    run_example("hotdesking")
    out = capsys.readouterr().out
    assert "screen restored exactly       : True" in out


def test_video_streaming_example(capsys):
    run_example("video_streaming")
    out = capsys.readouterr().out
    assert "Section 7.1 pipeline" in out
    assert "server" in out


def test_quake_session_example(capsys):
    run_example("quake_session")
    out = capsys.readouterr().out
    assert "console allocator" in out
    assert "smooth and responsive" in out


@pytest.mark.slow
def test_shared_workgroup_example(capsys):
    run_example("shared_workgroup")
    out = capsys.readouterr().out
    assert "conclusion: the processor, not the network, bounds sharing" in out


@pytest.mark.slow
def test_paper_figures_example(capsys):
    run_example("paper_figures")
    out = capsys.readouterr().out
    assert "Figure 2" in out and "Figure 9" in out
    assert "* Photoshop" in out
