"""repro.telemetry — zero-dependency metrics.

The uniform instrumentation layer under every hot path: the network
fabric, the console decode loop, the server scheduler and SLIM driver,
and the encoder all report into an injectable
:class:`~repro.telemetry.metrics.MetricsRegistry` that defaults to the
current run's.  That starts as a
:class:`~repro.telemetry.metrics.NullRegistry`, so nothing is recorded
(and nothing is paid) until a run installs a live one — which
``python -m repro.experiments --metrics`` does.

Typical use::

    from repro import telemetry, use_run

    with use_run(registry=telemetry.MetricsRegistry()) as run:
        ...  # components constructed here report into run.registry
    print(telemetry.render_report(run.registry))
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
)
from repro.telemetry.report import render_json, render_report

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "render_json",
    "render_report",
]
