"""repro.perf — continuous performance observability for the simulator.

The paper measures SLIM's interactive performance; this package measures
the *reproduction's* execution performance, so every commit leaves a
comparable perf datapoint behind:

* :mod:`repro.perf.harness` — pinned, seeded benchmark scenarios with
  median-of-N timing, warmup discard, and out-of-band memory capture;
* :mod:`repro.perf.scenarios` — the ~8 registered hot-path scenarios
  (import it to populate the registry);
* :mod:`repro.perf.schema` — the versioned ``BENCH_<git-sha>.json``
  trajectory format;
* :mod:`repro.perf.progress` — the live progress/health line long
  simulator runs print while working;
* :mod:`repro.perf.scale` — the shared full-scale/reduced-scale knobs.

Workflow::

    python -m repro.perf --quick            # writes BENCH_<sha>.json
    python -m repro.tools.benchdiff BENCH_old.json BENCH_new.json
"""

from repro.perf.harness import (
    Metric,
    SCENARIOS,
    ScenarioContext,
    ScenarioRun,
    ScenarioSpec,
    measure_scenario,
    run_harness,
    scenario,
)
from repro.perf.progress import ProgressMonitor
from repro.perf.schema import (
    BenchSchemaError,
    SCHEMA_VERSION,
    bench_document,
    default_bench_path,
    git_sha,
    load_bench,
    validate,
    write_bench,
)

__all__ = [
    "BenchSchemaError",
    "Metric",
    "ProgressMonitor",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "ScenarioContext",
    "ScenarioRun",
    "ScenarioSpec",
    "bench_document",
    "default_bench_path",
    "git_sha",
    "load_bench",
    "measure_scenario",
    "run_harness",
    "scenario",
    "validate",
    "write_bench",
]
