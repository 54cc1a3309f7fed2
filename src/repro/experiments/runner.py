"""Experiment registry, typed run configuration, and plain-text rendering.

Each experiment module produces an :class:`ExperimentResult`: an
identifier matching the paper (``table4``, ``fig9``, ...), a set of rows
(dictionaries sharing a column set), and free-form notes recording the
paper-vs-measured comparison.  ``python -m repro.experiments`` runs the
registered set and prints each as a text table — the reproduction of the
paper's evaluation section.

Experiments register themselves with the :func:`experiment` decorator and
receive a typed :class:`ExperimentConfig` carrying the common knobs
(seed, duration, number of simulated users)::

    @experiment("fig9", title="Interactive latency under CPU load",
                section="6.1")
    def run(config: ExperimentConfig) -> ExperimentResult:
        sim_seconds = config.get("duration", DEFAULT_SIM_SECONDS)
        ...

The decorated ``run`` stays directly callable — ``run()``,
``run(config)``, and keyword overrides like ``run(seed=5)`` all work; the
overrides are folded into the config.

Independent cells of one experiment go through :func:`sweep`: side by
side when nothing but the flight recorder watches the run, else in
this process.
"""

from __future__ import annotations

import functools
import os
import sys
import traceback
import tracemalloc
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.errors import ReproError, SimulationError
from repro.runcontext import current_run, use_run


@dataclass
class ExperimentResult:
    """The output of one experiment run."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def column_names(self) -> List[str]:
        names: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names


#: Typed fields of :class:`ExperimentConfig`; everything else lands in
#: ``extra``.
_TYPED_FIELDS = ("seed", "duration", "n_users")


@dataclass(frozen=True)
class ExperimentConfig:
    """Common knobs shared by every experiment.

    A field left at ``None`` means "use the experiment's published
    default" — the defaults that reproduce the paper's numbers live in
    the experiment modules, not here.

    Attributes:
        seed: Root RNG seed for the simulated user population.
        duration: Simulated seconds to run (where applicable).
        n_users: Number of simulated users / sessions.
        extra: Experiment-specific keyword overrides (e.g. ``suite=``
            for table4).
    """

    seed: Optional[int] = None
    duration: Optional[float] = None
    n_users: Optional[int] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def get(self, name: str, default: object = None) -> object:
        """A field or extra override by name, or ``default`` if unset."""
        if name in _TYPED_FIELDS:
            value = getattr(self, name)
            return default if value is None else value
        return self.extra.get(name, default)

    def with_overrides(self, **overrides: object) -> "ExperimentConfig":
        """A copy with keyword overrides folded in."""
        if not overrides:
            return self
        typed: Dict[str, object] = {}
        extra = dict(self.extra)
        for key, value in overrides.items():
            if key in _TYPED_FIELDS:
                typed[key] = value
            else:
                extra[key] = value
        return replace(self, extra=extra, **typed)


def _coerce_config(
    config: Optional[ExperimentConfig], overrides: Dict[str, object]
) -> ExperimentConfig:
    if config is None:
        config = ExperimentConfig()
    elif not isinstance(config, ExperimentConfig):
        raise ReproError(
            f"expected ExperimentConfig, got {type(config).__name__}; "
            "pass knobs as keywords (e.g. run(seed=5))"
        )
    return config.with_overrides(**overrides)


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: identity plus its config-taking runner."""

    experiment_id: str
    title: str
    section: Optional[str]
    runner: Callable[..., ExperimentResult]

    def __call__(
        self, config: Optional[ExperimentConfig] = None, **overrides: object
    ) -> ExperimentResult:
        return self.runner(config, **overrides)


#: Registered experiments, in registration order.
EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def _register_spec(spec: ExperimentSpec) -> None:
    if spec.experiment_id in EXPERIMENTS:
        raise ReproError(
            f"experiment {spec.experiment_id!r} already registered"
        )
    EXPERIMENTS[spec.experiment_id] = spec


def experiment(
    experiment_id: str, *, title: str = "", section: Optional[str] = None
) -> Callable[[Callable[[ExperimentConfig], ExperimentResult]], Callable]:
    """Register an experiment runner.

    The decorated function takes one :class:`ExperimentConfig` argument;
    the returned wrapper additionally accepts keyword overrides that are
    folded into the config, so existing call sites like ``run(seed=5)``
    keep working.
    """

    def decorate(fn: Callable[[ExperimentConfig], ExperimentResult]):
        @functools.wraps(fn)
        def wrapper(
            config: Optional[ExperimentConfig] = None, **overrides: object
        ) -> ExperimentResult:
            return fn(_coerce_config(config, overrides))

        spec = ExperimentSpec(
            experiment_id=experiment_id,
            title=title or (fn.__doc__ or experiment_id).strip().splitlines()[0],
            section=section,
            runner=wrapper,
        )
        _register_spec(spec)
        wrapper.spec = spec
        return wrapper

    return decorate


def _run_cell(writer, fn: Callable[[Any], Any], cell: Any) -> None:
    """One forked :func:`sweep` child: ``fn(cell)`` under the parent
    recorder's ``for_cell()``, if it has one, answered with ``("done",
    result, rings)`` or ``("error", summary, traceback, rings)`` — a
    cell that fails or is interrupted still ships what its rings hold."""
    parent = current_run().recorder
    recorder = parent.for_cell() if parent is not None else None
    try:
        with use_run(recorder=recorder, tracer=None, capture=None):
            try:
                reply = ("done", fn(cell))
            except BaseException as exc:
                reply = ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
            writer.send(reply + (recorder and recorder.cell_payload(),))
    finally:
        writer.close()


def _forks() -> bool:
    """Whether :func:`sweep` may fork: the run observes nothing but the
    flight recorder's rings, and no cProfile or tracemalloc watches
    this process (neither would see a child)."""
    return (
        current_run().rings_only()
        and sys.getprofile() is None
        and not tracemalloc.is_tracing()
    )


def sweep(cells: Iterable[Any], fn: Callable[[Any], Any]) -> List[Any]:
    """``[fn(cell) for cell in cells]``, side by side when nothing but
    the flight recorder watches.

    When the run is :meth:`~repro.runcontext.RunContext.rings_only` and
    no profiler traces this process — the default command — each cell
    runs in a child forked from this process, which changes nothing
    until every cell is in: each cell starts from the same parent
    state however many share the machine, ``fn`` may be a closure, and
    only its result and its recorder's rings cross back (pickled).  At
    most ``os.cpu_count()`` children are alive at once.  The run's
    recorder absorbs the rings in cell order, as if it had watched the
    cells in turn, and the results come back in cell order, so the
    output is the same whatever that count is.  When a cell fails, or
    the sweep is interrupted, the rings of every cell that answered,
    the failed one's included, are absorbed before the error leaves,
    so a crash or interrupt bundle holds them.

    Under any other observer (a registry, its own tracer or capture, a
    time-series collection, the painter, cProfile or tracemalloc) the
    cells run here, in order, under the run as it stands, so that
    observer sees every cell as if ``fn`` had been called in a loop.

    Raises:
        SimulationError: naming the cell, when its forked child dies
            before it answers or ``fn`` raises there (with the child's
            traceback).  In this process ``fn``'s exception propagates.
    """
    cells = list(cells)
    if not _forks():
        return [fn(cell) for cell in cells]
    # Imported here: only a run that forks pays for multiprocessing.
    import multiprocessing
    from multiprocessing.connection import wait

    replies: List[Any] = [None] * len(cells)
    queued = deque(enumerate(cells))
    running: Dict[Any, tuple] = {}  # reading end -> (cell index, child)
    workers = os.cpu_count() or 1
    fork = multiprocessing.get_context("fork")
    try:
        while queued or running:
            while queued and len(running) < workers:
                index, cell = queued.popleft()
                reader, writer = fork.Pipe(duplex=False)
                child = fork.Process(
                    target=_run_cell, args=(writer, fn, cell), daemon=True
                )
                child.start()
                writer.close()
                running[reader] = (index, child)
            for reader in wait(list(running)):
                index, child = running.pop(reader)
                with reader:
                    try:
                        reply = reader.recv()
                    except (EOFError, OSError):
                        reply = None
                child.join()
                if reply is None:
                    raise SimulationError(
                        f"cell {index} exited (exitcode {child.exitcode}) "
                        "before it answered"
                    )
                replies[index] = reply
                if reply[0] == "error":
                    raise SimulationError(f"cell {index} failed: {reply[1]}\n{reply[2]}")
    finally:
        # After a failure: no child outlives the sweep.
        for reader, (_index, child) in running.items():
            child.kill()
            child.join()
            reader.close()
        recorder = current_run().recorder
        if recorder is not None:
            recorder.absorb_cells(reply[-1] for reply in replies if reply is not None)
    return [reply[1] for reply in replies]


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(result: ExperimentResult) -> str:
    """Render a result as a fixed-width text table."""
    lines = [f"== {result.experiment_id}: {result.title} =="]
    columns = result.column_names()
    if columns:
        cells = [
            [_format_cell(row.get(col, "")) for col in columns]
            for row in result.rows
        ]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(columns)
        ]
        header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row_cells in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row_cells, widths)))
    for note in result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
