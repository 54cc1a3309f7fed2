"""One module per paper table/figure, plus the multimedia experiments.

Every experiment module exposes a ``run(...)`` decorated with
:func:`~repro.experiments.runner.experiment`; it takes an optional
:class:`~repro.experiments.runner.ExperimentConfig` (plus keyword
overrides), returns an
:class:`~repro.experiments.runner.ExperimentResult`, and registers itself
with the runner so ``python -m repro.experiments`` regenerates the whole
evaluation section.
"""

from repro.experiments.runner import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    ExperimentSpec,
    experiment,
    render_table,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentSpec",
    "experiment",
    "render_table",
]
