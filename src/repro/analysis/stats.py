"""Small statistics helpers shared by the experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample set."""

    n: int
    mean: float
    std: float
    minimum: float
    p50: float
    p95: float
    maximum: float


def summarize(samples: Iterable[float]) -> Summary:
    """Compute a :class:`Summary` over scalar samples."""
    values = np.asarray(list(samples), dtype=np.float64)
    if values.size == 0:
        raise ReproError("cannot summarize zero samples")
    return Summary(
        n=int(values.size),
        mean=float(values.mean()),
        std=float(values.std()),
        minimum=float(values.min()),
        p50=float(np.percentile(values, 50)),
        p95=float(np.percentile(values, 95)),
        maximum=float(values.max()),
    )


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares line fit; returns (intercept, slope)."""
    if len(xs) != len(ys):
        raise ReproError("x and y lengths differ")
    if len(xs) < 2:
        raise ReproError("need at least two points to fit a line")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    design = np.stack([np.ones_like(x), x], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coeffs[0]), float(coeffs[1])


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (used by the Xmark-style composite figure)."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        raise ReproError("cannot take the geometric mean of zero values")
    if (array <= 0).any():
        raise ReproError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(array))))


def crossing(
    curve: Sequence[Tuple[float, float]], threshold: float
) -> Optional[float]:
    """Where a sampled curve first reaches ``threshold``; None if never.

    ``curve`` is (x, y) points in ascending x — a sharing sweep's (users,
    delay).  The answer interpolates linearly between the first point at
    or above the threshold and the point before it, which is strictly
    below; a first point already at or above it is its own x, and an
    ``inf`` y after a finite one is the previous x.  Only the first
    crossing counts: a curve that dips back below later is not seen.
    """
    prev: Optional[Tuple[float, float]] = None
    for x, y in curve:
        if y >= threshold:
            if prev is None:
                return float(x)
            x0, y0 = prev
            return x0 + (threshold - y0) / (y - y0) * (x - x0)
        prev = (x, y)
    return None
