"""Timespan view sampling: draw v windows of length dt/s per epoch.

Four strategies control how much adjacent windows overlap in time:

  sequential    v distinct slots of the s-way partition of the timespan
                (windows are pairwise interior-disjoint)
  high_overlap  first center uniform, successors step dt/(4s)
                (adjacent windows share 75% of their length)
  low_overlap   successors step 3*dt/(4s) (adjacent windows share 25%)
  random        every center independently uniform over the feasible range

Every center lies in [t_min + dt/(2s), t_max - dt/(2s)], so windows never
leave the graph's timespan. Randomness is a pure function of (seed, epoch):
each epoch derives its own generator, so epochs can be reproduced
independently and re-sampled windows differ between epochs.

Continuous centers are snapped to a dyadic grid (2^-32 of the feasible
range). For dyadic bounds this keeps lo/hi arithmetic exact in float64:
window lengths and overlap ratios come out bit-exact, not merely close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graph import TemporalGraph

STRATEGIES = ("sequential", "high_overlap", "low_overlap", "random")

_GRID_STEPS = 1 << 32
_MAX_RESAMPLE = 20


@dataclass(frozen=True)
class ViewWindow:
    """One sampled time window: [lo, hi] = center -+ dt/(2s)."""

    center: float
    lo: float
    hi: float
    strategy: str
    epoch: int


@dataclass(frozen=True)
class SamplerConfig:
    """Strategy plus the two shape factors: s (window length divisor) and v
    (number of views per epoch)."""

    strategy: str = "sequential"
    s: int = 4
    v: int = 2

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise DataError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.s < 1:
            raise DataError(f"s must be a positive integer, got {self.s}")
        if self.v < 2:
            raise DataError(f"v must be >= 2 for contrastive views, got {self.v}")
        if self.strategy == "sequential" and self.v > self.s:
            raise DataError(f"sequential sampling needs v <= s, got v={self.v} s={self.s}")


def epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    """Independent per-epoch stream from a root seed."""
    return np.random.default_rng([seed, epoch])


def _uniform_grid(rng: np.random.Generator, lo: float, hi: float) -> float:
    # snap to a 2^-32 grid of [lo, hi]; keeps later +-dt/(2s) arithmetic
    # exact whenever lo/hi/dt are dyadic (see module docstring)
    j = int(rng.integers(0, _GRID_STEPS + 1))
    return lo + (hi - lo) * (j / _GRID_STEPS)


def sequential_centers(cfg: SamplerConfig, dt: float, t_min: float, rng) -> list:
    """v distinct midpoints of the s-way partition, in random order."""
    half = dt / (2 * cfg.s)
    slots = rng.choice(cfg.s, size=cfg.v, replace=False)
    return [t_min + (2 * int(k) + 1) * half for k in slots]


_OVERLAP_QUARTERS = {"high_overlap": 1, "low_overlap": 3}


def overlap_centers(cfg: SamplerConfig, dt: float, t_min: float, rng) -> list:
    """First center uniform on its feasible range, then steps of q*dt/(4s),
    with q = 1 for high_overlap and q = 3 for low_overlap."""
    q = _OVERLAP_QUARTERS[cfg.strategy]
    lo = t_min + dt / (2 * cfg.s)
    hi = t_min + dt - (2 + q * cfg.v) * dt / (4 * cfg.s)
    # decided in integers: at q*v = 4s - 4 the range is the one point lo,
    # which rounding may put an ulp above hi
    if q * cfg.v > 4 * cfg.s - 4:
        raise DataError(
            f"{cfg.strategy} infeasible: first-center range [{lo}, {hi}] is empty "
            f"(need (2+q*v)*dt/(4s) <= dt - dt/(2s); q={q} v={cfg.v} s={cfg.s})"
        )
    hi = max(hi, lo)
    step = q * dt / (4 * cfg.s)
    centers = [_uniform_grid(rng, lo, hi)]
    for _ in range(cfg.v - 1):
        centers.append(centers[-1] + step)
    return centers


def random_centers(cfg: SamplerConfig, dt: float, t_min: float, rng) -> list:
    """Independent uniform centers; windows may or may not overlap."""
    lo = t_min + dt / (2 * cfg.s)
    hi = t_min + dt - dt / (2 * cfg.s)
    return [_uniform_grid(rng, lo, hi) for _ in range(cfg.v)]


_CENTER_FNS = {
    "sequential": sequential_centers,
    "high_overlap": overlap_centers,
    "low_overlap": overlap_centers,
    "random": random_centers,
}


def _windows_from_centers(centers, cfg, dt, epoch) -> list:
    half = dt / (2 * cfg.s)
    return [
        ViewWindow(center=c, lo=c - half, hi=c + half, strategy=cfg.strategy, epoch=epoch)
        for c in centers
    ]


def sample_windows(graph: TemporalGraph, cfg: SamplerConfig, epoch: int, seed: int) -> list:
    """Draw the epoch's v view windows for ``graph``.

    Deterministic in (seed, epoch). A draw in which some window
    contains no edges at all is retried with fresh randomness, up to
    20 times, before giving up.
    """
    cfg.validate()
    dt = graph.timespan
    if dt <= 0.0:
        raise DataError("degenerate timespan: view sampling needs t_max > t_min")
    rng = epoch_rng(seed, epoch)
    center_fn = _CENTER_FNS[cfg.strategy]
    last_empty = None
    for _ in range(_MAX_RESAMPLE):
        centers = center_fn(cfg, dt, graph.t_min, rng)
        windows = _windows_from_centers(centers, cfg, dt, epoch)
        bounds = [graph.edge_range(w.lo, w.hi) for w in windows]
        empty = [w for w, (i, j) in zip(windows, bounds) if i == j]
        if not empty:
            return windows
        last_empty = empty[0]
    raise DataError(
        f"window [{last_empty.lo}, {last_empty.hi}] contains no edges after "
        f"{_MAX_RESAMPLE} resampling attempts (strategy={cfg.strategy}, epoch={epoch})"
    )
