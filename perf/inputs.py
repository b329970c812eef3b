"""Hermetic, seed-driven inputs for the benchmark of record.

Four input shapes, each a pure function of ``(n, seed)``.  The program
under test receives only the generated values (as ``StreamTuple`` /
``RawTuple`` objects the runner boxes them into); nothing here imports
``repro``, so a change to ``repro.workloads`` cannot move the benchmark's
inputs.  The statistics follow the paper's Table 1 twins:

``taxi_distance_fare``
    Q3 on the NYC-taxi twin: lognormal trip distance, metered (affine
    plus noise) fare.  Dense: a new trip beats about 7% of the window.
``taxi_pickups``
    Q2 on the same twin: pickup lon/lat from a mixture of Gaussian hot
    spots over Manhattan.
``correlated_self``
    Synthetic self-join stream whose field correlation tunes the Q3
    match rate (0.998 gives about 15 matches against a 50k window).
``shifted_uniform_rs``
    Synthetic R/S cross-join streams: unit uniforms, S shifted per
    field so each ``<`` predicate holds with a requested probability.
"""

from __future__ import annotations

import hashlib
import math
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Columns",
    "SHAPES",
    "generate",
    "taxi_distance_fare",
    "taxi_pickups",
    "correlated_self",
    "shifted_uniform_rs",
]


class Columns(NamedTuple):
    """One generated stream in arrival order, as columns.

    ``side`` is 0 for the left stream (``R``, or the only stream of a
    self join) and 1 for the right stream (``S``).
    """

    x: np.ndarray
    y: np.ndarray
    side: np.ndarray

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for col in self:
            digest.update(np.ascontiguousarray(col).tobytes())
        return digest.hexdigest()


# (lon, lat, weight, spread): stylised Manhattan pickup hot spots.
_HOTSPOTS = np.array(
    [
        (-73.985, 40.758, 0.35, 0.008),  # Midtown
        (-74.010, 40.707, 0.20, 0.006),  # Financial District
        (-73.978, 40.787, 0.15, 0.010),  # Upper West Side
        (-73.872, 40.774, 0.10, 0.004),  # LaGuardia
        (-73.790, 40.644, 0.08, 0.004),  # JFK
        (-73.950, 40.650, 0.12, 0.030),  # Brooklyn (diffuse)
    ]
)
_BASE_FARE = 2.5
_PER_MILE = 2.5


def _rng(seed: int, shape_id: int) -> np.random.Generator:
    # One independent stream per (seed, shape), so two workloads run
    # with the same --seed never share values.
    return np.random.default_rng([seed, shape_id])


def _self_side(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.int8)


def taxi_distance_fare(n: int, seed: int) -> Columns:
    rng = _rng(seed, 1)
    distance = rng.lognormal(math.log(1.7), 0.75, n)
    fare = _BASE_FARE + _PER_MILE * distance + rng.normal(0.0, 1.5, n)
    return Columns(distance, np.maximum(_BASE_FARE, fare), _self_side(n))


def taxi_pickups(n: int, seed: int) -> Columns:
    rng = _rng(seed, 2)
    spot = rng.choice(len(_HOTSPOTS), n, p=_HOTSPOTS[:, 2])
    spread = _HOTSPOTS[spot, 3]
    lon = rng.normal(_HOTSPOTS[spot, 0], spread)
    lat = rng.normal(_HOTSPOTS[spot, 1], spread)
    return Columns(lon, lat, _self_side(n))


def correlated_self(n: int, seed: int, correlation: float) -> Columns:
    if not 0.0 <= correlation <= 1.0:
        raise ValueError("correlation must be in [0, 1]")
    rng = _rng(seed, 3)
    base = rng.random(n)
    second = correlation * base + (1.0 - correlation) * rng.random(n)
    return Columns(base, second, _self_side(n))


def _shift_for_selectivity(sigma: float) -> float:
    """Shift ``c`` with ``P(r < s) = sigma`` for ``r~U(0,1)``, ``s~U(c,1+c)``."""
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("selectivity must be in [0, 1]")
    if sigma >= 0.5:
        return 1.0 - math.sqrt(2.0 - 2.0 * sigma)
    return math.sqrt(2.0 * sigma) - 1.0


def shifted_uniform_rs(
    n: int, seed: int, selectivities: Sequence[float]
) -> Columns:
    """R and S alternate in arrival order (R first)."""
    rng = _rng(seed, 4)
    side = (np.arange(n) % 2).astype(np.int8)
    cols = []
    for sigma in selectivities:
        shift = _shift_for_selectivity(sigma)
        cols.append(rng.random(n) + shift * side)
    return Columns(cols[0], cols[1], side)


SHAPES = {
    "taxi_distance_fare": taxi_distance_fare,
    "taxi_pickups": taxi_pickups,
    "correlated_self": correlated_self,
    "shifted_uniform_rs": shifted_uniform_rs,
}


def generate(shape: str, n: int, seed: int, **params) -> Columns:
    return SHAPES[shape](n, seed, **params)
