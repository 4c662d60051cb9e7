"""Deterministic quasi-random point sampling for residual checks.

Halton sequences with a seeded Cranley-Patterson rotation: low-discrepancy
coverage of the sampling box, reproducible per seed.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from .bundles import CoJetPoint, JetPoint
from .coords import VarTable

DEFAULT_INTERVAL = (-1.0, 1.0)


def _primes(count: int) -> list:
    out = []
    candidate = 2
    while len(out) < count:
        if all(candidate % p for p in out):
            out.append(candidate)
        candidate += 1
    return out


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput values of the indices, one digit position per pass.

    Each element sees the float operations of the digit-by-digit scalar
    loop in the same order (finished indices add exact zeros), so the
    points are bit-identical to it.
    """
    indices = indices.copy()
    result = np.zeros(indices.shape)
    digit = 1.0 / base
    while np.any(indices > 0):
        result += (indices % base) * digit
        indices //= base
        digit /= base
    return result


def halton(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """count x dim points in [0, 1), Halton sequence rotated by the seed."""
    bases = _primes(dim)
    shift = np.random.default_rng(seed).uniform(size=dim)
    indices = np.arange(1, count + 1, dtype=np.int64)
    points = np.empty((count, dim))
    for j, base in enumerate(bases):
        points[:, j] = (_radical_inverse(indices, base) + shift[j]) % 1.0
    return points


def sample_box(intervals: Sequence, count: int, seed: int = 0) -> np.ndarray:
    intervals = np.asarray(intervals, dtype=float)
    unit = halton(len(intervals), count, seed)
    return intervals[:, 0] + unit * (intervals[:, 1] - intervals[:, 0])


def _intervals_for(names, box: Optional[Mapping]) -> list:
    box = box or {}
    return [tuple(box.get(name, DEFAULT_INTERVAL)) for name in names]


def sample_points(
    table: VarTable, side: str, count: int, seed: int = 0, box: Optional[Mapping] = None
) -> np.ndarray:
    """count x dim matrix of points of the side's chart, columns in chart order,
    spread over the per-coordinate box (default [-1, 1] each)."""
    names = table.chart(side)
    return sample_box(_intervals_for(names, box), count, seed)


def sample_jet_points(
    table: VarTable, count: int, seed: int = 0, box: Optional[Mapping] = None
) -> list:
    """The rows of :func:`sample_points` on the velocity side, as JetPoints."""
    points = sample_points(table, "lagrangian", count, seed, box)
    return [JetPoint.from_flat(table, row) for row in points]


def sample_cojet_points(
    table: VarTable, count: int, seed: int = 0, box: Optional[Mapping] = None
) -> list:
    """The rows of :func:`sample_points` on the momentum side, as CoJetPoints."""
    points = sample_points(table, "hamiltonian", count, seed, box)
    return [CoJetPoint.from_flat(table, row) for row in points]


def sample_parameters(
    table: VarTable, count: int, seed: int = 0, t_box: Optional[Sequence] = None
) -> np.ndarray:
    """count x k parameter points; default box [0, 1] per axis."""
    if t_box is None:
        t_box = [(0.0, 1.0)] * table.k
    return sample_box(t_box, count, seed)
