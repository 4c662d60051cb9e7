"""Deterministic quasi-random point sampling for residual checks.

Halton sequences with a seeded Cranley-Patterson rotation: low-discrepancy
coverage of the sampling box, reproducible per seed.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

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


def _radical_inverse(count: int, base: int) -> np.ndarray:
    """Van der Corput values of 1..count, one digit position p per pass.

    The first base**(p+1) values are the first base**p plus d * base**-(p+1),
    concatenated over the digits d (d = 0 adds exact zeros), so each element sees
    the float operations of the digit-by-digit scalar loop in order: bit-identical.
    """
    values, weight, digits = np.zeros(1), 1.0 / base, np.arange(base, dtype=float)[:, None]
    while values.size <= count:
        values = (values + digits[:count // values.size + 1] * weight).ravel()
        weight /= base
    return values[1:count + 1]


def halton(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """count x dim points in [0, 1), Halton sequence rotated by the seed;
    column j is built in the j-th prime base without integer division.

    The design is column-major (Fortran order): each coordinate's count
    values are contiguous, as it is built and as the evaluator reads it."""
    bases = _primes(dim)
    shift = np.random.default_rng(seed).uniform(size=dim)
    points = np.empty((count, dim), order="F")
    for j, base in enumerate(bases):
        np.add(_radical_inverse(count, base), shift[j], out=points[:, j])  # in [0, 2)
    points -= points >= 1.0  # the exact x - 1.0 that x % 1.0 gives there
    return points


def scale(unit: np.ndarray, intervals: Sequence) -> np.ndarray:
    """The leading len(intervals) columns of the unit design ``unit``, column j
    mapped onto intervals[j].  ``halton(d, c, s)`` is bitwise the first d
    columns of ``halton(D, c, s)`` for d <= D, so one design serves every box.
    The map is elementwise, so a column-major design gives a column-major box,
    one streaming pass per column."""
    intervals = np.asarray(intervals, dtype=float)
    return intervals[:, 0] + unit[:, : len(intervals)] * (intervals[:, 1] - intervals[:, 0])


def _chart_box(table: VarTable, side: str, box: Optional[Mapping]) -> list:
    """One interval per coordinate of the side's chart, in chart order;
    coordinates the box does not name get [-1, 1]."""
    box = box or {}
    return [tuple(box.get(name, DEFAULT_INTERVAL)) for name in table.chart(side)]


def sample_points(
    table: VarTable, side: str, count: int, seed: int = 0, box: Optional[Mapping] = None
) -> np.ndarray:
    """count x dim matrix of points of the side's chart, columns in chart order,
    spread over the per-coordinate box (default [-1, 1] each)."""
    return scale(halton(table.dim_total, count, seed), _chart_box(table, side, box))


def sample_parameters(
    table: VarTable, count: int, seed: int = 0, t_box: Optional[Sequence] = None
) -> np.ndarray:
    """count x k parameter points; default box [0, 1] per axis."""
    if t_box is None:
        t_box = [(0.0, 1.0)] * table.k
    return scale(halton(table.k, count, seed), t_box)
