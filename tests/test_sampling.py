"""Quasi-random sampling: the vectorized Halton sequence and its chart matrices."""

import numpy as np
import pytest

from ksfield.coords import VarTable
from ksfield.sampling import _primes, halton, sample_jet_points, sample_points


def scalar_halton(dim, count, seed=0):
    """The digit-by-digit, index-by-index construction, kept as a reference."""

    def radical_inverse(index, base):
        result = 0.0
        digit = 1.0 / base
        while index > 0:
            result += (index % base) * digit
            index //= base
            digit /= base
        return result

    shift = np.random.default_rng(seed).uniform(size=dim)
    points = np.empty((count, dim))
    for j, base in enumerate(_primes(dim)):
        column = np.array([radical_inverse(i + 1, base) for i in range(count)])
        points[:, j] = (column + shift[j]) % 1.0
    return points


@pytest.mark.parametrize(
    "dim, count, seed",
    [(1, 1, 0), (2, 0, 3), (3, 5000, 1), (5, 777, 7), (9, 100, 42), (17, 2048, 11)],
)
def test_halton_bit_identical_to_scalar_loop(dim, count, seed):
    fast, reference = halton(dim, count, seed), scalar_halton(dim, count, seed)
    assert fast.shape == reference.shape
    assert fast.tobytes() == reference.tobytes()


def test_sample_points_are_the_jet_point_rows():
    table = VarTable(2, 2)
    box = {"q1": (0.0, 3.0)}
    rows = sample_points(table, "lagrangian", 25, seed=5, box=box)
    points = sample_jet_points(table, 25, seed=5, box=box)
    assert rows.shape == (25, table.dim_total)
    assert np.array_equal(rows, np.array([w.flat() for w in points]))
    assert np.all((rows[:, 0] >= 0.0) & (rows[:, 0] < 3.0))
