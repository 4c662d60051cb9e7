"""Quasi-random sampling: the vectorized Halton sequence and its chart matrices."""

import numpy as np
import pytest

from ksfield.coords import VarTable
from ksfield.sampling import _primes, halton, sample_points, scale


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


HALTON_CASES = [
    (1, 1, 0), (2, 0, 3), (3, 5000, 1), (5, 777, 7), (9, 100, 42), (17, 2048, 11),
    # counts at powers of the bases 2, 3 and 5 and one past them, and a
    # base (37) larger than the count
    (3, 8, 2), (3, 9, 5), (3, 26, 6), (3, 27, 8), (3, 125, 9), (12, 100, 13), (12, 1370, 4),
    # at and around 7**3, 11**3 and 13**3, where the last digit pass is partial or full
    (4, 342, 1), (4, 343, 2), (4, 344, 3), (5, 1331, 4), (5, 1332, 5), (6, 2197, 6),
    (6, 2198, 7),
]


@pytest.mark.parametrize("dim, count, seed", HALTON_CASES)
def test_halton_bit_identical_to_scalar_loop(dim, count, seed):
    fast, reference = halton(dim, count, seed), scalar_halton(dim, count, seed)
    assert fast.shape == reference.shape
    assert fast.tobytes() == reference.tobytes()


@pytest.mark.parametrize("dim, count, seed", HALTON_CASES)
def test_halton_columns_are_a_prefix_of_wider_designs(dim, count, seed):
    # a command scales all its samples from one design of its widest box
    wide = halton(dim + 3, count, seed)
    for d in range(1, dim + 1):
        assert halton(d, count, seed).tobytes() == np.ascontiguousarray(wide[:, :d]).tobytes()


def test_sample_points_span_the_box_in_chart_order():
    table = VarTable(2, 2)
    rows = sample_points(table, "lagrangian", 25, seed=5, box={"q1": (0.0, 3.0)})
    assert rows.shape == (25, table.dim_total)
    assert np.all((rows[:, 0] >= 0.0) & (rows[:, 0] < 3.0))
    assert np.all((rows[:, 1:] >= -1.0) & (rows[:, 1:] < 1.0))  # the default box


def test_design_and_its_boxes_are_column_major():
    # each coordinate's values are contiguous, from the design to the box
    unit = halton(9, 1000, 3)
    assert unit.flags.f_contiguous and not unit.flags.c_contiguous
    box = scale(unit, [(0.0, 3.0), (-1.0, 1.0), (2.0, 5.0)])
    assert box.flags.f_contiguous and not box.flags.c_contiguous
    rows = scale(np.ascontiguousarray(unit), [(0.0, 3.0), (-1.0, 1.0), (2.0, 5.0)])
    assert box.tobytes() == rows.tobytes()  # the same values, whatever the layout
    assert sample_points(VarTable(2, 2), "lagrangian", 25, seed=5).flags.f_contiguous
