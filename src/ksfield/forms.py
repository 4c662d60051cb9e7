"""Symbolic vector fields and differential forms over a flat chart.

A chart is an ordered tuple of coordinate names.  Forms keep sparse
antisymmetric coefficient tables keyed by strictly increasing index tuples,
up to degree two.
All coefficient arithmetic goes through the expr smart constructors, so
identically-zero coefficients collapse and stay out of the tables.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .expr import Expr, Num, add, diff, evaluate_batch, is_zero_expr, mul, neg, sub, substitute, total
from .records import Record, Report


class VectorField(Record, frozen=True):
    chart: tuple
    components: tuple

    def __post_init__(self):
        if len(self.components) != len(self.chart):
            raise ValueError("component count does not match chart dimension")

    def apply(self, f: Expr) -> Expr:
        """Directional derivative Y(f) = sum_a Y^a df/dx^a."""
        return total(mul(comp, diff(f, name)) for name, comp in zip(self.chart, self.components))


def lie_bracket(Y1: VectorField, Y2: VectorField) -> VectorField:
    if Y1.chart != Y2.chart:
        raise ValueError("vector fields live on different charts")
    comps = tuple(
        sub(Y1.apply(c2), Y2.apply(c1))
        for c1, c2 in zip(Y1.components, Y2.components)
    )
    return VectorField(Y1.chart, comps)


def _put(table: dict, key: tuple, value: Expr):
    if key in table:
        value = add(table[key], value)
    if is_zero_expr(value):
        table.pop(key, None)
    else:
        table[key] = value


class OneForm(Record, frozen=True):
    chart: tuple
    coeffs: tuple  # one Expr per chart coordinate


class Form(Record, frozen=True):
    """A two-form: {(a, b) with a < b: Expr}."""

    chart: tuple
    entries: Mapping

    def matrices(self, points) -> np.ndarray:
        """A two-form's antisymmetric matrices at the rows of ``points`` (columns in chart order)."""
        values = evaluate_batch(tuple(self.entries.values()), self.chart, points)
        dim = len(self.chart)
        M = np.zeros((values.shape[0], dim, dim))
        if self.entries:
            rows, cols = np.array(list(self.entries)).T
            M[:, rows, cols] = values
            M[:, cols, rows] = -values
        return M


TwoForm = Form


def d_function(f: Expr, chart: tuple) -> OneForm:
    return OneForm(chart, tuple(diff(f, name) for name in chart))


def d_one(beta: OneForm) -> TwoForm:
    chart = beta.chart
    table: dict = {}
    for b, coeff in enumerate(beta.coeffs):
        if is_zero_expr(coeff):
            continue
        for a, name in enumerate(chart):
            if a == b:
                continue
            partial = diff(coeff, name)
            if is_zero_expr(partial):
                continue
            # d(coeff dx^b) contributes partial dx^a ^ dx^b
            if a < b:
                _put(table, (a, b), partial)
            else:
                _put(table, (b, a), neg(partial))
    return TwoForm(chart, table)


def contract_one(Y: VectorField, beta: OneForm) -> Expr:
    return total(map(mul, Y.components, beta.coeffs))


def contract_two(Y: VectorField, omega: TwoForm) -> OneForm:
    coeffs = [Num(0.0)] * len(omega.chart)
    for (a, b), e in omega.entries.items():
        # (i_Y omega)_b += Y^a e ; (i_Y omega)_a -= Y^b e
        coeffs[b] = add(coeffs[b], mul(Y.components[a], e))
        coeffs[a] = sub(coeffs[a], mul(Y.components[b], e))
    return OneForm(omega.chart, tuple(coeffs))


def lie_derivative_one(Y: VectorField, beta: OneForm) -> OneForm:
    # Cartan: L_Y beta = i_Y d(beta) + d(i_Y beta)
    first = contract_two(Y, d_one(beta))
    second = d_function(contract_one(Y, beta), beta.chart)
    return OneForm(beta.chart, tuple(add(a, b) for a, b in zip(first.coeffs, second.coeffs)))


def pullback_one_form(chart: tuple, map_components: tuple, beta: OneForm) -> OneForm:
    """(Phi^* beta)_a = sum_b (beta_b o Phi) dPhi^b/dx^a."""
    mapping = dict(zip(chart, map_components))
    pulled = [substitute(c, mapping) for c in beta.coeffs]
    return OneForm(chart, tuple(
        total(mul(beta_b, diff(comp, name)) for beta_b, comp in zip(pulled, map_components))
        for name in chart
    ))


def judge(condition: str, tol: float, residuals, details=None) -> Report:
    """The sampled verdict on ``residuals``, an array whose first axis is the sample row.

    The report carries the largest |residual| (0.0 when there are none), the
    lowest row attaining it, and ``passed`` iff it is <= tol, so a NaN fails.
    Rows that are all one row (a zero first stride, as fold_constant returns
    them) are reduced at row 0 alone.
    """
    residuals = np.asarray(residuals)
    count = len(residuals)
    if count > 1 and residuals.strides[0] == 0:
        residuals = residuals[:1]
    magnitudes = np.abs(residuals)
    worst, row = 0.0, None
    if magnitudes.size and magnitudes.flags.c_contiguous:
        # the first maximum in memory order lies in the lowest row; a NaN counts as the maximum
        index = int(np.argmax(magnitudes))
        worst, row = float(magnitudes.flat[index]), index // (magnitudes.size // len(magnitudes))
    elif magnitudes.size:  # each column's lowest worst row, then the lowest of the worst columns
        columns = magnitudes.reshape(len(magnitudes), -1)
        rows = np.argmax(columns, axis=0)
        peaks = columns[rows, np.arange(len(rows))].tolist()
        worst = max(peaks, key=lambda p: (p != p, p))  # a NaN counts as the maximum
        row = min(r for r, p in zip(rows.tolist(), peaks) if p == worst or p != p)
    return Report(condition, worst, count, worst <= tol, details or {}, row)
