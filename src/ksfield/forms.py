"""Symbolic vector fields and differential forms over a flat chart.

A chart is an ordered tuple of coordinate names.  Forms keep sparse
antisymmetric coefficient tables keyed by strictly increasing index tuples;
degree three is enough for Cartan-formula Lie derivatives of two-forms.
All coefficient arithmetic goes through the expr smart constructors, so
identically-zero coefficients collapse and stay out of the tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .expr import Expr, Num, add, diff, evaluate_batch, evaluate_envs, is_zero_expr, mul, neg, sub


@dataclass(frozen=True)
class VectorField:
    chart: tuple
    components: tuple

    def __post_init__(self):
        if len(self.components) != len(self.chart):
            raise ValueError("component count does not match chart dimension")

    def apply(self, f: Expr) -> Expr:
        """Directional derivative Y(f) = sum_a Y^a df/dx^a."""
        out: Expr = Num(0.0)
        for name, comp in zip(self.chart, self.components):
            out = add(out, mul(comp, diff(f, name)))
        return out

    def at(self, env: Mapping[str, float]) -> np.ndarray:
        return evaluate_envs(self.components, [env])[0]


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


@dataclass(frozen=True)
class OneForm:
    chart: tuple
    coeffs: tuple  # one Expr per chart coordinate

    def at(self, env) -> np.ndarray:
        return evaluate_envs(self.coeffs, [env])[0]


@dataclass(frozen=True)
class TwoForm:
    chart: tuple
    entries: Mapping  # {(a, b) with a < b: Expr}

    def matrix_at(self, env) -> np.ndarray:
        return self._matrices(evaluate_envs(tuple(self.entries.values()), [env]))[0]

    def matrices(self, points) -> np.ndarray:
        """Antisymmetric matrices at the rows of ``points`` (columns in chart order)."""
        return self._matrices(evaluate_batch(tuple(self.entries.values()), self.chart, points))

    def _matrices(self, values: np.ndarray) -> np.ndarray:
        dim = len(self.chart)
        M = np.zeros((values.shape[0], dim, dim))
        if self.entries:
            rows, cols = np.array(list(self.entries)).T
            M[:, rows, cols] = values
            M[:, cols, rows] = -values
        return M


@dataclass(frozen=True)
class ThreeForm:
    chart: tuple
    entries: Mapping  # {(a, b, c) with a < b < c: Expr}


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


def d_two(omega: TwoForm) -> ThreeForm:
    chart = omega.chart
    table: dict = {}
    for (a, b), coeff in omega.entries.items():
        for c, name in enumerate(chart):
            if c == a or c == b:
                continue
            partial = diff(coeff, name)
            if is_zero_expr(partial):
                continue
            # partial dx^c ^ dx^a ^ dx^b, sorted with sign
            if c < a:
                _put(table, (c, a, b), partial)
            elif c < b:
                _put(table, (a, c, b), neg(partial))
            else:
                _put(table, (a, b, c), partial)
    return ThreeForm(chart, table)


def contract_one(Y: VectorField, beta: OneForm) -> Expr:
    out: Expr = Num(0.0)
    for comp, coeff in zip(Y.components, beta.coeffs):
        out = add(out, mul(comp, coeff))
    return out


def contract_two(Y: VectorField, omega: TwoForm) -> OneForm:
    coeffs = [Num(0.0)] * len(omega.chart)
    for (a, b), e in omega.entries.items():
        # (i_Y omega)_b += Y^a e ; (i_Y omega)_a -= Y^b e
        coeffs[b] = add(coeffs[b], mul(Y.components[a], e))
        coeffs[a] = sub(coeffs[a], mul(Y.components[b], e))
    return OneForm(omega.chart, tuple(coeffs))


def contract_three(Y: VectorField, eta: ThreeForm) -> TwoForm:
    table: dict = {}
    for (a, b, c), e in eta.entries.items():
        _put(table, (b, c), mul(Y.components[a], e))
        _put(table, (a, c), neg(mul(Y.components[b], e)))
        _put(table, (a, b), mul(Y.components[c], e))
    return TwoForm(eta.chart, table)


def lie_derivative_one(Y: VectorField, beta: OneForm) -> OneForm:
    # Cartan: L_Y beta = i_Y d(beta) + d(i_Y beta)
    first = contract_two(Y, d_one(beta))
    second = d_function(contract_one(Y, beta), beta.chart)
    return OneForm(beta.chart, tuple(add(a, b) for a, b in zip(first.coeffs, second.coeffs)))


def lie_derivative_two(Y: VectorField, omega: TwoForm) -> TwoForm:
    first = contract_three(Y, d_two(omega))
    second = d_one(contract_two(Y, omega))
    table = dict(first.entries)
    for key, e in second.entries.items():
        _put(table, key, e)
    return TwoForm(omega.chart, table)


def pullback_function(chart: tuple, map_components: tuple, f: Expr) -> Expr:
    """(Phi^* f) = f o Phi for a self-map of the chart."""
    from .expr import substitute

    mapping = dict(zip(chart, map_components))
    return substitute(f, mapping)


def pullback_one_form(chart: tuple, map_components: tuple, beta: OneForm) -> OneForm:
    """(Phi^* beta)_a = sum_b (beta_b o Phi) dPhi^b/dx^a."""
    coeffs = []
    pulled = [pullback_function(chart, map_components, c) for c in beta.coeffs]
    for a, name in enumerate(chart):
        out: Expr = Num(0.0)
        for b, comp in enumerate(map_components):
            out = add(out, mul(pulled[b], diff(comp, name)))
        coeffs.append(out)
    return OneForm(chart, tuple(coeffs))


def largest_abs(values) -> float:
    """max |value| over an array of any shape, 0.0 when it is empty."""
    return float(np.max(np.abs(values), initial=0.0))


def max_abs(exprs, names, points) -> float:
    """Largest |value| of the expressions over the rows of ``points``."""
    return largest_abs(evaluate_batch(exprs, names, points))
