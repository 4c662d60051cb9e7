"""Gauge equivalence of Lagrangians: decide and decompose L1 - L2.

Two Lagrangians are gauge equivalent exactly when their difference is
alpha-hat + constant with closed one-forms alpha^A on the base; a velocity-
free non-constant remainder keeps the two-forms equal but separates the
energies, which is reported as inequivalent (by energy).  All acceptance
steps are sampled; the alpha and remainder representatives are extracted
through the v = 0 slice, so models must be defined there.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .bundles import point_rows
from .coords import VarTable
from .expr import Expr, Num, Var, add, diff, evaluate_batch, mul, sub, substitute, to_source, total
from .forms import judge
from .lagrangian import LagrangianModel, el_residual
from .records import CheckFailure, Record, Report


class GaugeError(CheckFailure):
    pass


class GaugeDecomposition(Record, frozen=True):
    """L1 - L2 = alpha_hat + f + c with alpha^A one-forms on the base."""

    alpha: tuple       # k tuples of n coefficient expressions over q
    f: Expr            # velocity-free remainder (zero for gauge verdicts)
    c: float

    def alpha_hat(self, table: VarTable) -> Expr:
        coeffs = (a for row in self.alpha for a in row)  # in the order of v_names
        return total(map(mul, coeffs, map(Var, table.v_names)))

    def as_dict(self) -> dict:
        return {
            "alpha": [[to_source(c) for c in row] for row in self.alpha],
            "f": to_source(self.f),
            "c": self.c,
        }


class GaugeVerdict(Record, frozen=True):
    kind: str  # "strict" | "gauge" | "inequivalent"
    decomposition: Optional[GaugeDecomposition] = None
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        out = {"verdict": self.kind}
        if self.decomposition is not None:
            out["decomposition"] = self.decomposition.as_dict()
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _zero_velocity_map(table: VarTable) -> dict:
    return {name: Num(0.0) for name in table.v_names}


def gauge_compare(
    L1: LagrangianModel,
    L2: LagrangianModel,
    samples: Sequence,
    tol: float = 1e-9,
    closedness_tol: float = 1e-10,
) -> GaugeVerdict:
    """Classify the pair: strict, gauge (with decomposition), or inequivalent.

    Steps, each sampled at the given jet points: (1) the difference must be
    velocity-affine; (2) its velocity gradient must be a base one-form;
    (3) that one-form must be closed; (4) the velocity-free remainder must
    be constant (energy matching) and the reconstruction must close.
    """
    if L1.table != L2.table:
        raise GaugeError("models use different coordinate tables")
    table = L1.table
    chart = table.velocity_chart
    D = sub(L1.L, L2.L)
    rows = point_rows(samples, len(chart))
    if not len(rows):
        raise GaugeError("need sample points")

    # (1) no quadratic-or-higher velocity dependence; entries are evaluated
    # one at a time, so the first entry over tol decides the verdict even
    # when a later entry leaves its domain somewhere in the samples
    for a, name_a in enumerate(table.v_names):
        first = diff(D, name_a)
        for name_b in table.v_names[a:]:
            report = judge("two_forms_differ", tol, evaluate_batch([diff(first, name_b)], chart, rows))
            if not report.passed:
                return _witness(report, rows, entry=f"d2(L1-L2)/d{name_a} d{name_b}")

    # (2) base one-form coefficients from the v = 0 slice
    zero_v = _zero_velocity_map(table)
    alpha = tuple(
        tuple(
            substitute(diff(D, table.v(i, A)), zero_v) for i in range(table.n)
        )
        for A in range(table.k)
    )

    # (3) closedness of every alpha^A
    for A in range(table.k):
        for i in range(table.n):
            for j in range(i + 1, table.n):
                curl = sub(diff(alpha[A][i], table.q(j)), diff(alpha[A][j], table.q(i)))
                report = judge("alpha_not_closed", closedness_tol, evaluate_batch([curl], chart, rows))
                if not report.passed:
                    return _witness(report, rows, entry=f"d(alpha^{A + 1})[{i + 1},{j + 1}]")

    # (4) the remainder must be constant, or the energies separate
    remainder = substitute(D, zero_v)
    gradient = [diff(remainder, table.q(i)) for i in range(table.n)]
    energies = judge("energies_differ", tol, evaluate_batch(gradient, chart, rows))
    c = float(evaluate_batch([remainder], chart, rows[:1])[0, 0])
    if not energies.passed:
        diagnostic = GaugeDecomposition(alpha, sub(remainder, Num(c)), c)
        return GaugeVerdict(
            "inequivalent",
            decomposition=diagnostic,
            witness={"reason": "energies_differ", "value": energies.max_residual},
        )

    decomposition = GaugeDecomposition(alpha, Num(0.0), c)
    reconstruction = sub(D, add(decomposition.alpha_hat(table), Num(c)))
    report = judge("reconstruction_failed", tol, evaluate_batch([reconstruction], chart, rows))
    if not report.passed:
        return _witness(report, rows)

    coeffs = [coeff for row in alpha for coeff in row]
    strict = judge("strict", tol, evaluate_batch(coeffs, chart, rows)).passed
    return GaugeVerdict("strict" if strict else "gauge", decomposition=decomposition)


def _witness(report: Report, rows, **fields) -> GaugeVerdict:
    """Inequivalence witnessed by a failed check at its worst sample row."""
    point = rows[report.worst_row].tolist()
    return GaugeVerdict("inequivalent", witness=dict(
        fields, reason=report.condition, value=report.max_residual, point=point))


def verify_same_solutions(
    L1: LagrangianModel,
    L2: LagrangianModel,
    phi: Sequence[Expr],
    t_samples: np.ndarray,
    tol: float = 1e-9,
) -> Report:
    """Field-equation residuals under both Lagrangians agree along phi."""
    if L1.table != L2.table:
        raise GaugeError("models use different coordinate tables")
    t_rows = point_rows(t_samples, L1.table.k)
    gap = el_residual(L1, phi, t_rows) - el_residual(L2, phi, t_rows)
    return judge("equal_field_equation_residuals", tol, gap)
