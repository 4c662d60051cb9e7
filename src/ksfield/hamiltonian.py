"""Hamiltonian-side geometry: canonical forms, field equations, k-vector fields."""

from __future__ import annotations

import numpy as np

from .bundles import BundleError, Section, point_rows
from .coords import VarTable
from .expr import Expr, Num, Var, diff, evaluate_batch, free_vars
from .forms import OneForm, TwoForm
from .records import Record


class HamiltonianModel(Record, frozen=True):
    table: VarTable
    H: Expr

    def __post_init__(self):
        allowed = set(self.table.q_names) | set(self.table.p_names)
        extra = free_vars(self.H) - allowed
        if extra:
            raise ValueError(
                f"Hamiltonian must depend on (q, p) only; found {sorted(extra)[0]}"
            )

    def dHdq(self, i: int) -> Expr:
        return diff(self.H, self.table.q(i))

    def dHdp(self, A: int, i: int) -> Expr:
        return diff(self.H, self.table.p(A, i))


def canonical_one_form(table: VarTable, A: int) -> OneForm:
    """Tautological one-form of the A-th copy: p^A_i dq^i."""
    base = tuple(Var(table.p(A, i)) for i in range(table.n))
    return OneForm(table.momentum_chart, base + (Num(0.0),) * (table.dim_total - table.n))


def canonical_two_form(table: VarTable, A: int) -> TwoForm:
    """Canonical two-form dq^i ^ dp^A_i (equal to -d of the one-form)."""
    entries = {(i, table.fiber_slot(i, A)): Num(1.0) for i in range(table.n)}
    return TwoForm(table.momentum_chart, entries)


def hdw_residual(model: HamiltonianModel, section: Section, t) -> np.ndarray:
    """Field-equation residual of the section psi at the (N, k) parameter rows t, shape (N, 2n).

    First block (i = 0..n-1):  dH/dq^i o psi + sum_A dpsi^A_i/dt^A.
    Second block: max over A of |dH/dp^A_i o psi - dpsi^i/dt^A|.
    """
    table = model.table
    n, k = table.n, table.k
    rows = point_rows(t, k)
    psi = section.components
    pairs = [(i, A) for i in range(n) for A in range(k)]
    exprs = [section.restrict(model.dHdq(i)) for i in range(n)]
    exprs += [diff(psi[table.fiber_slot(i, A)], table.t(A)) for i, A in pairs]
    exprs += [section.restrict(model.dHdp(A, i)) for i, A in pairs]
    exprs += [diff(psi[i], table.t(A)) for i, A in pairs]
    # row-major: div_p.sum then runs over contiguous A, whatever the layout of t
    values = np.ascontiguousarray(evaluate_batch(exprs, table.t_names, rows))
    div_p, dH_dp, dpsi = np.moveaxis(values[:, n:].reshape(-1, 3, n, k), 1, 0)  # each [N, i, A]
    out = np.empty((rows.shape[0], 2 * n))
    out[:, :n] = values[:, :n] + div_p.sum(axis=2)
    out[:, n:] = np.max(np.abs(dH_dp - dpsi), axis=2, initial=0.0)
    return out


def ham_kvector(model: HamiltonianModel, w):
    """Canonical k-vector field legs at the rows of w solving sum_A i(X_A) omega^A = dH.

    Base components are forced: (X_A)^i = dH/dp^A_i.  Only the trace of the
    vertical block is constrained, so the equal-distribution representative
    (X_A)^B_i = -delta^B_A (1/k) dH/dq^i is returned; it is symmetric under
    relabeling of the copies and reduces to the classical field at k = 1.
    Returns the (N, k, dim) leg components at the (N, dim) momentum-chart rows.
    """
    table = model.table
    n, k = table.n, table.k
    rows = point_rows(w, table.dim_total)
    exprs = [model.dHdq(i) for i in range(n)]
    exprs += [model.dHdp(A, i) for A in range(k) for i in range(n)]
    values = evaluate_batch(exprs, table.momentum_chart, rows)
    legs = np.zeros((rows.shape[0], k, table.dim_total))
    for A in range(k):
        legs[:, A, :n] = values[:, n + A * n: n + (A + 1) * n]
        for i in range(n):
            legs[:, A, table.fiber_slot(i, A)] = -values[:, i] / k
    return legs


def kvector_equation_residual(model: HamiltonianModel, w, legs):
    """Max-norm residuals of sum_A i(X_A) omega^A - dH, shape (N,), at the
    (N, dim) rows of w for their (N, k, dim) leg components."""
    table = model.table
    rows = point_rows(w, table.dim_total)
    shape = (rows.shape[0], table.k, table.dim_total)
    if np.shape(legs) != shape:
        raise BundleError(f"legs must have shape {shape}, got {np.shape(legs)}")
    n, covector = table.n, np.zeros(rows.shape, order="F")  # grad's layout: one streaming pass
    for A in range(table.k):  # i(X_A)(dq^i ^ dp^A_i) = X_A^i dp^A_i - X_A^{p^A_i} dq^i
        fiber = slice(table.fiber_slot(0, A), table.fiber_slot(0, A) + n)
        covector[:, :n] -= legs[:, A, fiber]
        covector[:, fiber] += legs[:, A, :n]
    grad = evaluate_batch(
        [diff(model.H, name) for name in table.momentum_chart], table.momentum_chart, rows
    )
    return np.max(np.abs(covector - grad), axis=1)
