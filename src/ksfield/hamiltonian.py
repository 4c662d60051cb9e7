"""Hamiltonian-side geometry: canonical forms, field equations, k-vector fields."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundles import CoJetPoint, TangentVector, point_rows
from .coords import VarTable
from .expr import Expr, Num, Var, diff, evaluate_batch, free_vars, substitute
from .forms import OneForm, TwoForm


@dataclass(frozen=True)
class HamiltonianModel:
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
    coeffs = [Num(0.0)] * table.dim_total
    for i in range(table.n):
        coeffs[i] = Var(table.p(A, i))
    return OneForm(table.momentum_chart, tuple(coeffs))


def canonical_two_form(table: VarTable, A: int) -> TwoForm:
    """Canonical two-form dq^i ^ dp^A_i (equal to -d of the one-form)."""
    entries = {}
    for i in range(table.n):
        entries[(i, table.fiber_slot(i, A))] = Num(1.0)
    return TwoForm(table.momentum_chart, entries)


def canonical_two_form_matrix(table: VarTable, A: int) -> np.ndarray:
    dim = table.dim_total
    M = np.zeros((dim, dim))
    for i in range(table.n):
        slot = table.fiber_slot(i, A)
        M[i, slot] = 1.0
        M[slot, i] = -1.0
    return M


def canonical_forms_at(table: VarTable, A: int, w: CoJetPoint):
    """(coefficients of theta^A, matrix of omega^A) at the point w."""
    theta = np.zeros(table.dim_total)
    theta[: table.n] = w.p[A]
    return theta, canonical_two_form_matrix(table, A)


def pullback_by_section(
    table: VarTable, e: Expr, psi_base: Sequence[Expr], psi_momenta: Sequence[Sequence[Expr]]
) -> Expr:
    """Restrict an expression over (q, p) to a section psi(t) of the bundle."""
    mapping = {}
    for i, comp in enumerate(psi_base):
        mapping[table.q(i)] = comp
    for A in range(table.k):
        for i in range(table.n):
            mapping[table.p(A, i)] = psi_momenta[A][i]
    return substitute(e, mapping)


def hdw_residual(
    model: HamiltonianModel,
    psi_base: Sequence[Expr],
    psi_momenta: Sequence[Sequence[Expr]],
    t,
) -> np.ndarray:
    """Field-equation residual of the section psi at t, as 2n values.

    First block (i = 0..n-1):  dH/dq^i o psi + sum_A dpsi^A_i/dt^A.
    Second block: max over A of |dH/dp^A_i o psi - dpsi^i/dt^A|.
    ``t`` is one point (result (2n,)) or an (N, k) array (result (N, 2n)).
    """
    table = model.table
    n, k = table.n, table.k
    rows, single = point_rows(t, k)
    pairs = [(i, A) for i in range(n) for A in range(k)]
    exprs = [pullback_by_section(table, model.dHdq(i), psi_base, psi_momenta) for i in range(n)]
    exprs += [diff(psi_momenta[A][i], table.t(A)) for i, A in pairs]
    exprs += [pullback_by_section(table, model.dHdp(A, i), psi_base, psi_momenta) for i, A in pairs]
    exprs += [diff(psi_base[i], table.t(A)) for i, A in pairs]
    values = evaluate_batch(exprs, table.t_names, rows)
    div_p, dH_dp, dpsi = np.moveaxis(values[:, n:].reshape(-1, 3, n, k), 1, 0)  # each [N, i, A]
    out = np.empty((rows.shape[0], 2 * n))
    out[:, :n] = values[:, :n] + div_p.sum(axis=2)
    out[:, n:] = np.max(np.abs(dH_dp - dpsi), axis=2, initial=0.0)
    return out[0] if single else out


def ham_kvector(model: HamiltonianModel, w):
    """Canonical k-vector field legs at w solving sum_A i(X_A) omega^A = dH.

    Base components are forced: (X_A)^i = dH/dp^A_i.  Only the trace of the
    vertical block is constrained, so the equal-distribution representative
    (X_A)^B_i = -delta^B_A (1/k) dH/dq^i is returned; it is symmetric under
    relabeling of the copies and reduces to the classical field at k = 1.
    Returns k TangentVectors for one CoJetPoint, or the (N, k, dim) leg
    components for an (N, dim) array of momentum-chart rows.
    """
    table = model.table
    n, k = table.n, table.k
    rows, single = point_rows(w, table.dim_total)
    exprs = [model.dHdq(i) for i in range(n)]
    exprs += [model.dHdp(A, i) for A in range(k) for i in range(n)]
    values = evaluate_batch(exprs, table.momentum_chart, rows)
    legs = np.zeros((rows.shape[0], k, table.dim_total))
    for A in range(k):
        legs[:, A, :n] = values[:, n + A * n: n + (A + 1) * n]
        for i in range(n):
            legs[:, A, table.fiber_slot(i, A)] = -values[:, i] / k
    if single:
        return [TangentVector(w, legs[0, A]) for A in range(k)]
    return legs


def kvector_equation_residual(model: HamiltonianModel, w, legs):
    """Max-norm residual of sum_A i(X_A) omega^A - dH at w for given legs.

    One CoJetPoint with a list of k TangentVectors gives a float; an
    (N, dim) array of rows with (N, k, dim) leg components gives (N,).
    """
    table = model.table
    rows, single = point_rows(w, table.dim_total)
    if single:
        legs = np.array([leg.components for leg in legs])[None]
    covector = np.zeros(rows.shape)
    for A in range(table.k):
        covector += legs[:, A] @ canonical_two_form_matrix(table, A)
    grad = evaluate_batch(
        [diff(model.H, name) for name in table.momentum_chart], table.momentum_chart, rows
    )
    residual = np.max(np.abs(covector - grad), axis=1)
    return float(residual[0]) if single else residual
