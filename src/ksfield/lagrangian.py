"""Lagrangian-side geometry: Cartan forms, energy, Legendre map, field equations.

All objects derive from a single Lagrangian expression L(q, v); the
one/two-forms are built symbolically so downstream Lie derivatives stay
exact, and point evaluations return plain numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundles import CoJetPoint, JetPoint, TangentVector, point_rows, pullback_by_prolongation
from .coords import VarTable
from .expr import Expr, Num, Var, add, diff, evaluate_batch, evaluate_envs, free_vars, mul, sub
from .forms import OneForm, TwoForm, d_one


class RegularityError(ValueError):
    """Raised when an operation needs a regular Lagrangian and the velocity
    Hessian is singular at the working point."""


@dataclass(frozen=True)
class LagrangianModel:
    table: VarTable
    L: Expr

    def __post_init__(self):
        allowed = set(self.table.q_names) | set(self.table.v_names)
        extra = free_vars(self.L) - allowed
        if extra:
            raise ValueError(
                f"Lagrangian must depend on (q, v) only; found {sorted(extra)[0]}"
            )

    def dLdv(self, i: int, A: int) -> Expr:
        return diff(self.L, self.table.v(i, A))

    def dLdq(self, i: int) -> Expr:
        return diff(self.L, self.table.q(i))


def poincare_cartan_form(model: LagrangianModel, A: int) -> OneForm:
    """One-form dL o S^A: coefficients dL/dv^i_A on dq^i, zero on the fibers."""
    table = model.table
    coeffs = [Num(0.0)] * table.dim_total
    for i in range(table.n):
        coeffs[i] = model.dLdv(i, A)
    return OneForm(table.velocity_chart, tuple(coeffs))


def lagrangian_two_form(model: LagrangianModel, A: int) -> TwoForm:
    """Two-form -d(theta^A_L), kept symbolic."""
    theta = poincare_cartan_form(model, A)
    d_theta = d_one(theta)
    return TwoForm(theta.chart, {key: mul(Num(-1.0), e) for key, e in d_theta.entries.items()})


def lagrangian_two_form_at(model: LagrangianModel, A: int, w: JetPoint) -> np.ndarray:
    """Evaluate the A-th two-form at w as an antisymmetric matrix."""
    return lagrangian_two_form(model, A).matrix_at(w.env())


def energy(model: LagrangianModel) -> Expr:
    """Energy function: v^i_A dL/dv^i_A - L."""
    table = model.table
    out: Expr = Num(0.0)
    for A in range(table.k):
        for i in range(table.n):
            out = add(out, mul(Var(table.v(i, A)), model.dLdv(i, A)))
    return sub(out, model.L)


def velocity_hessian(model: LagrangianModel, w, det_rtol: float = 1e-10):
    """Hessian in the velocities at w, flattened per the chart fiber order.

    Returns (matrix, regular); regular iff |det| > det_rtol * max(1, max|entry|^(nk)),
    a scale-relative threshold so the verdict is invariant under unit changes.
    Given an (N, dim) array of velocity-chart rows instead of one JetPoint,
    returns the (N, nk, nk) matrices and the (N,) regularity flags.
    """
    table = model.table
    nk = table.n * table.k
    rows, single = point_rows(w, table.dim_total)
    names = table.v_names
    pairs = [(a, b) for a in range(nk) for b in range(a, nk)]
    firsts = [diff(model.L, name) for name in names]
    seconds = [diff(firsts[a], names[b]) for a, b in pairs]
    values = evaluate_batch(seconds, table.velocity_chart, rows)
    M = np.zeros((rows.shape[0], nk, nk))
    upper, lower = np.array(pairs, dtype=int).reshape(-1, 2).T
    M[:, upper, lower] = values
    M[:, lower, upper] = values
    det = np.linalg.det(M)
    scale = np.maximum(1.0, np.max(np.abs(M), axis=(1, 2), initial=0.0) ** nk)
    regular = np.abs(det) > det_rtol * scale
    if single:
        return M[0], bool(regular[0])
    return M, regular


def legendre_exprs(model: LagrangianModel) -> tuple:
    """Momentum components of the fiber derivative, ordered like p_names."""
    table = model.table
    return tuple(model.dLdv(i, A) for A in range(table.k) for i in range(table.n))


def legendre(model: LagrangianModel, w: JetPoint) -> CoJetPoint:
    """Fiber derivative of L at w: p^A_i = dL/dv^i_A."""
    table = model.table
    p = evaluate_envs(legendre_exprs(model), [w.env()])[0].reshape(table.k, table.n)
    return CoJetPoint(table, w.q.copy(), p)


def legendre_jacobian(model: LagrangianModel, w: JetPoint) -> np.ndarray:
    """Jacobian of the fiber derivative at w (rows: (q, p), cols: (q, v))."""
    table = model.table
    dim = table.dim_total
    chart = table.velocity_chart
    derivatives = [diff(comp, name) for comp in legendre_exprs(model) for name in chart]
    J = np.zeros((dim, dim))
    J[: table.n, : table.n] = np.eye(table.n)
    J[table.n:] = evaluate_envs(derivatives, [w.env()])[0].reshape(dim - table.n, dim)
    return J


def el_residual(model: LagrangianModel, phi: Sequence[Expr], t) -> np.ndarray:
    """Euler-Lagrange residual of the map phi at parameter value t.

    residual^i = sum_A d/dt^A [dL/dv^i_A o phi^(1)] - dL/dq^i o phi^(1),
    expanded by symbolic substitution and differentiation in t (no numeric
    differencing along t).  ``t`` is one point (k values, result (n,)) or
    an (N, k) array (result (N, n)); the residual expressions are built
    once and evaluated over all rows.
    """
    table = model.table
    rows, single = point_rows(t, table.k)
    totals = []
    for i in range(table.n):
        total: Expr = Num(0.0)
        for A in range(table.k):
            restricted = pullback_by_prolongation(table, model.dLdv(i, A), phi)
            total = add(total, diff(restricted, table.t(A)))
        totals.append(sub(total, pullback_by_prolongation(table, model.dLdq(i), phi)))
    out = evaluate_batch(totals, table.t_names, rows)
    return out[0] if single else out


def _symmetric_pairs(k: int):
    return [(a, b) for a in range(k) for b in range(a, k)]


def sopde_solve(model: LagrangianModel, w, residual_tol: float = 1e-9):
    """Second-order field-equation legs at w for a regular Lagrangian.

    Base components are forced to v^i_A; the vertical coefficients solve the
    n coupled equations

        sum_{A,j} d2L/dq^j dv^i_A v^j_A + sum_{A,j,B} d2L/dv^i_A dv^j_B G[A][j][B] = dL/dq^i

    with the symmetric minimal-norm selection G[A][j][B] = G[B][j][A] of
    least Euclidean norm over the full coefficient tensor.  Returns k
    TangentVectors for one JetPoint, or the (N, k, dim) leg components for
    an (N, dim) array of velocity-chart rows.
    """
    table = model.table
    n, k = table.n, table.k
    rows, single = point_rows(w, table.dim_total)
    count = rows.shape[0]
    H, regular = velocity_hessian(model, rows)
    if not np.all(regular):
        raise RegularityError("velocity Hessian is singular at the given point")

    # rhs_i = dL/dq^i - sum_{A,j} d2L/dq^j dv^i_A v^j_A
    exprs = [model.dLdq(i) for i in range(n)]
    exprs += [
        diff(model.dLdv(i, A), table.q(j)) for i in range(n) for A in range(k) for j in range(n)
    ]
    values = evaluate_batch(exprs, table.velocity_chart, rows)
    mixed = values[:, n:].reshape(count, n, k, n)  # [N, i, A, j]
    velocities = rows[:, n:].reshape(count, k, n)  # [N, A, j]
    rhs = values[:, :n] - np.einsum("niaj,naj->ni", mixed, velocities)

    # Unknown s[(a<=b), j] multiplies H[(i,a),(j,b)] (+ H[(i,b),(j,a)] when
    # a != b) in equation i; off-diagonal pairs carry weight sqrt(2) so the
    # minimal norm is that of the full coefficient tensor, which makes the
    # selection invariant under relabelings of the copy index.
    unknowns = [(a, b, j) for a, b in _symmetric_pairs(k) for j in range(n)]
    M = np.zeros((count, n, len(unknowns)))
    weights = np.zeros(len(unknowns))
    for col, (a, b, j) in enumerate(unknowns):
        weights[col] = np.sqrt(2.0) if a != b else 1.0
        M[:, :, col] = H[:, a * n: (a + 1) * n, b * n + j]
        if a != b:
            M[:, :, col] += H[:, b * n: (b + 1) * n, a * n + j]

    # minimal-norm least squares for every row at once; the cutoff is the
    # one lstsq uses by default (machine epsilon times the larger dimension)
    scaled = M / weights
    rcond = np.finfo(float).eps * max(scaled.shape[1:])
    s = (np.linalg.pinv(scaled, rcond=rcond) @ rhs[:, :, None])[:, :, 0] / weights

    residual = float(np.max(np.abs(np.einsum("nic,nc->ni", M, s) - rhs))) if rhs.size else 0.0
    if residual > residual_tol:
        raise RegularityError(
            f"no symmetric vertical coefficients within tolerance: residual {residual:.3e}"
        )

    legs = np.zeros((count, k, table.dim_total))  # legs[N, A, slot]
    for A in range(k):
        legs[:, A, :n] = rows[:, n + A * n: n + (A + 1) * n]
    for col, (a, b, j) in enumerate(unknowns):
        legs[:, a, table.fiber_slot(j, b)] = s[:, col]
        legs[:, b, table.fiber_slot(j, a)] = s[:, col]
    if single:
        return [TangentVector(w, legs[0, A]) for A in range(k)]
    return legs
