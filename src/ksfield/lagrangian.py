"""Lagrangian-side geometry: Cartan forms, energy, Legendre map, field equations.

All objects derive from a single Lagrangian expression L(q, v); the
one/two-forms are built symbolically so downstream Lie derivatives stay
exact.  Numeric functions take an (N, dim) matrix of velocity-chart rows (or
(N, k) parameter rows) and return arrays with one leading row per point.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bundles import Section, fold_constant, point_rows
from .coords import VarTable
from .expr import Expr, Num, Var, diff, evaluate_batch, free_vars, mul, sub, total
from .forms import OneForm, TwoForm, d_one, judge
from .records import CheckFailure, Record


# velocity Hessians H of size m with |det H| <= REGULARITY_RTOL max(1, max|H|)^m are singular
REGULARITY_RTOL = 1e-10


class RegularityError(CheckFailure):
    """Raised when an operation needs a regular Lagrangian and the velocity
    Hessian is singular at the working point."""


class LagrangianModel(Record, frozen=True):
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
    base = tuple(model.dLdv(i, A) for i in range(table.n))
    return OneForm(table.velocity_chart, base + (Num(0.0),) * (table.dim_total - table.n))


def lagrangian_two_form(model: LagrangianModel, A: int) -> TwoForm:
    """Two-form -d(theta^A_L), kept symbolic."""
    theta = poincare_cartan_form(model, A)
    d_theta = d_one(theta)
    return TwoForm(theta.chart, {key: mul(Num(-1.0), e) for key, e in d_theta.entries.items()})


def energy(model: LagrangianModel) -> Expr:
    """Energy function: v^i_A dL/dv^i_A - L."""
    velocities = map(Var, model.table.v_names)  # in the order of legendre_exprs
    return sub(total(map(mul, velocities, legendre_exprs(model))), model.L)


def hessian_entries(model: LagrangianModel) -> list:
    """d2L/dv_a dv_b for a <= b, row by row over the velocities in v_names order."""
    firsts, names = legendre_exprs(model), model.table.v_names  # dL/dv in v_names order
    return [diff(firsts[a], names[b]) for a in range(len(names)) for b in range(a, len(names))]


def velocity_hessian(model: LagrangianModel, w, det_rtol: float = REGULARITY_RTOL):
    """Hessians in the velocities at the rows of w, flattened per the chart fiber order.

    Returns the (N, nk, nk) matrices and the (N,) flags regular; a row is regular iff
    |det(M / s)| > det_rtol with s = max(1, max|entry|), a scale-relative threshold,
    invariant under unit changes, that cannot overflow.  With constant entries both
    are found at row 0 alone and come back as read-only broadcast views.
    """
    table = model.table
    nk = table.n * table.k
    rows = point_rows(w, table.dim_total)
    seconds = hessian_entries(model)
    upper, lower = np.triu_indices(nk)

    def stack(rows):
        values = evaluate_batch(seconds, table.velocity_chart, rows)
        M = np.zeros((rows.shape[0], nk, nk))
        M[:, upper, lower] = values
        M[:, lower, upper] = values
        scale = np.maximum(1.0, np.max(np.abs(M), axis=(1, 2), initial=0.0))
        return M, np.abs(np.linalg.det(M / scale[:, None, None])) > det_rtol

    return fold_constant(stack, seconds, rows)


def legendre_exprs(model: LagrangianModel) -> tuple:
    """Momentum components of the fiber derivative, ordered like p_names."""
    table = model.table
    return tuple(model.dLdv(i, A) for A in range(table.k) for i in range(table.n))


def legendre(model: LagrangianModel, w):
    """Fiber derivative of L at the rows of w: the same q, and p^A_i = dL/dv^i_A,
    as the (N, dim) momentum-chart rows of the images."""
    table = model.table
    rows = point_rows(w, table.dim_total)
    images = rows.copy()
    images[:, table.n:] = evaluate_batch(legendre_exprs(model), table.velocity_chart, rows)
    return images


def legendre_jacobian(model: LagrangianModel, w) -> np.ndarray:
    """Jacobians of the fiber derivative at the rows of w, shape (N, dim, dim)
    (rows: (q, p), cols: (q, v))."""
    table = model.table
    n, dim = table.n, table.dim_total
    rows = point_rows(w, dim)
    chart = table.velocity_chart
    derivatives = [diff(comp, name) for comp in legendre_exprs(model) for name in chart]
    J = np.zeros((rows.shape[0], dim, dim))
    J[:, :n, :n] = np.eye(n)
    J[:, n:] = evaluate_batch(derivatives, chart, rows).reshape(-1, dim - n, dim)
    return J


def el_residual(model: LagrangianModel, phi: Sequence[Expr], t) -> np.ndarray:
    """Euler-Lagrange residual of the map phi at the (N, k) parameter rows t, shape (N, n).

    residual^i = sum_A d/dt^A [dL/dv^i_A o phi^(1)] - dL/dq^i o phi^(1),
    expanded by symbolic substitution and differentiation in t (no numeric
    differencing along t); the residual expressions are built once and
    evaluated over all rows.
    """
    table = model.table
    rows = point_rows(t, table.k)
    section = Section.prolongation(table, phi)
    residuals = [
        sub(total(diff(section.restrict(model.dLdv(i, A)), table.t(A)) for A in range(table.k)),
            section.restrict(model.dLdq(i)))
        for i in range(table.n)
    ]
    return evaluate_batch(residuals, table.t_names, rows)


def sopde_solve(model: LagrangianModel, w, residual_tol: float = 1e-9):
    """Second-order field-equation legs at the rows of w for a regular Lagrangian.

    Base components are forced to v^i_A; the vertical coefficients solve the
    n coupled equations

        sum_{A,j} d2L/dq^j dv^i_A v^j_A + sum_{A,j,B} d2L/dv^i_A dv^j_B G[A][j][B] = dL/dq^i

    with the symmetric minimal-norm selection G[A][j][B] = G[B][j][A] of
    least Euclidean norm over the full coefficient tensor.  Returns the
    (N, k, dim) leg components.
    """
    table = model.table
    n, k = table.n, table.k
    rows = point_rows(w, table.dim_total)
    count = rows.shape[0]
    H, regular = velocity_hessian(model, rows)
    if not np.all(regular):
        raise RegularityError("velocity Hessian is singular at the given point")

    # rhs_i = dL/dq^i - sum_{A,j} d2L/dq^j dv^i_A v^j_A
    exprs = [model.dLdq(i) for i in range(n)]
    exprs += [
        diff(model.dLdv(i, A), table.q(j)) for i in range(n) for A in range(k) for j in range(n)
    ]
    # row-major views: the einsum and the pinv product below sum in a layout-dependent order
    values = np.ascontiguousarray(evaluate_batch(exprs, table.velocity_chart, rows))
    mixed = values[:, n:].reshape(count, n, k, n)  # [N, i, A, j]
    velocities = np.ascontiguousarray(rows)[:, n:].reshape(count, k, n)  # [N, A, j]
    rhs = values[:, :n] - np.einsum("niaj,naj->ni", mixed, velocities)

    # Unknown s[(a<=b), j] multiplies H[(i,a),(j,b)] (+ H[(i,b),(j,a)] when
    # a != b) in equation i; off-diagonal pairs carry weight sqrt(2) so the
    # minimal norm is that of the full coefficient tensor, which makes the
    # selection invariant under relabelings of the copy index.
    unknowns = [(a, b, j) for a in range(k) for b in range(a, k) for j in range(n)]
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
    pinv = fold_constant(lambda m: np.linalg.pinv(m, rcond=rcond), hessian_entries(model), scaled)
    s = (pinv @ rhs[:, :, None])[:, :, 0] / weights

    report = judge("sopde_residual", residual_tol, np.einsum("nic,nc->ni", M, s) - rhs)
    if not report.passed:
        raise RegularityError(
            f"no symmetric vertical coefficients within tolerance: residual {report.max_residual:.3e}"
        )

    legs = np.zeros((count, k, table.dim_total))  # legs[N, A, slot]
    for A in range(k):
        legs[:, A, :n] = rows[:, n + A * n: n + (A + 1) * n]
    for col, (a, b, j) in enumerate(unknowns):
        legs[:, a, table.fiber_slot(j, b)] = s[:, col]
        legs[:, b, table.fiber_slot(j, a)] = s[:, col]
    return legs
