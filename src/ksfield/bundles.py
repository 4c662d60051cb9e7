"""Points and maps of the k-velocity bundle and its dual.

Conventions: a JetPoint stores q (n,) and v (n, k) with v[i, A] the A-th
velocity of the i-th field coordinate; a CoJetPoint stores p (k, n) with
p[A, i].  Flat component vectors follow the chart ordering of
:mod:`ksfield.coords` (base block, then k fiber blocks of n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .coords import VarTable
from .expr import (
    Expr,
    Num,
    Var,
    add,
    diff,
    evaluate_batch,
    evaluate_envs,
    free_vars,
    mul,
    substitute,
)
from .forms import VectorField


class BundleError(ValueError):
    pass


def _as_finite(array, shape, what: str) -> np.ndarray:
    out = np.asarray(array, dtype=float)
    if out.shape != shape:
        raise BundleError(f"{what} must have shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise BundleError(f"{what} has non-finite entries")
    return out


@dataclass
class JetPoint:
    """A point of the k-velocity bundle: q in R^n, v in R^(n x k)."""

    table: VarTable
    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        n, k = self.table.n, self.table.k
        self.q = _as_finite(self.q, (n,), "q")
        self.v = _as_finite(self.v, (n, k), "v")

    def env(self) -> dict:
        out = dict(zip(self.table.q_names, self.q))
        out.update(zip(self.table.v_names, self.v.T.reshape(-1)))
        return out

    def flat(self) -> np.ndarray:
        return np.concatenate([self.q, self.v.T.reshape(-1)])

    @classmethod
    def from_flat(cls, table: VarTable, row) -> "JetPoint":
        """Inverse of :meth:`flat`: a point from its velocity-chart coordinates."""
        n, k = table.n, table.k
        return cls(table, row[:n], np.reshape(row[n:], (k, n)).T)


@dataclass
class CoJetPoint:
    """A point of the k-covelocity bundle: q in R^n, p in R^(k x n)."""

    table: VarTable
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        n, k = self.table.n, self.table.k
        self.q = _as_finite(self.q, (n,), "q")
        self.p = _as_finite(self.p, (k, n), "p")

    def env(self) -> dict:
        out = dict(zip(self.table.q_names, self.q))
        out.update(zip(self.table.p_names, self.p.reshape(-1)))
        return out

    def flat(self) -> np.ndarray:
        return np.concatenate([self.q, self.p.reshape(-1)])

    @classmethod
    def from_flat(cls, table: VarTable, row) -> "CoJetPoint":
        """Inverse of :meth:`flat`: a point from its momentum-chart coordinates."""
        n, k = table.n, table.k
        return cls(table, row[:n], np.reshape(row[n:], (k, n)))


def point_rows(points, dim: int):
    """Coordinates of ``points`` as an (N, dim) matrix, and whether one point was given.

    ``points`` is a JetPoint or CoJetPoint, a sequence of them, or an array
    of coordinate rows in chart order; a 1-D array is a single point.
    """
    if isinstance(points, (JetPoint, CoJetPoint)):
        return points.flat()[None, :], True
    if not isinstance(points, np.ndarray):
        points = [w.flat() if isinstance(w, (JetPoint, CoJetPoint)) else w for w in points]
    rows = np.asarray(points, dtype=float)
    single = rows.ndim == 1 and rows.size > 0
    rows = rows.reshape(-1, dim) if rows.size == 0 else np.atleast_2d(rows)
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise BundleError(f"points must have {dim} coordinates, got shape {rows.shape}")
    return rows, single


@dataclass
class TangentVector:
    """Tangent vector at a bundle point, components in the chart basis."""

    base: object  # JetPoint or CoJetPoint
    components: np.ndarray

    def __post_init__(self):
        dim = self.base.table.dim_total
        self.components = _as_finite(self.components, (dim,), "components")

    @property
    def table(self) -> VarTable:
        return self.base.table


@dataclass(frozen=True)
class VectorFieldQ:
    """Vector field on Q: n expression components over the base coordinates."""

    table: VarTable
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.table.n:
            raise BundleError(f"expected {self.table.n} components")
        allowed = set(self.table.q_names)
        for comp in self.components:
            extra = free_vars(comp) - allowed
            if extra:
                raise BundleError(
                    f"component depends on non-base coordinate {sorted(extra)[0]}"
                )

    def at(self, q: np.ndarray) -> np.ndarray:
        return evaluate_envs(self.components, [dict(zip(self.table.q_names, q))])[0]


@dataclass(frozen=True)
class KVectorField:
    """k tangent-vector legs, each a symbolic vector field on the total space."""

    table: VarTable
    side: str  # "lagrangian" | "hamiltonian"
    legs: tuple  # k VectorField values on table.chart(side)

    def __post_init__(self):
        if len(self.legs) != self.table.k:
            raise BundleError(f"expected {self.table.k} legs")
        chart = self.table.chart(self.side)
        for leg in self.legs:
            if leg.chart != chart:
                raise BundleError("leg chart does not match the declared side")

    def legs_at(self, w) -> list:
        env = w.env()
        return [TangentVector(w, leg.at(env)) for leg in self.legs]


# ---------------------------------------------------------------------------
# prolongation of maps R^k -> Q

def first_prolongation(table: VarTable, phi: Sequence[Expr], t: Sequence[float]) -> JetPoint:
    """Lift phi to the velocity bundle at t: (phi^i(t), dphi^i/dt^A(t))."""
    phi = tuple(phi)
    if len(phi) != table.n:
        raise BundleError(f"expected {table.n} map components")
    allowed = set(table.t_names)
    for comp in phi:
        extra = free_vars(comp) - allowed
        if extra:
            raise BundleError(f"map component depends on {sorted(extra)[0]}")
    jets = phi + tuple(diff(c, table.t(A)) for c in phi for A in range(table.k))
    t_row, _ = point_rows(t, table.k)
    values = evaluate_batch(jets, table.t_names, t_row)[0]
    return JetPoint(table, values[: table.n], values[table.n:].reshape(table.n, table.k))


def pullback_by_prolongation(table: VarTable, e: Expr, phi: Sequence[Expr]) -> Expr:
    """Restrict an expression over (q, v) to the first prolongation of phi.

    Substitutes q^i -> phi^i(t) and v^i_A -> dphi^i/dt^A(t), yielding an
    expression in the parameters t alone.
    """
    mapping = {}
    for i, comp in enumerate(phi):
        mapping[table.q(i)] = comp
        for A in range(table.k):
            mapping[table.v(i, A)] = diff(comp, table.t(A))
    return substitute(e, mapping)


# ---------------------------------------------------------------------------
# lifts and the canonical structures

def _check_copy_index(table: VarTable, A: int):
    if not (0 <= A < table.k):
        raise BundleError(f"copy index {A} out of range 0..{table.k - 1}")


def vertical_lift(Z: VectorFieldQ, A: int, w: JetPoint) -> TangentVector:
    """Vertical A-lift of Z at w: Z^i(q) placed in the v^i_A slots."""
    table = Z.table
    _check_copy_index(table, A)
    comps = np.zeros(table.dim_total)
    values = Z.at(w.q)
    for i in range(table.n):
        comps[table.fiber_slot(i, A)] = values[i]
    return TangentVector(w, comps)


def vertical_endomorphism(A: int, X: TangentVector) -> TangentVector:
    """Apply the A-th canonical tensor: dq^i components move to the v^i_A slots."""
    table = X.table
    _check_copy_index(table, A)
    comps = np.zeros(table.dim_total)
    for i in range(table.n):
        comps[table.fiber_slot(i, A)] = X.components[i]
    return TangentVector(X.base, comps)


def liouville_field(A: int, w: JetPoint) -> TangentVector:
    """Generator of scaling of the A-th fiber copy: v^i_A in the v^i_A slots."""
    table = w.table
    _check_copy_index(table, A)
    comps = np.zeros(table.dim_total)
    for i in range(table.n):
        comps[table.fiber_slot(i, A)] = w.v[i, A]
    return TangentVector(w, comps)


def complete_lift(Z: VectorFieldQ) -> VectorField:
    """Lift to the velocity bundle: Z^i d/dq^i + v^j_A dZ^i/dq^j d/dv^i_A."""
    table = Z.table
    chart = table.velocity_chart
    comps = [Num(0.0)] * table.dim_total
    for i in range(table.n):
        comps[i] = Z.components[i]
    for i in range(table.n):
        for A in range(table.k):
            out: Expr = Num(0.0)
            for j in range(table.n):
                out = add(
                    out,
                    mul(Var(table.v(j, A)), diff(Z.components[i], table.q(j))),
                )
            comps[table.fiber_slot(i, A)] = out
    return VectorField(chart, tuple(comps))


def cotangent_lift(Z: VectorFieldQ) -> VectorField:
    """Lift to the covelocity bundle: Z^i d/dq^i - p^A_j dZ^j/dq^i d/dp^A_i."""
    table = Z.table
    chart = table.momentum_chart
    comps = [Num(0.0)] * table.dim_total
    for i in range(table.n):
        comps[i] = Z.components[i]
    for i in range(table.n):
        for A in range(table.k):
            out: Expr = Num(0.0)
            for j in range(table.n):
                out = add(
                    out,
                    mul(Var(table.p(A, j)), diff(Z.components[j], table.q(i))),
                )
            comps[table.fiber_slot(i, A)] = mul(Num(-1.0), out)
    return VectorField(chart, tuple(comps))


def tulczyjew_derivative(table: VarTable, g: Sequence[Expr]) -> Expr:
    """Total-derivative lift of g: R^n -> R^k, namely sum v^i_A dg^A/dq^i."""
    g = tuple(g)
    if len(g) != table.k:
        raise BundleError(f"expected {table.k} components")
    allowed = set(table.q_names)
    for comp in g:
        extra = free_vars(comp) - allowed
        if extra:
            raise BundleError(f"component depends on {sorted(extra)[0]}")
    out: Expr = Num(0.0)
    for A in range(table.k):
        for i in range(table.n):
            out = add(out, mul(Var(table.v(i, A)), diff(g[A], table.q(i))))
    return out


# ---------------------------------------------------------------------------
# second-order condition

def sopde_check(gamma, samples: Sequence[JetPoint], tol: float = 1e-10):
    """Check the second-order condition S^A(Gamma_A) = Delta_A at the samples.

    ``gamma`` is a KVectorField or a callable JetPoint -> list[TangentVector].
    Returns (passed, max_residual) with the max-norm residual over samples.
    """
    worst = 0.0
    for w in samples:
        legs = gamma.legs_at(w) if isinstance(gamma, KVectorField) else gamma(w)
        for A, leg in enumerate(legs):
            lhs = vertical_endomorphism(A, leg)
            rhs = liouville_field(A, w)
            r = float(np.max(np.abs(lhs.components - rhs.components)))
            worst = max(worst, r)
    return worst <= tol, worst


# ---------------------------------------------------------------------------
# diffeomorphisms and their prolongations

@dataclass(frozen=True)
class DiffeoQ:
    """Diffeomorphism of Q given by forward and declared inverse components."""

    table: VarTable
    forward: tuple
    inverse: tuple

    def __post_init__(self):
        n = self.table.n
        if len(self.forward) != n or len(self.inverse) != n:
            raise BundleError(f"expected {n} forward and inverse components")

    def verify_inverse(self, qs: Sequence[np.ndarray], tol: float = 1e-9) -> float:
        """Max |phi(phi^-1(q)) - q| over sample base points; raises above tol."""
        names = self.table.q_names
        points = np.asarray(qs, dtype=float).reshape(-1, len(names))
        back = evaluate_batch(self.forward, names, evaluate_batch(self.inverse, names, points))
        worst = float(np.max(np.abs(back - points))) if points.size else 0.0
        if worst > tol:
            raise BundleError(f"declared inverse fails round-trip: residual {worst:.3e}")
        return worst


@dataclass(frozen=True)
class TotalMap:
    """Self-map of a bundle chart, with an optional declared inverse."""

    table: VarTable
    side: str
    components: tuple
    inverse: Optional[tuple] = None

    def __post_init__(self):
        if len(self.components) != self.table.dim_total:
            raise BundleError(f"expected {self.table.dim_total} components")

    @property
    def chart(self) -> tuple:
        return self.table.chart(self.side)

    def apply_env(self, env: dict) -> np.ndarray:
        return evaluate_envs(self.components, [env])[0]

    def images(self, points) -> np.ndarray:
        """Images of the rows of ``points`` (chart coordinates), as rows."""
        return evaluate_batch(self.components, self.chart, point_rows(points, len(self.chart))[0])

    def map_point(self, w):
        return self._point(self.apply_env(w.env()))

    def _point(self, values: np.ndarray):
        point_type = JetPoint if self.side == "lagrangian" else CoJetPoint
        return point_type.from_flat(self.table, values)

    def _jacobian_exprs(self) -> tuple:
        return tuple(diff(comp, name) for comp in self.components for name in self.chart)

    def jacobian_at(self, env: dict) -> np.ndarray:
        dim = len(self.chart)
        return evaluate_envs(self._jacobian_exprs(), [env])[0].reshape(dim, dim)

    def jacobians(self, points) -> np.ndarray:
        """Jacobian matrices at the rows of ``points``, shape (N, dim, dim)."""
        dim = len(self.chart)
        rows, _ = point_rows(points, dim)
        return evaluate_batch(self._jacobian_exprs(), self.chart, rows).reshape(-1, dim, dim)

    def pushforward(self, X: TangentVector) -> TangentVector:
        env = X.base.env()
        J = self.jacobian_at(env)
        return TangentVector(self.map_point(X.base), J @ X.components)

    def pushforward_legs(self, legs_fn: Callable, points) -> np.ndarray:
        """Legs of the pushforward of a k-vector field at the rows of ``points``.

        ``legs_fn`` maps an (N, dim) matrix of points to their (N, k, dim)
        legs; each is taken at the preimage Phi^-1(w) and pushed to w by the
        Jacobian there.
        """
        if self.inverse is None:
            raise BundleError("pushforward through a map without declared inverse")
        rows, _ = point_rows(points, len(self.chart))
        pre = evaluate_batch(self.inverse, self.chart, rows)
        return np.einsum("nij,naj->nai", self.jacobians(pre), legs_fn(pre))

    def verify_inverse(self, points, tol: float = 1e-9) -> float:
        if self.inverse is None:
            raise BundleError("no declared inverse")
        rows, _ = point_rows(points, len(self.chart))
        back = self.images(evaluate_batch(self.inverse, self.chart, rows))
        worst = float(np.max(np.abs(back - rows))) if rows.size else 0.0
        if worst > tol:
            raise BundleError(f"declared inverse fails round-trip: residual {worst:.3e}")
        return worst


def tangent_prolongation(phi: DiffeoQ) -> TotalMap:
    """Prolong a base diffeomorphism to (q, v): (phi(q), Dphi(q) v_A)."""
    table = phi.table
    comps = list(phi.forward)
    for A in range(table.k):
        for i in range(table.n):
            out: Expr = Num(0.0)
            for j in range(table.n):
                out = add(
                    out,
                    mul(Var(table.v(j, A)), diff(phi.forward[i], table.q(j))),
                )
            comps.append(out)
    inverse = list(phi.inverse)
    for A in range(table.k):
        for i in range(table.n):
            out = Num(0.0)
            for j in range(table.n):
                out = add(
                    out,
                    mul(Var(table.v(j, A)), diff(phi.inverse[i], table.q(j))),
                )
            inverse.append(out)
    return TotalMap(table, "lagrangian", tuple(comps), tuple(inverse))


def cotangent_prolongation(phi: DiffeoQ) -> TotalMap:
    """Prolong to (q, p) covering phi: (phi(q), p . Dphi(q)^-1).

    Written symbolically as p'_i = p_j d(phi^-1)^j/dq^i evaluated at phi(q),
    so the declared inverse supplies the Jacobian inverse.
    """
    table = phi.table
    fwd_map = dict(zip(table.q_names, phi.forward))
    inv_map = dict(zip(table.q_names, phi.inverse))
    comps = list(phi.forward)
    for A in range(table.k):
        for i in range(table.n):
            out: Expr = Num(0.0)
            for j in range(table.n):
                dinv = substitute(diff(phi.inverse[j], table.q(i)), fwd_map)
                out = add(out, mul(Var(table.p(A, j)), dinv))
            comps.append(out)
    inverse = list(phi.inverse)
    for A in range(table.k):
        for i in range(table.n):
            out = Num(0.0)
            for j in range(table.n):
                dfwd = substitute(diff(phi.forward[j], table.q(i)), inv_map)
                out = add(out, mul(Var(table.p(A, j)), dfwd))
            inverse.append(out)
    return TotalMap(table, "hamiltonian", tuple(comps), tuple(inverse))
