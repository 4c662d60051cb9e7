"""Fields, sections and maps of the k-velocity bundle and its dual.

Points are chart rows: an (N, dim) matrix whose columns follow the chart
ordering of :mod:`ksfield.coords` (base block q, then k fiber blocks of n,
so row[n + A*n + i] is v^i_A or p^A_i).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .coords import VarTable
from .expr import (
    Expr,
    Num,
    Var,
    diff,
    evaluate_batch,
    free_vars,
    mul,
    substitute,
    total,
)
from .forms import VectorField, largest_abs
from .records import InputError, Record


class BundleError(InputError):
    pass


def point_rows(points, dim: int) -> np.ndarray:
    """``points`` as an (N, dim) float matrix of chart rows, columns in chart
    order; any other shape, a single 1-D row included, is a BundleError."""
    rows = np.asarray(points, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise BundleError(f"points must be an (N, {dim}) matrix of chart rows, got {rows.shape}")
    return rows


def fold_constant(kernel, entries, *stacks):
    """``kernel(*stacks)`` over stacks of N rows built from the expressions ``entries``;
    when none has a free variable the rows are alike, so the kernel runs on row 0 and
    each array it returns comes back as a read-only broadcast view of N rows."""
    if len(stacks[0]) < 2 or any(free_vars(e) for e in entries):
        return kernel(*stacks)
    out = kernel(*(stack[:1] for stack in stacks))

    def spread(a):
        return np.broadcast_to(a, (len(stacks[0]),) + a.shape[1:])
    return tuple(map(spread, out)) if isinstance(out, tuple) else spread(out)


class VectorFieldQ(Record, frozen=True):
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


# ---------------------------------------------------------------------------
# analytic solutions: sections in t

class Section(Record, frozen=True):
    """An analytic solution: one expression in t per chart coordinate of its side.

    On the lagrangian side it is the first prolongation (phi^i, dphi^i/dt^A)
    of a map phi: R^k -> Q, on the hamiltonian side a section (psi^i, psi^A_i)
    of the k-covelocity bundle.
    """

    table: VarTable
    side: str  # "lagrangian" | "hamiltonian"
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.table.dim_total:
            raise BundleError(f"expected {self.table.dim_total} section components")
        allowed = set(self.table.t_names)
        for comp in self.components:
            extra = free_vars(comp) - allowed
            if extra:
                raise BundleError(f"section component depends on {sorted(extra)[0]}")

    @classmethod
    def prolongation(cls, table: VarTable, phi: Sequence[Expr]) -> "Section":
        """The first prolongation of the map phi, in velocity-chart order."""
        phi = tuple(phi)
        if len(phi) != table.n:
            raise BundleError(f"expected {table.n} map components")
        jets = tuple(diff(c, table.t(A)) for A in range(table.k) for c in phi)
        return cls(table, "lagrangian", phi + jets)

    @property
    def base(self) -> tuple:
        return self.components[: self.table.n]

    def restrict(self, e: Expr) -> Expr:
        """e over the side's chart, restricted to the section: an expression in t."""
        return substitute(e, dict(zip(self.table.chart(self.side), self.components)))


# ---------------------------------------------------------------------------
# lifts

def complete_lift(Z: VectorFieldQ) -> VectorField:
    """Lift to the velocity bundle: Z^i d/dq^i + v^j_A dZ^i/dq^j d/dv^i_A."""
    return VectorField(Z.table.velocity_chart, _tangent_lift(Z.table, Z.components))


def _tangent_lift(table: VarTable, base) -> tuple:
    """(base^i, v^j_A dbase^i/dq^j) in chart order, for a field or a map on Q."""
    return tuple(base) + tuple(
        total(mul(Var(table.v(j, A)), diff(base[i], table.q(j))) for j in range(table.n))
        for A in range(table.k) for i in range(table.n)
    )


def cotangent_lift(Z: VectorFieldQ) -> VectorField:
    """Lift to the covelocity bundle: Z^i d/dq^i - p^A_j dZ^j/dq^i d/dp^A_i."""
    table, comps = Z.table, Z.components
    fibers = tuple(
        mul(Num(-1.0), total(mul(Var(table.p(A, j)), diff(comps[j], q)) for j in range(table.n)))
        for A in range(table.k) for q in table.q_names
    )
    return VectorField(table.momentum_chart, tuple(comps) + fibers)


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
    return total(mul(Var(table.v(i, A)), diff(g[A], table.q(i)))
                 for A in range(table.k) for i in range(table.n))


# ---------------------------------------------------------------------------
# diffeomorphisms and their prolongations

class DiffeoQ(Record, frozen=True):
    """Diffeomorphism of Q given by forward and declared inverse components."""

    table: VarTable
    forward: tuple
    inverse: tuple

    def __post_init__(self):
        n = self.table.n
        if len(self.forward) != n or len(self.inverse) != n:
            raise BundleError(f"expected {n} forward and inverse components")

    def verify_inverse(self, qs, tol: float = 1e-9) -> float:
        """Max |phi(phi^-1(q)) - q| over the (N, n) base rows qs; raises above tol."""
        names = self.table.q_names
        return _round_trip(self.forward, self.inverse, names, point_rows(qs, len(names)), tol)


def _round_trip(forward, inverse, names, rows, tol: float) -> float:
    """Max |forward(inverse(x)) - x| over the rows; BundleError above tol."""
    back = evaluate_batch(forward, names, evaluate_batch(inverse, names, rows))
    worst = largest_abs(back - rows)
    if worst > tol:
        raise BundleError(f"declared inverse fails round-trip: residual {worst:.3e}")
    return worst


class TotalMap(Record, frozen=True):
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

    def images(self, points) -> np.ndarray:
        """Images of the rows of ``points`` (chart coordinates), as rows."""
        return evaluate_batch(self.components, self.chart, point_rows(points, len(self.chart)))

    def jacobians(self, points) -> np.ndarray:
        """Jacobian matrices at the rows of ``points``, a row-major (N, dim, dim) stack."""
        dim = len(self.chart)
        rows = point_rows(points, dim)
        derivatives = [diff(comp, name) for comp in self.components for name in self.chart]
        values = evaluate_batch(derivatives, self.chart, rows)
        return np.ascontiguousarray(values).reshape(-1, dim, dim)

    def pushforward_legs(self, legs_fn: Callable, points) -> np.ndarray:
        """Legs of the pushforward of a k-vector field at the rows of ``points``.

        ``legs_fn`` maps an (N, dim) matrix of points to their (N, k, dim)
        legs; each is taken at the preimage Phi^-1(w) and pushed to w by the
        Jacobian there.
        """
        if self.inverse is None:
            raise BundleError("pushforward through a map without declared inverse")
        rows = point_rows(points, len(self.chart))
        pre = evaluate_batch(self.inverse, self.chart, rows)
        return np.einsum("nij,naj->nai", self.jacobians(pre), legs_fn(pre))

    def verify_inverse(self, points, tol: float = 1e-9) -> float:
        if self.inverse is None:
            raise BundleError("no declared inverse")
        rows = point_rows(points, len(self.chart))
        return _round_trip(self.components, self.inverse, self.chart, rows, tol)


def tangent_prolongation(phi: DiffeoQ) -> TotalMap:
    """Prolong a base diffeomorphism to (q, v): (phi(q), Dphi(q) v_A)."""
    lifts = (_tangent_lift(phi.table, phi.forward), _tangent_lift(phi.table, phi.inverse))
    return TotalMap(phi.table, "lagrangian", *lifts)


def cotangent_prolongation(phi: DiffeoQ) -> TotalMap:
    """Prolong to (q, p) covering phi: (phi(q), p . Dphi(q)^-1).

    Written symbolically as p'_i = p_j d(phi^-1)^j/dq^i evaluated at phi(q),
    so the declared inverse supplies the Jacobian inverse.
    """
    table = phi.table

    def prolong(base, other) -> tuple:  # p'_i = p_j d(other^j)/dq^i at base(q)
        at_base = dict(zip(table.q_names, base))
        return tuple(base) + tuple(
            total(mul(Var(table.p(A, j)), substitute(diff(other[j], q), at_base))
                  for j in range(table.n))
            for A in range(table.k) for q in table.q_names
        )

    return TotalMap(
        table, "hamiltonian", prolong(phi.forward, phi.inverse), prolong(phi.inverse, phi.forward)
    )
