"""Desk-scale field-equation integrators and discrete conservation machinery.

Time stepping covers k = 1 (fourth-order Runge-Kutta on the reduced
second-order system) and k = 2 (leapfrog in t1 with a periodic t2 axis);
general k remains available through the residual/verification entry points
of the lagrangian and hamiltonian modules.  Grids store the field values
plus stencil-derived first jets: centered differences inside, three-point
one-sided at the evolution-axis ends.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coords import VarTable
from .expr import Expr, compile_vectorized, diff, evaluate_batch, free_vars, is_zero_expr
from .lagrangian import LagrangianModel, RegularityError, energy, legendre_exprs


class SolverError(ValueError):
    pass


class NotHyperbolicError(SolverError):
    """The Lagrangian cannot be certified explicit-hyperbolic for leapfrog."""


class CFLWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Axis:
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise SolverError("axis step must be positive")
        if self.stop <= self.start:
            raise SolverError("axis extent must be increasing")
        count = (self.stop - self.start) / self.step
        if abs(count - round(count)) > 1e-9:
            raise SolverError(
                f"axis extent {self.stop - self.start} is not an integral number of steps {self.step}"
            )

    @property
    def count(self) -> int:
        return int(round((self.stop - self.start) / self.step))


@dataclass(frozen=True)
class GridSpec:
    """k = 1: one evolution axis.  k = 2: evolution axis then periodic axis."""

    axes: tuple

    def __post_init__(self):
        if len(self.axes) not in (1, 2):
            raise SolverError("time stepping supports k = 1 or k = 2 only")

    @property
    def k(self) -> int:
        return len(self.axes)

    def evolution_times(self) -> np.ndarray:
        ax = self.axes[0]
        return ax.start + ax.step * np.arange(ax.count + 1)

    def periodic_nodes(self) -> np.ndarray:
        ax = self.axes[1]
        return ax.start + ax.step * np.arange(ax.count)

    def refined(self) -> "GridSpec":
        return GridSpec(tuple(Axis(a.start, a.stop, a.step / 2) for a in self.axes))


@dataclass
class SolutionGrid:
    """Discretized field with stencil-derived first-jet values.

    ``phi`` has shape (levels, n) for k = 1 and (levels, nodes, n) for k = 2;
    ``jets`` appends (n, k) per node.  ``state_v`` (k = 1 only) keeps the
    integrator's exact velocities, which back the energy diagnostics; the
    stored jets always come from the declared stencil.
    """

    table: VarTable
    spec: GridSpec
    phi: np.ndarray
    jets: np.ndarray = field(default=None)
    state_v: Optional[np.ndarray] = None
    summary: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.jets is None:
            self.jets = self.jets_from_stencil()

    @property
    def k(self) -> int:
        return self.spec.k

    def jets_from_stencil(self) -> np.ndarray:
        h1 = self.spec.axes[0].step
        phi = self.phi
        jets = np.empty(phi.shape + (self.k,))
        jets[..., 0] = _time_derivative(phi, h1)
        if self.k == 2:
            h2 = self.spec.axes[1].step
            jets[..., 1] = (np.roll(phi, -1, axis=1) - np.roll(phi, 1, axis=1)) / (2 * h2)
        return jets

    def node_coordinates(self):
        ts = self.spec.evolution_times()
        if self.k == 1:
            return (ts,)
        return ts, self.spec.periodic_nodes()

    def to_csv(self, path):
        table = self.table
        header = [f"t{A + 1}" for A in range(self.k)]
        header += [f"phi{i + 1}" for i in range(table.n)]
        header += [table.v(i, A) for i in range(table.n) for A in range(self.k)]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for idx, coords in _iter_nodes(self):
                row = list(coords)
                row += [repr(float(v)) for v in self.phi[idx]]
                row += [
                    repr(float(self.jets[idx][i, A]))
                    for i in range(table.n)
                    for A in range(self.k)
                ]
                writer.writerow(row)

    def summary_json(self) -> str:
        return json.dumps(self.summary, sort_keys=True, indent=2)


def _iter_nodes(sol: SolutionGrid):
    coords = sol.node_coordinates()
    if sol.k == 1:
        for m, t in enumerate(coords[0]):
            yield (m,), (repr(float(t)),)
    else:
        for m, t1 in enumerate(coords[0]):
            for j, t2 in enumerate(coords[1]):
                yield (m, j), (repr(float(t1)), repr(float(t2)))


def _time_derivative(phi: np.ndarray, h: float) -> np.ndarray:
    if phi.shape[0] < 3:
        raise SolverError("need at least three evolution levels for jet stencils")
    out = np.empty_like(phi)
    out[1:-1] = (phi[2:] - phi[:-2]) / (2 * h)
    # second-order one-sided ends keep the O(h^2) consistency bound
    out[0] = (-3 * phi[0] + 4 * phi[1] - phi[2]) / (2 * h)
    out[-1] = (3 * phi[-1] - 4 * phi[-2] + phi[-3]) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# k = 1: Runge-Kutta on the reduced second-order system

class _CompiledSode:
    """Compiled acceleration map for a regular k = 1 Lagrangian."""

    def __init__(self, model: LagrangianModel):
        table = model.table
        if table.k != 1:
            raise SolverError("k = 1 integrator needs a k = 1 model")
        chart = table.velocity_chart
        n = table.n
        self.n = n
        self.hess = [
            [compile_vectorized(diff(model.dLdv(i, 0), table.v(j, 0)), chart) for j in range(n)]
            for i in range(n)
        ]
        self.mixed = [
            [compile_vectorized(diff(model.dLdv(i, 0), table.q(j)), chart) for j in range(n)]
            for i in range(n)
        ]
        self.grad_q = [compile_vectorized(model.dLdq(i), chart) for i in range(n)]
        self.energy = compile_vectorized(energy(model), chart)

    def accel(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        args = tuple(q) + tuple(v)
        n = self.n
        with np.errstate(all="ignore"):
            H = np.array(
                [[self.hess[i][j](*args) for j in range(n)] for i in range(n)], dtype=float
            )
            rhs = np.array(
                [
                    self.grad_q[i](*args)
                    - sum(self.mixed[i][j](*args) * v[j] for j in range(n))
                    for i in range(n)
                ],
                dtype=float,
            )
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(rhs))):
            raise SolverError("non-finite stage values; step rejected")
        det = np.linalg.det(H)
        scale = max(1.0, float(np.max(np.abs(H))) ** n)
        if abs(det) <= 1e-10 * scale:
            raise RegularityError("velocity Hessian became singular along the trajectory")
        return np.linalg.solve(H, rhs)

    def energy_at(self, q, v) -> float:
        return float(self.energy(*(tuple(q) + tuple(v))))


def integrate_k1(
    model: LagrangianModel, q0: Sequence[float], v0: Sequence[float], grid: GridSpec
) -> SolutionGrid:
    """RK4 integration of the second-order equation of motion.

    The returned summary carries the energy drift max|E(t) - E(0)| measured
    on the exact integrator state.
    """
    if grid.k != 1:
        raise SolverError("integrate_k1 needs a one-axis grid")
    sode = _CompiledSode(model)
    n = model.table.n
    h = grid.axes[0].step
    levels = grid.axes[0].count + 1
    qs = np.empty((levels, n))
    vs = np.empty((levels, n))
    qs[0] = np.asarray(q0, dtype=float)
    vs[0] = np.asarray(v0, dtype=float)

    def rhs(state):
        q, v = state[:n], state[n:]
        return np.concatenate([v, sode.accel(q, v)])

    e0 = sode.energy_at(qs[0], vs[0])
    drift = 0.0
    state = np.concatenate([qs[0], vs[0]])
    for m in range(1, levels):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(state)):
            raise SolverError(f"non-finite state at step {m}; step rejected")
        qs[m] = state[:n]
        vs[m] = state[n:]
        drift = max(drift, abs(sode.energy_at(qs[m], vs[m]) - e0))

    summary = {"energy_drift": drift, "initial_energy": e0, "step": h, "levels": levels}
    return SolutionGrid(model.table, grid, qs, state_v=vs, summary=summary)


# ---------------------------------------------------------------------------
# k = 2: leapfrog evolution with a periodic second axis

def _constant_value(e: Expr, what: str) -> float:
    if free_vars(e):
        raise NotHyperbolicError(f"{what} is not constant: {e}")
    return float(evaluate_batch([e], (), np.empty((1, 0)))[0, 0])


def _hyperbolic_blocks(model: LagrangianModel):
    """Certify the explicit form M11 phi_tt = dL/dq - C2 phi_x - M22 phi_xx.

    Requires a velocity Hessian of constant entries, no v1-v2 coupling, no
    q-v1 coupling, and a positive-definite t1 block.  Rejection is symbolic:
    the relevant second derivatives must fold to constants/zero.
    """
    table = model.table
    if table.k != 2:
        raise SolverError("hyperbolic integrator needs k = 2")
    n = table.n
    M11 = np.empty((n, n))
    M12 = np.empty((n, n))
    M22 = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            M11[i, j] = _constant_value(
                diff(model.dLdv(i, 0), table.v(j, 0)), "d2L/dv1 dv1"
            )
            M12[i, j] = _constant_value(
                diff(model.dLdv(i, 0), table.v(j, 1)), "d2L/dv1 dv2"
            )
            M22[i, j] = _constant_value(
                diff(model.dLdv(i, 1), table.v(j, 1)), "d2L/dv2 dv2"
            )
            if not is_zero_expr(diff(model.dLdv(i, 0), table.q(j))):
                raise NotHyperbolicError(
                    "q-coupled t1 momentum: system not explicitly solvable for phi_t1t1"
                )
    if np.max(np.abs(M12)) != 0.0:
        raise NotHyperbolicError("v1-v2 cross terms block the explicit update")
    try:
        np.linalg.cholesky(M11)
    except np.linalg.LinAlgError:
        raise NotHyperbolicError("t1 velocity block is not positive-definite") from None
    return M11, M22


def integrate_k2_hyperbolic(
    model: LagrangianModel,
    phi0: Sequence[Expr],
    phidot0: Sequence[Expr],
    grid: GridSpec,
) -> SolutionGrid:
    """Leapfrog evolution in t1 with centered periodic differences in t2.

    ``phi0`` and ``phidot0`` are expressions in t2 giving the initial field
    and its t1 rate on the periodic axis.
    """
    table = model.table
    if grid.k != 2:
        raise SolverError("integrate_k2_hyperbolic needs a two-axis grid")
    M11, M22 = _hyperbolic_blocks(model)
    n = table.n
    h1 = grid.axes[0].step
    h2 = grid.axes[1].step

    # wave speeds from the principal symbol; warn when the step ratio
    # exceeds the unit-CFL bound of the wave fixture.
    symbol = np.linalg.solve(M11, -M22)
    speeds = np.linalg.eigvals(symbol)
    cmax = float(np.sqrt(np.max(np.abs(speeds.real)))) if speeds.size else 0.0
    if cmax * h1 / h2 > 1.0 + 1e-12:
        warnings.warn(
            f"CFL bound exceeded: c*h1/h2 = {cmax * h1 / h2:.3f} > 1", CFLWarning
        )

    x = grid.periodic_nodes()
    env_names = ("t2",)
    phi_now = np.stack(
        [np.broadcast_to(compile_vectorized(c, env_names)(x), x.shape).astype(float) for c in phi0],
        axis=-1,
    )
    rate0 = np.stack(
        [np.broadcast_to(compile_vectorized(c, env_names)(x), x.shape).astype(float) for c in phidot0],
        axis=-1,
    )

    chart = table.velocity_chart
    grad_q = [compile_vectorized(model.dLdq(i), chart) for i in range(n)]
    cross = [
        [compile_vectorized(diff(model.dLdv(i, 1), table.q(j)), chart) for j in range(n)]
        for i in range(n)
    ]
    m11_inv = np.linalg.inv(M11)

    def acceleration(phi_level: np.ndarray) -> np.ndarray:
        v2 = (np.roll(phi_level, -1, axis=0) - np.roll(phi_level, 1, axis=0)) / (2 * h2)
        phixx = (
            np.roll(phi_level, -1, axis=0) - 2 * phi_level + np.roll(phi_level, 1, axis=0)
        ) / h2**2
        zeros = np.zeros_like(phi_level[:, 0])
        args = [phi_level[:, i] for i in range(n)]
        args += [zeros for _ in range(n)]        # v1 slots: certified unused
        args += [v2[:, i] for i in range(n)]
        rhs = np.empty_like(phi_level)
        for i in range(n):
            total = np.broadcast_to(grad_q[i](*args), zeros.shape).astype(float).copy()
            for j in range(n):
                coeff = cross[i][j](*args)
                total -= np.broadcast_to(coeff, zeros.shape) * v2[:, j]
            rhs[:, i] = total
        rhs -= phixx @ M22.T
        return rhs @ m11_inv.T

    levels = grid.axes[0].count + 1
    phi = np.empty((levels, x.size, n))
    phi[0] = phi_now
    phi[1] = phi_now + h1 * rate0 + 0.5 * h1**2 * acceleration(phi_now)
    for m in range(1, levels - 1):
        phi[m + 1] = 2 * phi[m] - phi[m - 1] + h1**2 * acceleration(phi[m])
        if not np.all(np.isfinite(phi[m + 1])):
            raise SolverError(f"non-finite field at step {m + 1}; step rejected")

    summary = {"steps": levels - 1, "h1": h1, "h2": h2, "max_speed": cmax}
    return SolutionGrid(table, grid, phi, summary=summary)


# ---------------------------------------------------------------------------
# current traces

@dataclass
class CurrentTrace:
    """Nodewise values of a candidate current and its discrete divergence.

    The divergence uses the same centered stencils as the stored jets; its
    reported maximum runs over the clean interior (evolution levels 2..M-2),
    excluding every node whose stencil touches one-sided jet values.
    """

    sol: SolutionGrid
    values: np.ndarray       # (..., k)
    divergence: np.ndarray   # (...), nan outside the computed band
    max_divergence: float
    interior_count: int

    def to_csv(self, path):
        k = self.sol.k
        table = self.sol.table
        header = [f"t{A + 1}" for A in range(k)]
        header += [f"phi{i + 1}" for i in range(table.n)]
        header += [table.v(i, A) for i in range(table.n) for A in range(k)]
        header += [f"F{A + 1}" for A in range(k)]
        header.append("divergence")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for idx, coords in _iter_nodes(self.sol):
                row = list(coords)
                row += [repr(float(v)) for v in self.sol.phi[idx]]
                row += [
                    repr(float(self.sol.jets[idx][i, A]))
                    for i in range(table.n)
                    for A in range(k)
                ]
                row += [repr(float(self.values[idx][A])) for A in range(k)]
                row.append(repr(float(self.divergence[idx])))
                writer.writerow(row)

    def summary(self) -> dict:
        return {
            "max_divergence": self.max_divergence,
            "interior_nodes": self.interior_count,
        }


def evaluate_current(
    F: Sequence[Expr],
    sol: SolutionGrid,
    side: str = "lagrangian",
    model: Optional[LagrangianModel] = None,
) -> CurrentTrace:
    """Evaluate a candidate current nodewise and form its discrete divergence.

    Lagrangian-side currents are functions of (q, v) evaluated on the jets;
    Hamiltonian-side currents are functions of (q, p) evaluated on the
    fiber-derivative image, which needs the underlying Lagrangian model.
    """
    table = sol.table
    k = sol.k
    F = tuple(F)
    if len(F) != k:
        raise SolverError(f"expected {k} current components")

    n = table.n
    q_arrays = [sol.phi[..., i] for i in range(n)]
    v_arrays = [sol.jets[..., i, A] for A in range(k) for i in range(n)]
    if side == "lagrangian":
        chart = table.velocity_chart
        args = q_arrays + v_arrays
    elif side == "hamiltonian":
        if model is None:
            raise SolverError("hamiltonian-side traces need the Lagrangian model")
        chart = table.momentum_chart
        velocity_chart = table.velocity_chart
        p_arrays = [
            np.broadcast_to(
                compile_vectorized(expr, velocity_chart)(*(q_arrays + v_arrays)),
                sol.phi.shape[:-1],
            )
            for expr in legendre_exprs(model)
        ]
        args = q_arrays + p_arrays
    else:
        raise SolverError(f"unknown side {side!r}")

    shape = sol.phi.shape[:-1]
    values = np.empty(shape + (k,))
    for A, component in enumerate(F):
        values[..., A] = np.broadcast_to(
            compile_vectorized(component, chart)(*args), shape
        )

    h1 = sol.spec.axes[0].step
    div = np.full(shape, np.nan)
    levels = shape[0]
    if levels < 5:
        raise SolverError("need at least five evolution levels for a divergence band")
    band = slice(1, levels - 1)
    d_dt = (values[2:, ..., 0] - values[:-2, ..., 0]) / (2 * h1)
    div[band] = d_dt
    if k == 2:
        h2 = sol.spec.axes[1].step
        d_dx = (
            np.roll(values[..., 1], -1, axis=1) - np.roll(values[..., 1], 1, axis=1)
        ) / (2 * h2)
        div[band] += d_dx[band]

    clean = div[2: levels - 2]
    max_div = float(np.max(np.abs(clean)))
    return CurrentTrace(sol, values, div, max_div, int(np.prod(clean.shape)))


# ---------------------------------------------------------------------------
# convergence measurement

def self_convergence_ratio(solutions: Sequence[SolutionGrid]) -> float:
    """err(h)/err(h/2) from three grids with successively halved steps."""
    if len(solutions) != 3:
        raise SolverError("need exactly three refinement levels")
    e1 = _grid_gap(solutions[0], solutions[1])
    e2 = _grid_gap(solutions[1], solutions[2])
    if e2 == 0.0:
        raise SolverError("refined solutions coincide; ratio undefined")
    return e1 / e2


def _grid_gap(coarse: SolutionGrid, fine: SolutionGrid) -> float:
    stride = tuple(2 for _ in range(coarse.k))
    if coarse.k == 1:
        sub = fine.phi[::2]
    else:
        sub = fine.phi[::2, ::2]
    if sub.shape != coarse.phi.shape:
        raise SolverError("refined grid does not nest in the coarse grid")
    return float(np.max(np.abs(sub - coarse.phi)))
